// Timestamps 〈val, client-id〉 (paper §3.2.1).
//
// "Our protocols require that different clients choose different
//  timestamps, and therefore we construct timestamps by concatenating a
//  sequence number with a client identifier."
//
// succ(ts, c) = 〈ts.val + 1, c〉 ; order is (val, id) lexicographic.
// Embedding the writer's identity is also what lets replicas enforce
// that a prepare's timestamp belongs to the requesting client, which is
// the defense against timestamp-space exhaustion (§3.2 attack 3).
#pragma once

#include <cstdint>
#include <string>

#include "util/codec.h"

namespace bftbc::quorum {

using ClientId = std::uint32_t;

struct Timestamp {
  std::uint64_t val = 0;
  ClientId id = 0;

  // Wire layout (util/codec.h): u64 val, then u32 id.
  static auto fields(auto& t) { return std::tie(t.val, t.id); }

  static Timestamp zero() { return {}; }
  bool is_zero() const { return val == 0 && id == 0; }

  // The paper's succ function.
  Timestamp succ(ClientId c) const { return Timestamp{val + 1, c}; }

  friend bool operator==(const Timestamp& a, const Timestamp& b) {
    return a.val == b.val && a.id == b.id;
  }
  friend bool operator!=(const Timestamp& a, const Timestamp& b) {
    return !(a == b);
  }
  friend bool operator<(const Timestamp& a, const Timestamp& b) {
    if (a.val != b.val) return a.val < b.val;
    return a.id < b.id;
  }
  friend bool operator<=(const Timestamp& a, const Timestamp& b) {
    return a < b || a == b;
  }
  friend bool operator>(const Timestamp& a, const Timestamp& b) { return b < a; }
  friend bool operator>=(const Timestamp& a, const Timestamp& b) {
    return b <= a;
  }

  std::string to_string() const {
    return "<" + std::to_string(val) + "," + std::to_string(id) + ">";
  }
};

}  // namespace bftbc::quorum
