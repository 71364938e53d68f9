// Nonce generation.
//
// The paper assumes clients never reuse a nonce (§2). We make that
// structural: a nonce is 〈principal, counter, random〉 — unique across
// clients by the principal field and within a client by the counter; the
// random component keeps nonces unpredictable to other nodes.
#pragma once

#include <cstdint>

#include "util/codec.h"
#include "util/rng.h"

namespace bftbc::crypto {

struct Nonce {
  std::uint32_t principal = 0;
  std::uint64_t counter = 0;
  std::uint64_t random = 0;

  // Wire layout (util/codec.h).
  static auto fields(auto& n) {
    return std::tie(n.principal, n.counter, n.random);
  }

  friend bool operator==(const Nonce& a, const Nonce& b) {
    return a.principal == b.principal && a.counter == b.counter &&
           a.random == b.random;
  }
  friend bool operator!=(const Nonce& a, const Nonce& b) { return !(a == b); }
};

class NonceGenerator {
 public:
  NonceGenerator(std::uint32_t principal, Rng rng)
      : principal_(principal), rng_(rng) {}

  Nonce next() {
    return Nonce{principal_, ++counter_, rng_.next_u64()};
  }

 private:
  std::uint32_t principal_;
  std::uint64_t counter_ = 0;
  Rng rng_;
};

}  // namespace bftbc::crypto
