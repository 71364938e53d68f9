// Example: a tamper-evident audit head.
//
// A common pattern over an atomic register: the register holds the HEAD
// of an append-only log — 〈sequence number, hash of previous head,
// payload digest〉. Auditors append by read-modify-write; the register's
// atomicity plus unique, monotonically increasing timestamps make forks
// detectable, and BFT-BC's Byzantine-client tolerance bounds how much a
// rogue auditor can damage the chain even with a colluder replaying for
// it after it is fired.
#include <cstdio>
#include <string>

#include "crypto/sha256.h"
#include "harness/cluster.h"
#include "util/hex.h"

using namespace bftbc;

namespace {

constexpr quorum::ObjectId kLogHead = 9;

struct Head {
  std::uint64_t seq = 0;
  std::string prev_digest;  // hex of previous head's bytes
  std::string entry;

  Bytes encode() const {
    return to_bytes(std::to_string(seq) + "|" + prev_digest + "|" + entry);
  }
  static Head parse(const Bytes& b) {
    const std::string s = to_string(b);
    Head h;
    const auto p1 = s.find('|');
    const auto p2 = s.find('|', p1 + 1);
    if (p1 == std::string::npos || p2 == std::string::npos) return h;
    h.seq = std::stoull(s.substr(0, p1));
    h.prev_digest = s.substr(p1 + 1, p2 - p1 - 1);
    h.entry = s.substr(p2 + 1);
    return h;
  }
};

// Read-modify-write append. Returns the new head on success.
Result<Head> append(harness::Cluster& cluster, shard::RoutingClient& auditor,
                    const std::string& entry) {
  auto r = cluster.read(auditor, kLogHead);
  if (!r.is_ok()) return r.status();

  Head prev;
  std::string prev_hex = "genesis";
  if (!r.value().value.empty()) {
    prev = Head::parse(r.value().value);
    prev_hex = hex_prefix(crypto::digest_view(crypto::sha256(r.value().value)),
                          16);
  }
  Head next;
  next.seq = prev.seq + 1;
  next.prev_digest = prev_hex;
  next.entry = entry;

  auto w = cluster.write(auditor, kLogHead, next.encode());
  if (!w.is_ok()) return w.status();
  return next;
}

// Verify the chain telescopes: each head's prev_digest matches what we
// recorded when writing — a fork or rollback breaks the chain.
bool verify_chain(const std::vector<Bytes>& heads) {
  std::string expected = "genesis";
  for (const Bytes& raw : heads) {
    const Head h = Head::parse(raw);
    if (h.prev_digest != expected) return false;
    expected = hex_prefix(crypto::digest_view(crypto::sha256(raw)), 16);
  }
  return true;
}

}  // namespace

int main() {
  harness::ClusterOptions options;
  options.f = 1;
  options.seed = 99;
  harness::Cluster cluster(options);

  auto& auditor_a = cluster.add_client(1);
  auto& auditor_b = cluster.add_client(2);

  std::printf("== appending audit entries from two auditors ==\n");
  std::vector<Bytes> chain;
  const char* entries[] = {"user alice logged in", "payout #881 approved",
                           "key rotation completed", "user bob promoted",
                           "backup verified"};
  for (std::size_t i = 0; i < std::size(entries); ++i) {
    shard::RoutingClient& who = (i % 2 == 0) ? auditor_a : auditor_b;
    auto h = append(cluster, who, entries[i]);
    if (!h.is_ok()) {
      std::printf("append failed: %s\n", h.status().to_string().c_str());
      return 1;
    }
    chain.push_back(h.value().encode());
    std::printf("  seq %llu by auditor %u: %s (prev=%s)\n",
                static_cast<unsigned long long>(h.value().seq), who.id(),
                h.value().entry.c_str(), h.value().prev_digest.c_str());
  }

  std::printf("\n== chain verification ==\n  chain of %zu heads: %s\n",
              chain.size(), verify_chain(chain) ? "INTACT" : "BROKEN");

  // Timestamps grew by exactly one per append: nobody can burn through
  // the sequence space, and the head's history length equals ts.val.
  auto final_read = cluster.read(auditor_a, kLogHead);
  if (final_read.is_ok()) {
    std::printf("  register timestamp: %s (appends: %zu)\n",
                final_read.value().ts.to_string().c_str(), chain.size());
  }

  // A crashed replica does not stop the auditors.
  cluster.crash_replica(2);
  auto h = append(cluster, auditor_b, "post-crash entry");
  std::printf("\n== availability with a crashed replica ==\n  append %s\n",
              h.is_ok() ? "succeeded" : "failed");

  return 0;
}
