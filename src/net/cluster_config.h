// Deployment cluster description, loaded from a JSON file.
//
// One file, shared verbatim by every bftbcd replica daemon and every
// bftbc_bench client process, pins everything the processes must agree
// on:
//
//   {
//     "f": 1,
//     "mode": "base" | "optimized" | "strong",
//     "auth": "sig" | "mac",
//     "scheme": "hmac" | "rsa",
//     "rsa_bits": 512,
//     "key_seed": 42,
//     "max_clients": 64,
//     "replicas": [ {"host": "127.0.0.1", "port": 5500}, ... ]   // 3f+1
//   }
//
// Sharded deployments replace "replicas" with a "shards" array — one
// independent 3f+1 replica group per entry, all sharing f/mode/auth:
//
//     "shards": [
//       {"replicas": [ {"host": ..., "port": ...}, ... ]},   // shard 0
//       {"replicas": [ ... ]}                                // shard 1
//     ]
//
// A legacy "replicas" config is exactly a one-entry "shards" (the two
// spellings are mutually exclusive). Objects are assigned to groups by
// shard::ShardMap's static hash; every process derives the same map from
// the group count alone. Each shard's keystore seed is derived from
// "key_seed" via shard::shard_key_seed (shard 0 == key_seed, so legacy
// single-group deployments keep byte-identical key material) — a
// certificate minted in one group can never validate in another.
//
// Key distribution: crypto::Keystore derives key material
// deterministically from (scheme, seed) in *registration order*, so
// separate processes that register the same principals in the same
// canonical order hold identical keys — a stand-in for real key
// provisioning that keeps daemons self-contained.
// register_cluster_principals() is that canonical order: replicas 0..n-1
// first, then clients 0..max_clients-1. A client id >= max_clients is a
// config error, not a protocol error.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/signature.h"
#include "net/udp_transport.h"
#include "quorum/config.h"
#include "sim/network.h"
#include "util/status.h"

namespace bftbc::net {

// Node addressing is sim's (sim/network.h), shared with the harness:
// replica r is NodeId r, client c is NodeId kClientNodeBase + c.
using sim::client_node;
using sim::kClientNodeBase;

struct ClusterConfig {
  std::uint32_t f = 1;
  std::string mode = "base";  // "base" | "optimized" | "strong"
  // Point-to-point authentication (§3.3.2): "sig" signs every message,
  // "mac" uses pairwise session-key MACs for requests and replies and
  // reserves signatures for certificate statements.
  std::string auth = "sig";  // "sig" | "mac"
  std::string scheme = "hmac";  // "hmac" | "rsa"
  std::size_t rsa_bits = 512;
  std::uint64_t key_seed = 1;
  std::uint32_t max_clients = 64;

  struct ReplicaEndpoint {
    std::string host;
    std::uint16_t port = 0;
  };
  // One endpoint group per shard, each exactly 3f+1 entries; a legacy
  // single-group config is shard_groups[0].
  std::vector<std::vector<ReplicaEndpoint>> shard_groups;

  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shard_groups.size());
  }
  // Per-shard keystore seed (shard::shard_key_seed over key_seed; shard 0
  // returns key_seed itself).
  std::uint64_t shard_seed(std::uint32_t shard) const;

  bool optimized() const { return mode == "optimized" || mode == "strong"; }
  bool strong() const { return mode == "strong"; }
  bool mac_auth() const { return auth == "mac"; }
  crypto::SignatureScheme signature_scheme() const {
    return scheme == "rsa" ? crypto::SignatureScheme::kRsa
                           : crypto::SignatureScheme::kHmacSim;
  }
  quorum::QuorumConfig quorum() const {
    return quorum::QuorumConfig::bft_bc(f);
  }

  // Parse + validate (n == 3f+1, resolvable hosts, known mode/scheme).
  static Result<ClusterConfig> parse(std::string_view json);
  static Result<ClusterConfig> load(const std::string& path);
};

// The replica endpoint table for UdpTransport, keyed by NodeId 0..n-1.
// Every shard uses the same in-group node ids — a process talks to one
// group per transport (its own socket), so the maps never collide.
Result<std::map<sim::NodeId, UdpEndpoint>> replica_endpoints(
    const ClusterConfig& config, std::uint32_t shard);

// Registers every principal of the cluster in the canonical order that
// makes independently-seeded Keystores agree (see file comment). The
// keystore must be freshly constructed from (config.signature_scheme(),
// config.key_seed, config.rsa_bits).
void register_cluster_principals(const ClusterConfig& config,
                                 crypto::Keystore& keystore);

}  // namespace bftbc::net
