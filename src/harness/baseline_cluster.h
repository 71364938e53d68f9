// Harnesses for the baseline protocols (classic BQS, Phalanx-style and
// SBQ-L), mirroring a one-shard harness::Cluster for BFT-BC so benches
// can sweep every protocol with the same bench code. They share its
// node addressing (replica_nodes, client_node) and its synchronous-op
// helper (run_op) at the simulator's default event cap.
//
// One template serves all three; a protocol's traits name its replica
// and client types, its quorum system, its keystore seed salt and how
// its replicas are built.
#pragma once

#include <map>
#include <memory>

#include "baselines/bqs.h"
#include "baselines/phalanx.h"
#include "baselines/sbql.h"
#include "harness/cluster.h"

namespace bftbc::harness {

struct BaselineOptions {
  std::uint32_t f = 1;
  std::uint64_t seed = 1;
  sim::LinkConfig link;
};

// 3f+1 dissemination quorums; replicas never talk to each other.
struct BqsProtocol {
  using Replica = baselines::BqsReplica;
  using Client = baselines::BqsClient;
  static constexpr std::uint64_t kSeedSalt = 0xb05;
  static quorum::QuorumConfig config(std::uint32_t f) {
    return quorum::QuorumConfig::bft_bc(f);
  }
  static std::unique_ptr<Replica> make_replica(
      const quorum::QuorumConfig& config, quorum::ReplicaId r,
      crypto::Keystore& keystore, rpc::Transport& transport, sim::Scheduler&,
      const std::vector<sim::NodeId>&) {
    return std::make_unique<Replica>(config, r, keystore, transport);
  }
};

// 4f+1 masking quorums; replicas echo writes to their peers.
struct PhalanxProtocol {
  using Replica = baselines::PhalanxReplica;
  using Client = baselines::PhalanxClient;
  static constexpr std::uint64_t kSeedSalt = 0x9a1;
  static quorum::QuorumConfig config(std::uint32_t f) {
    return quorum::QuorumConfig::masking(f);
  }
  static std::unique_ptr<Replica> make_replica(
      const quorum::QuorumConfig& config, quorum::ReplicaId r,
      crypto::Keystore& keystore, rpc::Transport& transport, sim::Scheduler&,
      const std::vector<sim::NodeId>& peers) {
    return std::make_unique<Replica>(config, r, keystore, transport, peers);
  }
};

// Replicas forward every write to their peers over retransmitting links.
struct SbqlProtocol {
  using Replica = baselines::SbqlReplica;
  using Client = baselines::SbqlClient;
  static constexpr std::uint64_t kSeedSalt = 0x5b1;
  static quorum::QuorumConfig config(std::uint32_t f) {
    return quorum::QuorumConfig::bft_bc(f);
  }
  static std::unique_ptr<Replica> make_replica(
      const quorum::QuorumConfig& config, quorum::ReplicaId r,
      crypto::Keystore& keystore, rpc::Transport& transport,
      sim::Scheduler& scheduler, const std::vector<sim::NodeId>& peers) {
    return std::make_unique<Replica>(config, r, keystore, transport,
                                     scheduler, peers);
  }
};

template <typename Protocol>
class BaselineCluster {
 public:
  using Replica = typename Protocol::Replica;
  using Client = typename Protocol::Client;

  explicit BaselineCluster(BaselineOptions options = BaselineOptions())
      : config_(Protocol::config(options.f)),
        rng_(options.seed),
        net_(sim_, rng_.split(), options.link),
        keystore_(crypto::SignatureScheme::kHmacSim,
                  options.seed ^ Protocol::kSeedSalt) {
    const std::vector<sim::NodeId> peers = replica_nodes();
    for (quorum::ReplicaId r = 0; r < config_.n; ++r) {
      auto t = std::make_unique<rpc::SimTransport>(net_, r);
      replicas_.push_back(
          Protocol::make_replica(config_, r, keystore_, *t, sim_, peers));
      transports_.push_back(std::move(t));
    }
  }

  const quorum::QuorumConfig& config() const { return config_; }
  sim::Simulator& sim() { return sim_; }
  sim::Network& net() { return net_; }
  crypto::Keystore& keystore() { return keystore_; }
  Rng& rng() { return rng_; }
  Replica& replica(quorum::ReplicaId r) { return *replicas_[r]; }

  std::vector<sim::NodeId> replica_nodes() const {
    return harness::replica_nodes(config_.n);
  }

  Client& add_client(quorum::ClientId id) {
    auto it = clients_.find(id);
    if (it != clients_.end()) return *it->second;
    auto t = std::make_unique<rpc::SimTransport>(net_, client_node(id));
    auto c = std::make_unique<Client>(config_, id, keystore_, *t, sim_,
                                      replica_nodes(), rng_.split());
    auto& ref = *c;
    client_transports_[id] = std::move(t);
    clients_[id] = std::move(c);
    return ref;
  }

  std::unique_ptr<rpc::Transport> make_transport(sim::NodeId node) {
    return std::make_unique<rpc::SimTransport>(net_, node);
  }

  Result<typename Client::WriteResult> write(Client& c,
                                             quorum::ObjectId object,
                                             Bytes value) {
    return run_op<typename Client::WriteResult>(
        sim_, [&](typename Client::WriteCallback done) {
          c.write(object, std::move(value), std::move(done));
        });
  }

  Result<typename Client::ReadResult> read(Client& c,
                                           quorum::ObjectId object) {
    return run_op<typename Client::ReadResult>(
        sim_, [&](typename Client::ReadCallback done) {
          c.read(object, std::move(done));
        });
  }

  void settle() { sim_.run(); }

  // Run the simulator for a fixed amount of virtual time.
  void run_for(sim::Time t) { sim_.run_until(sim_.now() + t); }

  // SBQ-L only: total reliable-forward buffer across all replicas (the
  // unbounded state of the reliable-network assumption).
  std::size_t total_outbox_bytes() const {
    std::size_t total = 0;
    for (const auto& r : replicas_) total += r->outbox_bytes();
    return total;
  }

 private:
  quorum::QuorumConfig config_;
  sim::Simulator sim_;
  Rng rng_;
  sim::Network net_;
  crypto::Keystore keystore_;
  std::vector<std::unique_ptr<rpc::SimTransport>> transports_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::map<quorum::ClientId, std::unique_ptr<rpc::SimTransport>>
      client_transports_;
  std::map<quorum::ClientId, std::unique_ptr<Client>> clients_;
};

using BqsCluster = BaselineCluster<BqsProtocol>;
using PhalanxCluster = BaselineCluster<PhalanxProtocol>;
using SbqlCluster = BaselineCluster<SbqlProtocol>;

}  // namespace bftbc::harness
