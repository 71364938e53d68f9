// Harnesses for the baseline protocols (classic BQS, Phalanx-style and
// SBQ-L), mirroring a one-shard harness::Cluster for BFT-BC so benches
// can sweep every protocol with the same bench code. They share its
// node addressing (replica_nodes, client_node) and its synchronous-op
// helper (run_op) at the simulator's default event cap.
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
  rpc::QuorumCallOptions rpc;
};

class BqsCluster {
 public:
  explicit BqsCluster(BaselineOptions options = BaselineOptions())
      : options_(options),
        config_(quorum::QuorumConfig::bft_bc(options.f)),
        rng_(options.seed),
        net_(sim_, rng_.split(), options.link),
        keystore_(crypto::SignatureScheme::kHmacSim, options.seed ^ 0xb05) {
    for (quorum::ReplicaId r = 0; r < config_.n; ++r) {
      auto t = std::make_unique<rpc::SimTransport>(net_, r);
      replicas_.push_back(std::make_unique<baselines::BqsReplica>(
          config_, r, keystore_, *t));
      transports_.push_back(std::move(t));
    }
  }

  const quorum::QuorumConfig& config() const { return config_; }
  sim::Simulator& sim() { return sim_; }
  sim::Network& net() { return net_; }
  crypto::Keystore& keystore() { return keystore_; }
  Rng& rng() { return rng_; }
  baselines::BqsReplica& replica(quorum::ReplicaId r) { return *replicas_[r]; }

  std::vector<sim::NodeId> replica_nodes() const {
    return harness::replica_nodes(config_.n);
  }

  baselines::BqsClient& add_client(quorum::ClientId id) {
    auto it = clients_.find(id);
    if (it != clients_.end()) return *it->second;
    auto t = std::make_unique<rpc::SimTransport>(net_, client_node(id));
    auto c = std::make_unique<baselines::BqsClient>(
        config_, id, keystore_, *t, sim_, replica_nodes(), rng_.split());
    auto& ref = *c;
    client_transports_[id] = std::move(t);
    clients_[id] = std::move(c);
    return ref;
  }

  std::unique_ptr<rpc::Transport> make_transport(sim::NodeId node) {
    return std::make_unique<rpc::SimTransport>(net_, node);
  }

  Result<baselines::BqsClient::WriteResult> write(baselines::BqsClient& c,
                                                  quorum::ObjectId object,
                                                  Bytes value) {
    return run_op<baselines::BqsClient::WriteResult>(
        sim_, [&](baselines::BqsClient::WriteCallback done) {
          c.write(object, std::move(value), std::move(done));
        });
  }

  Result<baselines::BqsClient::ReadResult> read(baselines::BqsClient& c,
                                                quorum::ObjectId object) {
    return run_op<baselines::BqsClient::ReadResult>(
        sim_, [&](baselines::BqsClient::ReadCallback done) {
          c.read(object, std::move(done));
        });
  }

 private:
  BaselineOptions options_;
  quorum::QuorumConfig config_;
  sim::Simulator sim_;
  Rng rng_;
  sim::Network net_;
  crypto::Keystore keystore_;
  std::vector<std::unique_ptr<rpc::SimTransport>> transports_;
  std::vector<std::unique_ptr<baselines::BqsReplica>> replicas_;
  std::map<quorum::ClientId, std::unique_ptr<rpc::SimTransport>>
      client_transports_;
  std::map<quorum::ClientId, std::unique_ptr<baselines::BqsClient>> clients_;
};

class PhalanxCluster {
 public:
  explicit PhalanxCluster(BaselineOptions options = BaselineOptions())
      : options_(options),
        config_(quorum::QuorumConfig::masking(options.f)),
        rng_(options.seed),
        net_(sim_, rng_.split(), options.link),
        keystore_(crypto::SignatureScheme::kHmacSim, options.seed ^ 0x9a1) {
    const std::vector<sim::NodeId> peers = replica_nodes();
    for (quorum::ReplicaId r = 0; r < config_.n; ++r) {
      auto t = std::make_unique<rpc::SimTransport>(net_, r);
      replicas_.push_back(std::make_unique<baselines::PhalanxReplica>(
          config_, r, keystore_, *t, peers));
      transports_.push_back(std::move(t));
    }
  }

  const quorum::QuorumConfig& config() const { return config_; }
  sim::Simulator& sim() { return sim_; }
  sim::Network& net() { return net_; }
  baselines::PhalanxReplica& replica(quorum::ReplicaId r) {
    return *replicas_[r];
  }

  std::vector<sim::NodeId> replica_nodes() const {
    return harness::replica_nodes(config_.n);
  }

  baselines::PhalanxClient& add_client(quorum::ClientId id) {
    auto it = clients_.find(id);
    if (it != clients_.end()) return *it->second;
    auto t = std::make_unique<rpc::SimTransport>(net_, client_node(id));
    auto c = std::make_unique<baselines::PhalanxClient>(
        config_, id, keystore_, *t, sim_, replica_nodes(), rng_.split());
    auto& ref = *c;
    client_transports_[id] = std::move(t);
    clients_[id] = std::move(c);
    return ref;
  }

  std::unique_ptr<rpc::Transport> make_transport(sim::NodeId node) {
    return std::make_unique<rpc::SimTransport>(net_, node);
  }

  Result<baselines::PhalanxClient::WriteResult> write(
      baselines::PhalanxClient& c, quorum::ObjectId object, Bytes value) {
    return run_op<baselines::PhalanxClient::WriteResult>(
        sim_, [&](baselines::PhalanxClient::WriteCallback done) {
          c.write(object, std::move(value), std::move(done));
        });
  }

  Result<baselines::PhalanxClient::ReadResult> read(baselines::PhalanxClient& c,
                                                    quorum::ObjectId object) {
    return run_op<baselines::PhalanxClient::ReadResult>(
        sim_, [&](baselines::PhalanxClient::ReadCallback done) {
          c.read(object, std::move(done));
        });
  }

  void settle() { sim_.run(); }

 private:
  BaselineOptions options_;
  quorum::QuorumConfig config_;
  sim::Simulator sim_;
  Rng rng_;
  sim::Network net_;
  crypto::Keystore keystore_;
  std::vector<std::unique_ptr<rpc::SimTransport>> transports_;
  std::vector<std::unique_ptr<baselines::PhalanxReplica>> replicas_;
  std::map<quorum::ClientId, std::unique_ptr<rpc::SimTransport>>
      client_transports_;
  std::map<quorum::ClientId, std::unique_ptr<baselines::PhalanxClient>>
      clients_;
};


class SbqlCluster {
 public:
  explicit SbqlCluster(BaselineOptions options = BaselineOptions())
      : options_(options),
        config_(quorum::QuorumConfig::bft_bc(options.f)),
        rng_(options.seed),
        net_(sim_, rng_.split(), options.link),
        keystore_(crypto::SignatureScheme::kHmacSim, options.seed ^ 0x5b1) {
    const std::vector<sim::NodeId> peers = replica_nodes();
    for (quorum::ReplicaId r = 0; r < config_.n; ++r) {
      auto t = std::make_unique<rpc::SimTransport>(net_, r);
      replicas_.push_back(std::make_unique<baselines::SbqlReplica>(
          config_, r, keystore_, *t, sim_, peers));
      transports_.push_back(std::move(t));
    }
  }

  const quorum::QuorumConfig& config() const { return config_; }
  sim::Simulator& sim() { return sim_; }
  sim::Network& net() { return net_; }
  baselines::SbqlReplica& replica(quorum::ReplicaId r) { return *replicas_[r]; }

  std::vector<sim::NodeId> replica_nodes() const {
    return harness::replica_nodes(config_.n);
  }

  baselines::SbqlClient& add_client(quorum::ClientId id) {
    auto it = clients_.find(id);
    if (it != clients_.end()) return *it->second;
    auto t = std::make_unique<rpc::SimTransport>(net_, client_node(id));
    auto c = std::make_unique<baselines::SbqlClient>(
        config_, id, keystore_, *t, sim_, replica_nodes(), rng_.split());
    auto& ref = *c;
    client_transports_[id] = std::move(t);
    clients_[id] = std::move(c);
    return ref;
  }

  Result<baselines::SbqlClient::WriteResult> write(baselines::SbqlClient& c,
                                                   quorum::ObjectId object,
                                                   Bytes value) {
    return run_op<baselines::SbqlClient::WriteResult>(
        sim_, [&](baselines::SbqlClient::WriteCallback done) {
          c.write(object, std::move(value), std::move(done));
        });
  }

  Result<baselines::SbqlClient::ReadResult> read(baselines::SbqlClient& c,
                                                 quorum::ObjectId object) {
    return run_op<baselines::SbqlClient::ReadResult>(
        sim_, [&](baselines::SbqlClient::ReadCallback done) {
          c.read(object, std::move(done));
        });
  }

  // Total reliable-forward buffer across all replicas (the unbounded
  // state of the reliable-network assumption).
  std::size_t total_outbox_bytes() const {
    std::size_t total = 0;
    for (const auto& r : replicas_) total += r->outbox_bytes();
    return total;
  }

  // Run the simulator for a fixed amount of virtual time.
  void run_for(sim::Time t) { sim_.run_until(sim_.now() + t); }

 private:
  BaselineOptions options_;
  quorum::QuorumConfig config_;
  sim::Simulator sim_;
  Rng rng_;
  sim::Network net_;
  crypto::Keystore keystore_;
  std::vector<std::unique_ptr<rpc::SimTransport>> transports_;
  std::vector<std::unique_ptr<baselines::SbqlReplica>> replicas_;
  std::map<quorum::ClientId, std::unique_ptr<rpc::SimTransport>>
      client_transports_;
  std::map<quorum::ClientId, std::unique_ptr<baselines::SbqlClient>> clients_;
};

}  // namespace bftbc::harness

