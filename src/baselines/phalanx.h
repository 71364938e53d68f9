// Phalanx-style masking-quorum baseline (paper §8's description of
// Malkhi–Reiter [9, 10]'s Byzantine-client handling):
//
//   - 4f+1 replicas, masking quorums of 3f+1 (two quorums intersect in
//     >= 2f+1 replicas, a majority of them correct)
//   - writes trigger a server-to-server ECHO round: each replica
//     re-broadcasts 〈value, ts〉 and COMMITS only once 3f+1 distinct
//     replicas vouch for the same (ts, h) — this is what stops a
//     Byzantine client from binding two values to one timestamp
//   - reads query a quorum and return the highest-timestamp value only
//     if at least f+1 replicas vouch for it; otherwise they return NULL
//     ("weak semantics for reads ... in case of concurrent writes")
//
// The null-read behavior and the extra f replicas are exactly what
// BFT-BC's certificates eliminate; bench E10 measures both.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "crypto/nonce.h"
#include "crypto/sha256.h"
#include "quorum/config.h"
#include "quorum/statements.h"
#include "rpc/quorum_call.h"
#include "rpc/transport.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/stats.h"

namespace bftbc::baselines {

using quorum::ClientId;
using quorum::ObjectId;
using quorum::ReplicaId;
using quorum::Timestamp;

class PhalanxReplica {
 public:
  // `peer_nodes` are the other replicas' addresses for the echo round.
  PhalanxReplica(const quorum::QuorumConfig& config, ReplicaId id,
                 crypto::Keystore& keystore, rpc::Transport& transport,
                 std::vector<sim::NodeId> peer_nodes);

  ReplicaId id() const { return id_; }
  const Counters& metrics() const { return metrics_; }

  struct Committed {
    Bytes value;
    Timestamp ts;
  };
  const Committed* committed(ObjectId object) const;

 private:
  void on_envelope(sim::NodeId from, const rpc::Envelope& env);
  void start_echo(ObjectId object, const Timestamp& ts, const Bytes& value);
  void absorb_echo(ObjectId object, const Timestamp& ts, const Bytes& value,
                   ReplicaId echoer);

  quorum::QuorumConfig config_;
  ReplicaId id_;
  crypto::Keystore& keystore_;
  crypto::Signer signer_;
  rpc::Transport& transport_;
  std::vector<sim::NodeId> peer_nodes_;

  struct EchoState {
    Bytes value;
    std::set<ReplicaId> echoers;
  };
  struct ObjectData {
    Committed committed;
    // (ts, hash) -> echo progress
    std::map<std::pair<std::pair<std::uint64_t, ClientId>, Bytes>, EchoState>
        echoes;
  };
  std::map<ObjectId, ObjectData> objects_;
  Counters metrics_;
};

struct PhalanxClientOptions {
  rpc::QuorumCallOptions rpc;
};

class PhalanxClient {
 public:
  PhalanxClient(const quorum::QuorumConfig& config, ClientId id,
                crypto::Keystore& keystore, rpc::Transport& transport,
                sim::Scheduler& scheduler,
                std::vector<sim::NodeId> replica_nodes, Rng rng,
                PhalanxClientOptions options = PhalanxClientOptions());

  ~PhalanxClient();

  ClientId id() const { return id_; }

  struct WriteResult {
    Timestamp ts;
    int phases = 0;
  };
  using WriteCallback = std::function<void(Result<WriteResult>)>;
  void write(ObjectId object, Bytes value, WriteCallback cb);

  struct ReadResult {
    // nullopt models the protocol's null read (insufficient vouching for
    // the highest timestamp — incomplete or concurrent write).
    std::optional<Bytes> value;
    Timestamp ts;
    int phases = 0;
  };
  using ReadCallback = std::function<void(Result<ReadResult>)>;
  void read(ObjectId object, ReadCallback cb);

  const Counters& metrics() const { return metrics_; }

 private:
  struct Op;
  void on_envelope(sim::NodeId from, const rpc::Envelope& env);
  rpc::Envelope make_request(rpc::MsgType type, Bytes body);

  quorum::QuorumConfig config_;
  ClientId id_;
  crypto::Keystore& keystore_;
  crypto::Signer signer_;
  rpc::Transport& transport_;
  sim::Scheduler& sim_;
  std::vector<sim::NodeId> replica_nodes_;
  crypto::NonceGenerator nonces_;
  PhalanxClientOptions options_;

  std::map<std::uint64_t, std::unique_ptr<Op>> ops_;
  std::vector<std::unique_ptr<rpc::QuorumCall>> retired_;
  std::uint64_t next_op_id_ = 1;
  std::uint64_t next_rpc_id_ = 1;
  Counters metrics_;
};

}  // namespace bftbc::baselines
