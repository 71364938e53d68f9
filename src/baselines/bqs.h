// Classic BQS baseline: the original Malkhi–Reiter Byzantine quorum
// register (paper §3.1 / [9]), WITHOUT Byzantine-client defenses, plus
// the Phalanx write-back extension for read atomicity [10].
//
//   - 3f+1 replicas, quorums of 2f+1
//   - writes: 2 phases (READ-TS to learn the highest timestamp, then
//     WRITE carrying 〈value, ts〉 signed by the client)
//   - reads: 1 phase (+ optional write-back), returning the highest
//     correctly-signed 〈value, ts〉
//
// Known weaknesses this repo uses it to demonstrate (bench E10):
//   - a Byzantine client can sign two different values for one timestamp
//     and split the replicas (readers diverge)
//   - a Byzantine client can jump the timestamp space arbitrarily
//   - nothing bounds lurking writes
// Its virtue is cost: one fewer phase per write than BFT-BC.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "crypto/nonce.h"
#include "crypto/sha256.h"
#include "quorum/config.h"
#include "quorum/statements.h"
#include "rpc/client_endpoint.h"

namespace bftbc::baselines {

using quorum::ClientId;
using quorum::ObjectId;
using quorum::ReplicaId;
using quorum::Timestamp;

// The signed unit of BQS state: 〈object, ts, h(value)〉σ_client.
Bytes bqs_value_statement(ObjectId object, const Timestamp& ts,
                          const crypto::Digest& value_hash);

struct BqsEntry {
  Bytes value;
  Timestamp ts;
  ClientId writer = 0;
  Bytes writer_sig;  // over bqs_value_statement

  [[nodiscard]] bool verify(ObjectId object, const crypto::Keystore& ks) const;
};

class BqsReplica {
 public:
  BqsReplica(const quorum::QuorumConfig& config, ReplicaId id,
             crypto::Keystore& keystore, rpc::Transport& transport);

  ReplicaId id() const { return id_; }
  const BqsEntry* find_object(ObjectId object) const;
  const Counters& metrics() const { return metrics_; }

 private:
  void on_envelope(sim::NodeId from, const rpc::Envelope& env);

  quorum::QuorumConfig config_;
  ReplicaId id_;
  crypto::Keystore& keystore_;
  crypto::Signer signer_;
  rpc::Transport& transport_;
  std::map<ObjectId, BqsEntry> objects_;
  Counters metrics_;
};

struct BqsClientOptions {
  bool write_back_reads = true;  // Phalanx-style atomicity extension
  rpc::QuorumCallOptions rpc;
  sim::Time op_deadline = 0;
};

class BqsClient final : public rpc::ClientEndpoint {
 public:
  BqsClient(const quorum::QuorumConfig& config, ClientId id,
            crypto::Keystore& keystore, rpc::Transport& transport,
            sim::Scheduler& scheduler, std::vector<sim::NodeId> replica_nodes,
            Rng rng, BqsClientOptions options = BqsClientOptions());

  ~BqsClient() override;

  struct WriteResult {
    Timestamp ts;
    int phases = 0;
  };
  using WriteCallback = std::function<void(Result<WriteResult>)>;
  void write(ObjectId object, Bytes value, WriteCallback cb);

  struct ReadResult {
    Bytes value;
    Timestamp ts;
    int phases = 0;
  };
  using ReadCallback = std::function<void(Result<ReadResult>)>;
  void read(ObjectId object, ReadCallback cb);

 private:
  struct Op;
  void on_envelope(sim::NodeId from, const rpc::Envelope& env) override;

  BqsClientOptions options_;
  std::map<std::uint64_t, std::unique_ptr<Op>> ops_;
  std::uint64_t next_op_id_ = 1;
};

// A Byzantine BQS client demonstrating the equivocation hole: signs two
// different values with the SAME timestamp and sends each to half the
// replicas. Succeeds (splits the replica state) because BQS replicas
// cannot tell — there is no prepare round.
class BqsEquivocator final : public rpc::ClientEndpoint {
 public:
  BqsEquivocator(const quorum::QuorumConfig& config, ClientId id,
                 crypto::Keystore& keystore, rpc::Transport& transport,
                 sim::Scheduler& scheduler,
                 std::vector<sim::NodeId> replica_nodes, Rng rng);

  // Fetch the max ts, then split-brain the replicas at ts+1.
  void attack(ObjectId object, Bytes v1, Bytes v2,
              std::function<void()> done);

 private:
  void on_envelope(sim::NodeId from, const rpc::Envelope& env) override;

  std::unique_ptr<rpc::QuorumCall> call_;
};

}  // namespace bftbc::baselines
