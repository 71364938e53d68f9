// SBQ-L baseline — the Martin et al. "Minimal Byzantine Storage" style
// protocol the paper analyzes at length in §8:
//
//   "They require a quorum of 2f+1 identical replies for read operations
//    to succeed, which is difficult to ensure in an asynchronous system.
//    Their solution is to assume a reliable asynchronous network model,
//    where each message is delivered to all correct replicas. This means
//    that infinite retransmission buffers are needed ... the failure of a
//    single replica (which might just have crashed) causes all messages
//    from that point on to be remembered and retransmitted. In this
//    protocol concurrent writers can slow down readers."
//
// This implementation makes those costs measurable:
//   - replicas forward every accepted write to every peer over a
//     RELIABLE link (retransmit-until-ack); `outbox_bytes()` exposes the
//     buffer a crashed peer makes grow without bound
//   - reads demand 2f+1 IDENTICAL (ts, value) replies and RE-QUERY in
//     rounds until they get them; `read_rounds` shows concurrent writers
//     slowing readers (contrast: BFT-BC reads are 1–2 phases always)
//
// Like BFT-BC it uses only 3f+1 replicas; client writes are 2 phases.
#pragma once

#include <deque>
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

class SbqlReplica {
 public:
  SbqlReplica(const quorum::QuorumConfig& config, ReplicaId id,
              crypto::Keystore& keystore, rpc::Transport& transport,
              sim::Scheduler& scheduler, std::vector<sim::NodeId> peer_nodes,
              sim::Time retransmit_period = 20 * sim::kMillisecond);
  ~SbqlReplica();

  ReplicaId id() const { return id_; }
  const Counters& metrics() const { return metrics_; }

  struct Stored {
    Bytes value;
    Timestamp ts;
  };
  const Stored* stored(ObjectId object) const;

  // Total bytes waiting in reliable-delivery outboxes — the unbounded
  // buffer §8 criticizes. Grows forever while any peer is unreachable.
  std::size_t outbox_bytes() const;
  std::size_t outbox_messages() const;

 private:
  void on_envelope(sim::NodeId from, const rpc::Envelope& env);
  void apply(ObjectId object, const Timestamp& ts, const Bytes& value);
  // Reliable forward: enqueue for every peer; retransmit until acked.
  void forward_reliably(ObjectId object, const Timestamp& ts,
                        const Bytes& value);
  void flush_outboxes();

  quorum::QuorumConfig config_;
  ReplicaId id_;
  crypto::Keystore& keystore_;
  crypto::Signer signer_;
  rpc::Transport& transport_;
  sim::Scheduler& sim_;
  std::vector<sim::NodeId> peer_nodes_;
  sim::Time retransmit_period_;
  sim::TimerId flush_timer_ = 0;

  struct PendingForward {
    std::uint64_t seq;
    Bytes payload;  // encoded envelope body
  };
  std::map<ObjectId, Stored> objects_;
  std::map<sim::NodeId, std::deque<PendingForward>> outbox_;
  std::uint64_t next_seq_ = 1;
  Counters metrics_;
};

struct SbqlClientOptions {
  rpc::QuorumCallOptions rpc;
  // Delay between read rounds when identical replies were not achieved.
  sim::Time reread_delay = 5 * sim::kMillisecond;
  int max_read_rounds = 100;
};

class SbqlClient final : public rpc::ClientEndpoint {
 public:
  SbqlClient(const quorum::QuorumConfig& config, quorum::ClientId id,
             crypto::Keystore& keystore, rpc::Transport& transport,
             sim::Scheduler& scheduler, std::vector<sim::NodeId> replica_nodes,
             Rng rng, SbqlClientOptions options = SbqlClientOptions());
  ~SbqlClient() override;

  struct WriteResult {
    Timestamp ts;
    int phases = 0;
  };
  using WriteCallback = std::function<void(Result<WriteResult>)>;
  void write(ObjectId object, Bytes value, WriteCallback cb);

  struct ReadResult {
    Bytes value;
    Timestamp ts;
    int rounds = 0;  // query rounds until 2f+1 identical replies
  };
  using ReadCallback = std::function<void(Result<ReadResult>)>;
  void read(ObjectId object, ReadCallback cb);

 private:
  struct Op;
  void start_read_round(std::uint64_t op_id);
  void on_envelope(sim::NodeId from, const rpc::Envelope& env) override;

  SbqlClientOptions options_;
  std::map<std::uint64_t, std::unique_ptr<Op>> ops_;
  std::uint64_t next_op_id_ = 1;
};

}  // namespace bftbc::baselines
