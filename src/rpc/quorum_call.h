// QuorumCall: one client-side RPC phase.
//
// Sends a request to a set of replicas, retransmits periodically to the
// ones that have not yet produced an accepted reply (the paper's only
// liveness mechanism: "clients retransmit their requests ... they stop
// retransmitting once they collect a quorum of valid replies"), and
// completes when `quorum` distinct replicas' replies pass the caller's
// validator. Invalid or duplicate replies never count — a Byzantine
// replica gets at most one vote.
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "rpc/message.h"
#include "rpc/transport.h"
#include "sim/simulator.h"

namespace bftbc::rpc {

struct QuorumCallOptions {
  sim::Time retransmit_period = 20 * sim::kMillisecond;
  // 0 = no deadline (paper's protocols are live without timeouts; a
  // deadline is still useful for tests that expect failure).
  sim::Time deadline = 0;
  // Preferred-quorum fan-out: the FIRST transmission goes to only this
  // many targets (chosen round-robin from rpc_id so load spreads across
  // replicas); 0 sends to all. Every retransmission expands to all
  // not-yet-accepted targets, so liveness is untouched — one retransmit
  // period is the worst-case price when a preferred replica is down.
  std::uint32_t initial_fanout = 0;
};

class QuorumCall {
 public:
  // Validates one reply from `replica_index` (index into the target
  // list). Return true to count it toward the quorum.
  using Validator =
      std::function<bool(std::uint32_t replica_index, const Envelope& reply)>;
  using Completion = std::function<void()>;

  using Options = QuorumCallOptions;

  QuorumCall(sim::Scheduler& scheduler, Transport& transport,
             std::vector<sim::NodeId> targets, std::uint32_t quorum,
             Envelope request, Validator validator, Completion on_complete,
             std::function<void()> on_timeout = nullptr,
             Options options = Options());
  ~QuorumCall();

  QuorumCall(const QuorumCall&) = delete;
  QuorumCall& operator=(const QuorumCall&) = delete;

  // Route a reply into this call. Returns true if the envelope belonged
  // to this call (matching rpc id and a known sender node).
  bool on_reply(sim::NodeId from, const Envelope& env);

  bool complete() const { return complete_; }
  std::uint64_t rpc_id() const { return request_.rpc_id; }
  std::uint32_t accepted_count() const { return accepted_count_; }
  // How many (re)transmissions of the request have gone out in total.
  std::uint64_t sends() const { return sends_; }

  // Replicas (by index) whose replies were accepted.
  const std::vector<bool>& accepted() const { return accepted_; }

  // Timer-id hygiene, exposed so tests can pin the contract: a fired or
  // cancelled timer's stored id is zeroed and never cancelled again (the
  // holder's half of sim::Scheduler's contract).
  sim::TimerId retransmit_timer_id() const { return retransmit_timer_; }
  sim::TimerId deadline_timer_id() const { return deadline_timer_; }

 private:
  void transmit();
  void arm_retransmit();

  sim::Scheduler& sim_;
  Transport& transport_;
  std::vector<sim::NodeId> targets_;
  std::map<sim::NodeId, std::uint32_t> index_of_;
  std::uint32_t quorum_;
  Envelope request_;
  Validator validator_;
  Completion on_complete_;
  std::function<void()> on_timeout_;
  Options options_;

  std::vector<bool> accepted_;
  std::uint32_t accepted_count_ = 0;
  bool complete_ = false;
  bool timed_out_ = false;
  std::uint64_t sends_ = 0;
  sim::TimerId retransmit_timer_ = 0;
  sim::TimerId deadline_timer_ = 0;
};

}  // namespace bftbc::rpc
