#include "rpc/quorum_call.h"

namespace bftbc::rpc {

QuorumCall::QuorumCall(sim::Scheduler& scheduler, Transport& transport,
                       std::vector<sim::NodeId> targets, std::uint32_t quorum,
                       Envelope request, Validator validator,
                       Completion on_complete,
                       std::function<void()> on_timeout, Options options)
    : sim_(scheduler),
      transport_(transport),
      targets_(std::move(targets)),
      quorum_(quorum),
      request_(std::move(request)),
      validator_(std::move(validator)),
      on_complete_(std::move(on_complete)),
      on_timeout_(std::move(on_timeout)),
      options_(options),
      accepted_(targets_.size(), false) {
  for (std::uint32_t i = 0; i < targets_.size(); ++i) index_of_[targets_[i]] = i;
  if (options_.deadline > 0) {
    deadline_timer_ = sim_.schedule(options_.deadline, [this] {
      deadline_timer_ = 0;  // fired — this id must never be cancelled
      if (complete_) return;
      timed_out_ = true;
      sim_.cancel(retransmit_timer_);
      retransmit_timer_ = 0;
      if (on_timeout_) on_timeout_();
    });
  }
  transmit();
  arm_retransmit();
}

QuorumCall::~QuorumCall() {
  sim_.cancel(retransmit_timer_);
  sim_.cancel(deadline_timer_);
}

void QuorumCall::transmit() {
  const bool first = sends_ == 0;
  ++sends_;
  if (first && options_.initial_fanout > 0 &&
      options_.initial_fanout < targets_.size()) {
    // Preferred quorum: contact only `initial_fanout` replicas up front,
    // rotating the starting index by rpc_id so successive calls spread
    // load. Retransmissions (below) expand to everyone.
    const std::size_t n = targets_.size();
    const std::size_t start = static_cast<std::size_t>(request_.rpc_id % n);
    for (std::uint32_t k = 0; k < options_.initial_fanout; ++k) {
      transport_.send(targets_[(start + k) % n], request_);
    }
    return;
  }
  for (std::uint32_t i = 0; i < targets_.size(); ++i) {
    if (!accepted_[i]) transport_.send(targets_[i], request_);
  }
}

void QuorumCall::arm_retransmit() {
  retransmit_timer_ = sim_.schedule(options_.retransmit_period, [this] {
    retransmit_timer_ = 0;  // fired — stale until arm_retransmit rearms
    if (complete_ || timed_out_) return;
    transmit();
    arm_retransmit();
  });
}

bool QuorumCall::on_reply(sim::NodeId from, const Envelope& env) {
  if (env.rpc_id != request_.rpc_id) return false;
  auto it = index_of_.find(from);
  if (it == index_of_.end()) return false;
  // The envelope is ours even if we end up rejecting its contents; a
  // finished call (complete or timed out) claims it and does nothing.
  if (complete_ || timed_out_) return true;
  const std::uint32_t idx = it->second;
  if (accepted_[idx]) return true;  // duplicate from this replica
  if (!validator_(idx, env)) return true;
  accepted_[idx] = true;
  ++accepted_count_;
  if (accepted_count_ >= quorum_) {
    complete_ = true;
    sim_.cancel(retransmit_timer_);
    retransmit_timer_ = 0;
    sim_.cancel(deadline_timer_);
    deadline_timer_ = 0;
    if (on_complete_) on_complete_();
  }
  return true;
}

}  // namespace bftbc::rpc
