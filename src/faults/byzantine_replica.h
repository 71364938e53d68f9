// Byzantine replica behaviors.
//
// Each class subclasses the correct replica and perturbs its behavior at
// the message layer. The protocol must tolerate up to f of these in any
// combination: tests pair them with the linearizability checker to show
// good clients never observe an inconsistency, and with liveness tests to
// show operations still complete.
//
// Behaviors:
//   SilentReplica      — receives everything, answers nothing (fail-stop
//                        that still occupies a slot).
//   StaleReplica       — never applies writes; answers reads/phase-1 with
//                        its (stale) state. Its replies are *correctly
//                        signed* — staleness is not detectable per-reply,
//                        only masked by the quorum.
//   GarbageSigReplica  — answers with corrupted signatures/authenticators;
//                        clients must reject and treat it as silent.
//   EquivocSignReplica — signs ANY prepare request it sees, even
//                        conflicting ones (ignores its Plist). This is
//                        the helper a Byzantine client needs for the
//                        equivocation attack; with only f such replicas
//                        the attack still fails.
//   FlipValueReplica   — returns a different value than its certificate
//                        vouches for in read replies (readers must detect
//                        the hash mismatch and reject).
#pragma once

#include "bftbc/replica.h"

namespace bftbc::faults {

using core::Replica;
using core::ReplicaOptions;

class SilentReplica final : public Replica {
 public:
  using Replica::Replica;

 protected:
  void on_envelope(sim::NodeId from, const rpc::Envelope& env) override {
    (void)from;
    (void)env;
    metrics_.inc("byz_swallowed");
  }
};

class StaleReplica final : public Replica {
 public:
  using Replica::Replica;

 protected:
  void on_envelope(sim::NodeId from, const rpc::Envelope& env) override {
    // Serve phase-1 and read requests from never-updated state; swallow
    // prepare/write so its state stays at genesis forever.
    switch (env.type) {
      case rpc::MsgType::kReadTs:
      case rpc::MsgType::kRead:
        Replica::on_envelope(from, env);
        break;
      default:
        metrics_.inc("byz_swallowed");
        break;
    }
  }
};

class GarbageSigReplica final : public Replica {
 public:
  using Replica::Replica;

 protected:
  // Let the correct implementation build replies, then corrupt the bytes
  // just before they leave the node. Every reply passes through here
  // with its final bytes, signed ones after the flush's batch.
  void reply(sim::NodeId to, rpc::MsgType type, std::uint64_t rpc_id,
             Bytes body, sim::Time processing_cost) override;
};

class EquivocSignReplica final : public Replica {
 public:
  using Replica::Replica;

 protected:
  void on_envelope(sim::NodeId from, const rpc::Envelope& env) override;
};

class FlipValueReplica final : public Replica {
 public:
  using Replica::Replica;

 protected:
  void on_envelope(sim::NodeId from, const rpc::Envelope& env) override;
};

}  // namespace bftbc::faults
