// Byzantine client attack drivers (the four attacks of §3.2).
//
// These actors speak the raw wire protocol — they are not built on
// core::Client, because a Byzantine client does not follow Figure 1.
// Each implements one attack:
//
//   EquivocatorClient  — tries to associate two different values with the
//                        same timestamp (attack 1): prepares (t, h(v1))
//                        at one subset of replicas and (t, h(v2)) at the
//                        rest. With <= f accomplice replicas it cannot
//                        gather both certificates.
//   PartialWriter      — completes prepare, then installs the write at
//                        exactly one replica (attack 2), leaving the
//                        system maximally skewed.
//   TimestampHog       — floods PREPAREs with enormous timestamps not
//                        justified by any certificate (attack 3).
//   LurkingWriteStasher— prepares writes but never performs them,
//                        handing the fully signed WRITE messages to a
//                        Colluder for replay after the client stops
//                        (attack 4). Also tries to stash MORE than the
//                        protocol's bound by preparing repeatedly.
//   Colluder           — a node (not an authorized client) that stores
//                        raw signed messages and replays them on demand.
//
// Attack outcomes are observable through each actor's counters and the
// history checker; the safety tests assert the protocol confines them.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "bftbc/messages.h"
#include "rpc/quorum_call.h"
#include "rpc/transport.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/stats.h"

namespace bftbc::faults {

using core::ObjectId;
using core::PrepareCertificate;
using core::Timestamp;
using core::WriteCertificate;

// Shared plumbing: transport receive loop routing into QuorumCalls.
class AttackClientBase {
 public:
  AttackClientBase(const quorum::QuorumConfig& config, quorum::ClientId id,
                   crypto::Keystore& keystore, rpc::Transport& transport,
                   sim::Scheduler& scheduler,
                   std::vector<sim::NodeId> replica_nodes, Rng rng);
  virtual ~AttackClientBase() = default;

  quorum::ClientId id() const { return id_; }
  const Counters& metrics() const { return metrics_; }

  // Match the cluster's protocol mode: with MAC authenticators on,
  // attack requests carry them too (replicas would otherwise drop every
  // attack message as bad auth, making the attack vacuous instead of
  // confined by the protocol).
  void set_mac_auth(bool on) { mac_auth_ = on; }

 protected:
  // Request authentication per the mode: n-tag MAC authenticator or
  // signature. Empty on failure (e.g. revoked), like the sign path.
  Bytes request_auth(BytesView payload) const;

  // Phase-1 helper: fetch Pmax from a quorum (honest behavior — attacks
  // need a real certificate to anchor their mischief).
  void fetch_pmax(ObjectId object,
                  std::function<void(PrepareCertificate)> done);

  // Phase-2 helper: run PREPARE for (t, h) against `targets` and report
  // the signatures gathered (may be fewer than a quorum — the caller
  // decides what that means). Completes after `expected` acceptances or
  // `give_up_after` virtual time.
  void gather_prepares(ObjectId object, const Timestamp& t,
                       const crypto::Digest& h,
                       const PrepareCertificate& justification,
                       const std::optional<WriteCertificate>& wcert,
                       std::vector<sim::NodeId> targets,
                       std::uint32_t expected, sim::Time give_up_after,
                       std::function<void(quorum::SignatureSet)> done);

  rpc::Envelope make_request(rpc::MsgType type, Bytes body);
  core::PrepareRequest make_prepare(ObjectId object, const Timestamp& t,
                                    const crypto::Digest& h,
                                    const PrepareCertificate& justification,
                                    const std::optional<WriteCertificate>& w);
  core::WriteRequest make_write(ObjectId object, Bytes value,
                                const PrepareCertificate& pnew);

  void on_envelope(sim::NodeId from, const rpc::Envelope& env);

  quorum::QuorumConfig config_;
  quorum::ClientId id_;
  crypto::Keystore& keystore_;
  crypto::Signer signer_;
  rpc::Transport& transport_;
  sim::Scheduler& sim_;
  std::vector<sim::NodeId> replica_nodes_;
  crypto::NonceGenerator nonces_;
  Counters metrics_;

  struct PendingCall {
    std::unique_ptr<rpc::QuorumCall> call;
  };
  std::map<std::uint64_t, PendingCall> calls_;  // keyed by rpc id
  std::vector<std::unique_ptr<rpc::QuorumCall>> retired_;
  std::uint64_t next_rpc_id_ = 0x0b5e55ed;
  bool mac_auth_ = false;
};

// ---------------------------------------------------------------------

class EquivocatorClient final : public AttackClientBase {
 public:
  using AttackClientBase::AttackClientBase;

  struct Outcome {
    bool cert_v1 = false;  // gathered a full certificate for (t, v1)
    bool cert_v2 = false;  // gathered a full certificate for (t, v2)
    // Writes installed wherever a certificate was obtained.
    bool wrote_v1 = false;
    bool wrote_v2 = false;
  };

  // Attempt to bind `v1` and `v2` to the same timestamp. Splits the
  // replica group in half for the two prepares; installs whatever
  // certificates it manages to assemble.
  void attack(ObjectId object, Bytes v1, Bytes v2,
              std::function<void(Outcome)> done);
};

class PartialWriter final : public AttackClientBase {
 public:
  using AttackClientBase::AttackClientBase;

  // Prepares (honestly) then sends the WRITE to exactly one replica.
  void attack(ObjectId object, Bytes value,
              std::function<void(bool prepared)> done);
};

class TimestampHog final : public AttackClientBase {
 public:
  using AttackClientBase::AttackClientBase;

  struct Outcome {
    std::uint64_t attempts = 0;
    std::uint64_t accepted = 0;  // prepare replies for the bogus ts
  };

  // Sends PREPAREs claiming timestamps `jump` ahead of the current one,
  // with no justifying certificate (or a stale one).
  void attack(ObjectId object, std::uint64_t jump, int attempts,
              std::function<void(Outcome)> done);
};

class Colluder;

class LurkingWriteStasher final : public AttackClientBase {
 public:
  using AttackClientBase::AttackClientBase;

  struct Outcome {
    // Fully signed WRITE envelopes the bad client managed to prepare but
    // did not perform — the lurking writes.
    std::vector<rpc::Envelope> stashed;
    // The prepare certificates backing them — the currency a colluding
    // CARTEL passes along: client i+1 justifies succ(t_i) with client
    // i's certificate even though the write never happened (§7.2's
    // motivating attack on the plain protocols).
    std::vector<PrepareCertificate> certs;
    std::uint64_t prepare_attempts = 0;
  };

  // Tries to stash up to `goal` distinct lurking writes by repeatedly
  // preparing successor timestamps without ever completing a write.
  // In the base protocol at most ONE prepare can gather a certificate
  // (Lemma 1 part 2); with `use_optlist` (optimized protocol) at most
  // two. The outcome reports what was actually achieved.
  void attack(ObjectId object, int goal, bool use_optlist,
              std::function<void(Outcome)> done);

  // Cartel step: skip phase 1 and justify the prepare with a certificate
  // handed over by another colluding client. `wcert` lets the cartel try
  // the same trick against the strong variant (it will fail there: the
  // certificate must cover the justification's exact timestamp, which
  // never committed). `goal` > 1 keeps chaining off each fresh
  // certificate with NO write certificate — honest replicas refuse
  // every round after the first, so deeper chains only materialize when
  // a full quorum of equivocating replicas signs anyway.
  void attack_chained(ObjectId object, PrepareCertificate justification,
                      std::optional<WriteCertificate> wcert, int goal,
                      std::function<void(Outcome)> done);

 private:
  void try_next(ObjectId object, int goal, bool use_optlist,
                PrepareCertificate justification,
                std::optional<WriteCertificate> wcert, int round,
                std::shared_ptr<Outcome> outcome,
                std::function<void(Outcome)> done);
  void try_optlist_stash(ObjectId object, int goal,
                         std::shared_ptr<Outcome> outcome,
                         std::function<void(Outcome)> done);
};

// A machine that is NOT an authorized client: it can only replay bytes
// given to it. This is the accomplice of §3.2 attack 4.
class Colluder {
 public:
  Colluder(rpc::Transport& transport, std::vector<sim::NodeId> replica_nodes)
      : transport_(transport), replica_nodes_(std::move(replica_nodes)) {}

  void stash(rpc::Envelope env) { stash_.push_back(std::move(env)); }
  std::size_t stashed() const { return stash_.size(); }

  // Broadcast every stashed message to all replicas (optionally several
  // times to beat message loss).
  void unleash(int repetitions = 3);

 private:
  rpc::Transport& transport_;
  std::vector<sim::NodeId> replica_nodes_;
  std::deque<rpc::Envelope> stash_;
};

}  // namespace bftbc::faults
