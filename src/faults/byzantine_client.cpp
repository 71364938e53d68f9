#include "faults/byzantine_client.h"

#include <algorithm>

#include "quorum/statements.h"

namespace bftbc::faults {

AttackClientBase::AttackClientBase(const quorum::QuorumConfig& config,
                                   quorum::ClientId id,
                                   crypto::Keystore& keystore,
                                   rpc::Transport& transport,
                                   sim::Scheduler& scheduler,
                                   std::vector<sim::NodeId> replica_nodes,
                                   Rng rng)
    : config_(config),
      id_(id),
      keystore_(keystore),
      signer_(keystore.register_principal(quorum::client_principal(id))),
      transport_(transport),
      sim_(scheduler),
      replica_nodes_(std::move(replica_nodes)),
      nonces_(id, rng) {
  transport_.set_receiver([this](sim::NodeId from, const rpc::Envelope& env) {
    on_envelope(from, env);
  });
}

void AttackClientBase::on_envelope(sim::NodeId from, const rpc::Envelope& env) {
  retired_.clear();
  auto it = calls_.find(env.rpc_id);
  if (it == calls_.end() || !it->second.call) return;
  it->second.call->on_reply(from, env);
}

Bytes AttackClientBase::request_auth(BytesView payload) const {
  if (mac_auth_) {
    std::vector<crypto::PrincipalId> peers;
    peers.reserve(config_.n);
    for (quorum::ReplicaId r = 0; r < config_.n; ++r) {
      peers.push_back(quorum::replica_principal(r));
    }
    auto tags = signer_.mac_authenticator(peers, payload);
    return tags.is_ok() ? std::move(tags).take() : Bytes{};
  }
  auto sig = signer_.sign(payload);
  return sig.is_ok() ? std::move(sig).take() : Bytes{};
}

rpc::Envelope AttackClientBase::make_request(rpc::MsgType type, Bytes body) {
  rpc::Envelope env;
  env.type = type;
  env.rpc_id = next_rpc_id_++;
  env.sender = quorum::client_principal(id_);
  env.body = std::move(body);
  return env;
}

core::PrepareRequest AttackClientBase::make_prepare(
    ObjectId object, const Timestamp& t, const crypto::Digest& h,
    const PrepareCertificate& justification,
    const std::optional<WriteCertificate>& w) {
  core::PrepareRequest req;
  req.object = object;
  req.t = t;
  req.hash = h;
  req.prep_cert = justification;
  req.write_cert = w;
  req.client = id_;
  req.sig = request_auth(req.signing_payload());
  return req;
}

core::WriteRequest AttackClientBase::make_write(ObjectId object, Bytes value,
                                                const PrepareCertificate& pnew) {
  core::WriteRequest req;
  req.object = object;
  req.value = std::move(value);
  req.prep_cert = pnew;
  req.client = id_;
  req.sig = request_auth(req.signing_payload());
  return req;
}

void AttackClientBase::fetch_pmax(
    ObjectId object, std::function<void(PrepareCertificate)> done) {
  core::ReadTsRequest req;
  req.object = object;
  req.nonce = nonces_.next();
  rpc::Envelope env = make_request(rpc::MsgType::kReadTs, req.encode());
  const std::uint64_t rpc_id = env.rpc_id;
  const crypto::Nonce nonce = req.nonce;

  auto pmax = std::make_shared<PrepareCertificate>(
      PrepareCertificate::genesis(object));

  // Give-up deadline: with crashed/partitioned/Byzantine replicas the
  // quorum may be unreachable for the whole run, and an attack stalled
  // in phase 1 burns the entire event budget doing nothing. Well past
  // any partition heal the attack proceeds with the best certificate
  // seen (possibly genesis); "pmax_unreachable" lets the explorer
  // classify the attack as starved rather than the run as hung.
  rpc::QuorumCallOptions qopts;
  qopts.deadline = 400 * sim::kMillisecond;

  auto finish = [this, rpc_id, pmax, done = std::move(done)](bool starved) {
    auto it = calls_.find(rpc_id);
    if (it != calls_.end()) {
      retired_.push_back(std::move(it->second.call));
      calls_.erase(it);
    }
    if (starved) metrics_.inc("pmax_unreachable");
    done(*pmax);
  };

  auto& slot = calls_[rpc_id];
  slot.call = std::make_unique<rpc::QuorumCall>(
      sim_, transport_, replica_nodes_, config_.q, std::move(env),
      [this, object, nonce, pmax](std::uint32_t idx, const rpc::Envelope& e) {
        if (e.type != rpc::MsgType::kReadTsReply) return false;
        auto m = core::ReadTsReply::decode(e.body);
        if (!m || m->object != object || m->nonce != nonce ||
            m->replica != idx) {
          return false;
        }
        if (m->pcert.object() != object ||
            !m->pcert.validate(config_, keystore_).is_ok()) {
          return false;
        }
        if (m->pcert.ts() > pmax->ts()) *pmax = m->pcert;
        return true;
      },
      [finish] { finish(false); }, [finish] { finish(true); }, qopts);
}

void AttackClientBase::gather_prepares(
    ObjectId object, const Timestamp& t, const crypto::Digest& h,
    const PrepareCertificate& justification,
    const std::optional<WriteCertificate>& wcert,
    std::vector<sim::NodeId> targets, std::uint32_t expected,
    sim::Time give_up_after, std::function<void(quorum::SignatureSet)> done) {
  core::PrepareRequest req = make_prepare(object, t, h, justification, wcert);
  rpc::Envelope env = make_request(rpc::MsgType::kPrepare, req.encode());
  const std::uint64_t rpc_id = env.rpc_id;

  auto sigs = std::make_shared<quorum::SignatureSet>();
  auto targets_copy = targets;

  auto finish = [this, rpc_id, sigs, done](bool) {
    auto it = calls_.find(rpc_id);
    if (it != calls_.end()) {
      retired_.push_back(std::move(it->second.call));
      calls_.erase(it);
    }
    done(*sigs);
  };

  rpc::QuorumCallOptions opts;
  opts.deadline = give_up_after;

  auto& slot = calls_[rpc_id];
  slot.call = std::make_unique<rpc::QuorumCall>(
      sim_, transport_, std::move(targets), expected, std::move(env),
      [this, object, t, h, sigs, targets_copy](std::uint32_t idx,
                                               const rpc::Envelope& e) {
        if (e.type != rpc::MsgType::kPrepareReply) return false;
        auto m = core::PrepareReply::decode(e.body);
        if (!m || m->object != object || m->t != t || m->hash != h)
          return false;
        // idx is an index into the target list, which may be a subset of
        // the replica group; recover the replica id from the node's
        // position in replica_nodes_, which both harnesses build in
        // replica-id order. (Node id != replica id in a sharded group.)
        const auto pos = std::find(replica_nodes_.begin(),
                                   replica_nodes_.end(), targets_copy[idx]);
        if (pos == replica_nodes_.end()) return false;
        const auto replica =
            static_cast<quorum::ReplicaId>(pos - replica_nodes_.begin());
        if (m->replica != replica) return false;
        const Bytes stmt = quorum::prepare_reply_statement(object, t, h);
        if (!keystore_.verify_cached(quorum::replica_principal(replica), stmt,
                              m->sig)) {
          return false;
        }
        (*sigs)[replica] = m->sig;
        return true;
      },
      [finish] { finish(true); }, [finish] { finish(false); }, opts);
}

// --------------------------------------------------------- Equivocator

void EquivocatorClient::attack(ObjectId object, Bytes v1, Bytes v2,
                               std::function<void(Outcome)> done) {
  fetch_pmax(object, [this, object, v1 = std::move(v1), v2 = std::move(v2),
                      done = std::move(done)](PrepareCertificate pmax) {
    const Timestamp t = pmax.ts().succ(id_);
    const crypto::Digest h1 = crypto::sha256(v1);
    const crypto::Digest h2 = crypto::sha256(v2);

    // Split the group: replica 0 (the hoped-for accomplice slot) is asked
    // to sign both; the rest are divided between the two values.
    std::vector<sim::NodeId> targets1, targets2;
    targets1.push_back(replica_nodes_[0]);
    targets2.push_back(replica_nodes_[0]);
    for (std::size_t i = 1; i < replica_nodes_.size(); ++i) {
      (i <= replica_nodes_.size() / 2 ? targets1 : targets2)
          .push_back(replica_nodes_[i]);
    }

    auto outcome = std::make_shared<Outcome>();
    auto pending = std::make_shared<int>(2);

    auto step = [this, object, t, v1, v2, h1, h2, outcome, pending,
                 done](int which, quorum::SignatureSet sigs) {
      const bool cert = sigs.size() >= config_.q;
      if (which == 1) outcome->cert_v1 = cert;
      if (which == 2) outcome->cert_v2 = cert;
      if (cert) {
        metrics_.inc("equivocation_cert");
        const crypto::Digest& h = which == 1 ? h1 : h2;
        const Bytes& v = which == 1 ? v1 : v2;
        PrepareCertificate pnew(object, t, h, sigs);
        core::WriteRequest w = make_write(object, v, pnew);
        rpc::Envelope env = make_request(rpc::MsgType::kWrite, w.encode());
        for (sim::NodeId n : replica_nodes_) transport_.send(n, env);
        if (which == 1) outcome->wrote_v1 = true;
        if (which == 2) outcome->wrote_v2 = true;
      }
      if (--*pending == 0) done(*outcome);
    };

    gather_prepares(object, t, h1, pmax, std::nullopt, targets1,
                    static_cast<std::uint32_t>(targets1.size()),
                    500 * sim::kMillisecond,
                    [step](quorum::SignatureSet s) { step(1, std::move(s)); });
    gather_prepares(object, t, h2, pmax, std::nullopt, targets2,
                    static_cast<std::uint32_t>(targets2.size()),
                    500 * sim::kMillisecond,
                    [step](quorum::SignatureSet s) { step(2, std::move(s)); });
  });
}

// --------------------------------------------------------- PartialWriter

void PartialWriter::attack(ObjectId object, Bytes value,
                           std::function<void(bool)> done) {
  fetch_pmax(object, [this, object, value = std::move(value),
                      done = std::move(done)](PrepareCertificate pmax) {
    const Timestamp t = pmax.ts().succ(id_);
    const crypto::Digest h = crypto::sha256(value);
    gather_prepares(
        object, t, h, pmax, std::nullopt, replica_nodes_, config_.q,
        2 * sim::kSecond,
        [this, object, t, h, value, done](quorum::SignatureSet sigs) {
          if (sigs.size() < config_.q) {
            done(false);
            return;
          }
          PrepareCertificate pnew(object, t, h, sigs);
          core::WriteRequest w = make_write(object, value, pnew);
          rpc::Envelope env = make_request(rpc::MsgType::kWrite, w.encode());
          // The whole point: install at exactly ONE replica.
          transport_.send(replica_nodes_[0], env);
          metrics_.inc("partial_write");
          done(true);
        });
  });
}

// --------------------------------------------------------- TimestampHog

void TimestampHog::attack(ObjectId object, std::uint64_t jump, int attempts,
                          std::function<void(Outcome)> done) {
  fetch_pmax(object, [this, object, jump, attempts,
                      done = std::move(done)](PrepareCertificate pmax) {
    auto outcome = std::make_shared<Outcome>();
    auto run = std::make_shared<std::function<void(int)>>();
    // The stored function holds only a weak self-reference; each pending
    // gather_prepares callback holds the strong one. A strong capture
    // here would be a shared_ptr cycle (run owns the lambda, the lambda
    // owns run) and leak the whole closure chain.
    *run = [this, object, jump, attempts, pmax, outcome,
            weak_run = std::weak_ptr<std::function<void(int)>>(run),
            done](int i) {
      if (i >= attempts) {
        done(*outcome);
        return;
      }
      // Timestamp far beyond anything justified — succ would be
      // pmax.val+1; this claims pmax.val + jump.
      const Timestamp bogus{pmax.ts().val + jump + i, id_};
      ++outcome->attempts;
      auto self = weak_run.lock();  // non-null: *self is executing
      gather_prepares(object, bogus, crypto::sha256(as_bytes_view("junk")),
                      pmax, std::nullopt, replica_nodes_, config_.q,
                      200 * sim::kMillisecond,
                      [outcome, self, i](quorum::SignatureSet sigs) {
                        outcome->accepted += sigs.size();
                        (*self)(i + 1);
                      });
    };
    (*run)(0);
  });
}

// --------------------------------------------------- LurkingWriteStasher

void LurkingWriteStasher::attack(ObjectId object, int goal, bool use_optlist,
                                 std::function<void(Outcome)> done) {
  auto outcome = std::make_shared<Outcome>();
  if (use_optlist) {
    // Optimized protocol: first grab an optlist slot (a certificate for
    // the predicted timestamp), then pivot to the normal list.
    try_optlist_stash(object, goal, outcome, std::move(done));
    return;
  }
  fetch_pmax(object, [this, object, goal, outcome,
                      done = std::move(done)](PrepareCertificate pmax) {
    try_next(object, goal, false, pmax, std::nullopt, 0, outcome, done);
  });
}

void LurkingWriteStasher::attack_chained(
    ObjectId object, PrepareCertificate justification,
    std::optional<WriteCertificate> wcert, int goal,
    std::function<void(Outcome)> done) {
  auto outcome = std::make_shared<Outcome>();
  try_next(object, goal, false, std::move(justification), std::move(wcert),
           0, outcome, std::move(done));
}

void LurkingWriteStasher::try_next(ObjectId object, int goal, bool use_optlist,
                                   PrepareCertificate justification,
                                   std::optional<WriteCertificate> wcert,
                                   int round, std::shared_ptr<Outcome> outcome,
                                   std::function<void(Outcome)> done) {
  if (static_cast<int>(outcome->stashed.size()) >= goal || round >= goal + 2) {
    done(*outcome);
    return;
  }
  const Timestamp t = justification.ts().succ(id_);
  const std::string marker =
      "lurk-" + std::to_string(id_) + "-" + std::to_string(round);
  const Bytes value = to_bytes(marker);
  const crypto::Digest h = crypto::sha256(value);
  ++outcome->prepare_attempts;

  gather_prepares(
      object, t, h, justification, wcert, replica_nodes_, config_.q,
      sim::kSecond,
      [this, object, goal, use_optlist, t, h, value, round, outcome,
       done](quorum::SignatureSet sigs) {
        if (sigs.size() >= config_.q) {
          PrepareCertificate pnew(object, t, h, sigs);
          core::WriteRequest w = make_write(object, value, pnew);
          outcome->stashed.push_back(
              make_request(rpc::MsgType::kWrite, w.encode()));
          outcome->certs.push_back(pnew);
          metrics_.inc("stashed_write");
          // Chain: use the fresh certificate to justify yet another
          // successor timestamp (correct replicas will refuse — the
          // Plist already holds this client's entry and no write
          // certificate can clear it).
          try_next(object, goal, use_optlist, pnew, std::nullopt, round + 1,
                   outcome, done);
        } else {
          // Correct replicas refused (Plist conflict, Lemma 1 part 2):
          // the stash cannot grow further.
          metrics_.inc("stash_refused");
          done(*outcome);
        }
      });
}

void LurkingWriteStasher::try_optlist_stash(
    ObjectId object, int goal, std::shared_ptr<Outcome> outcome,
    std::function<void(Outcome)> done) {
  // Step 1: READ-TS-PREP with a first hash — replicas that are current
  // will predict succ(pcert.ts, us) and sign (t', h_opt).
  const std::string opt_marker = "lurk-" + std::to_string(id_) + "-opt";
  const Bytes opt_value = to_bytes(opt_marker);
  const crypto::Digest h_opt = crypto::sha256(opt_value);

  core::ReadTsPrepRequest req;
  req.object = object;
  req.hash = h_opt;
  req.write_cert = std::nullopt;
  req.nonce = nonces_.next();
  req.client = id_;
  req.sig = request_auth(req.signing_payload());

  rpc::Envelope env = make_request(rpc::MsgType::kReadTsPrep, req.encode());
  const std::uint64_t rpc_id = env.rpc_id;
  const crypto::Nonce nonce = req.nonce;

  struct Harvest {
    std::map<std::pair<std::uint64_t, quorum::ClientId>, quorum::SignatureSet>
        by_ts;
    PrepareCertificate pmax;
  };
  auto harvest = std::make_shared<Harvest>();
  harvest->pmax = PrepareCertificate::genesis(object);

  rpc::QuorumCallOptions opts;
  opts.deadline = sim::kSecond;

  auto finish = [this, rpc_id, object, goal, h_opt, opt_value, outcome,
                 harvest, done](bool) {
    auto it = calls_.find(rpc_id);
    if (it != calls_.end()) {
      retired_.push_back(std::move(it->second.call));
      calls_.erase(it);
    }
    ++outcome->prepare_attempts;
    PrepareCertificate justification = harvest->pmax;
    for (const auto& [key, sigs] : harvest->by_ts) {
      if (sigs.size() >= config_.q) {
        const Timestamp t{key.first, key.second};
        PrepareCertificate pnew(object, t, h_opt, sigs);
        core::WriteRequest w = make_write(object, opt_value, pnew);
        outcome->stashed.push_back(
            make_request(rpc::MsgType::kWrite, w.encode()));
        outcome->certs.push_back(pnew);
        metrics_.inc("stashed_write");
        justification = pnew;
        break;
      }
    }
    // Step 2: pivot to the NORMAL prepare list, justified by whatever
    // certificate we hold (phase 2 ignores the optlist, so this succeeds
    // once more — the second lurking write of §6.3).
    try_next(object, goal, true, justification, std::nullopt, 1, outcome,
             done);
  };

  auto& slot = calls_[rpc_id];
  slot.call = std::make_unique<rpc::QuorumCall>(
      sim_, transport_, replica_nodes_, config_.q, std::move(env),
      [this, object, nonce, h_opt, harvest](std::uint32_t idx,
                                            const rpc::Envelope& e) {
        if (e.type != rpc::MsgType::kReadTsPrepReply) return false;
        auto m = core::ReadTsPrepReply::decode(e.body);
        if (!m || m->object != object || m->nonce != nonce ||
            m->replica != idx) {
          return false;
        }
        if (m->pcert.validate(config_, keystore_).is_ok() &&
            m->pcert.ts() > harvest->pmax.ts()) {
          harvest->pmax = m->pcert;
        }
        if (m->prepared && m->hash == h_opt) {
          const Bytes stmt =
              quorum::prepare_reply_statement(object, m->predicted_t, h_opt);
          if (keystore_.verify_cached(quorum::replica_principal(idx), stmt,
                               m->prepare_sig)) {
            harvest->by_ts[{m->predicted_t.val, m->predicted_t.id}][idx] =
                m->prepare_sig;
          }
        }
        return true;
      },
      [finish] { finish(true); }, [finish] { finish(false); }, opts);
}

// --------------------------------------------------------- Colluder

void Colluder::unleash(int repetitions) {
  for (int rep = 0; rep < repetitions; ++rep) {
    for (const rpc::Envelope& env : stash_) {
      for (sim::NodeId n : replica_nodes_) transport_.send(n, env);
    }
  }
}

}  // namespace bftbc::faults
