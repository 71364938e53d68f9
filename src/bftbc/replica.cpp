#include "bftbc/replica.h"

#include <algorithm>

#include "quorum/statements.h"
#include "util/log.h"

namespace bftbc::core {

Replica::Replica(const quorum::QuorumConfig& config, ReplicaId id,
                 crypto::Keystore& keystore, rpc::Transport& transport,
                 sim::Scheduler& scheduler, ReplicaOptions options)
    : config_(config),
      id_(id),
      keystore_(keystore),
      signer_(keystore.register_principal(quorum::replica_principal(id))),
      transport_(transport),
      sim_(scheduler),
      options_(options) {
  transport_.set_receiver([this](sim::NodeId from, const rpc::Envelope& env) {
    deliver(from, env);
  });
  if (options_.registry != nullptr) {
    metrics::MetricsRegistry& r = *options_.registry;
    metrics::MetricsRegistry::Scope scope = r.scoped(
        options_.metrics_scope.empty() ? "replica/" + std::to_string(id_)
                                       : options_.metrics_scope);
    grants_ = &scope.counter("grants");
    rejects_ = &scope.counter("rejects");
    resident_gauge_ = &scope.gauge("resident_objects");
    plist_size_ = &r.histogram("replica.plist_size");
    optlist_size_ = &r.histogram("replica.optlist_size");
  }
}

Replica::~Replica() {
  // A pending flush captures `this`; never let it fire into a dead
  // replica if the simulator outlives us.
  if (flush_scheduled_) sim_.cancel(flush_timer_);
}

void Replica::deliver(sim::NodeId from, const rpc::Envelope& env) {
  pending_batch_.push_back(PendingEnvelope{from, env});
  if (!flush_scheduled_) {
    flush_scheduled_ = true;
    // Delay 0 fires after every delivery already queued for this instant
    // (the simulator breaks timestamp ties FIFO), so one flush drains
    // the whole tick's arrivals — deterministically, keyed to sim time.
    flush_timer_ = sim_.schedule(0, [this] { flush_batch(); });
  }
}

void Replica::flush_batch() {
  flush_scheduled_ = false;
  std::vector<PendingEnvelope> batch;
  batch.swap(pending_batch_);
  if (batch.empty()) return;

  metrics_.inc("batch_flushes");
  metrics_.inc("batch_verify_msgs", batch.size());

  // Pre-verification: one sorted, cache-aware keystore pass over every
  // signature the batch will need. The handlers below still route their
  // checks through verify_cached and now hit the warmed cache — the
  // accept/reject decisions are bit-identical to per-message processing.
  std::vector<crypto::Keystore::VerifyItem> items;
  for (const PendingEnvelope& p : batch) collect_verify_items(p.env, items);
  if (!items.empty()) {
    metrics_.inc("batch_verify_sigs", keystore_.verify_batch(items));
  }

  // Reply-signing amortization: when one node contributed two or more
  // point-to-point-authenticated requests to this batch, the replies to
  // it are captured and shipped as a single ReplyBatch under one
  // authenticator (handlers skip the per-reply MAC for those).
  batch_auth_counts_.clear();
  batch_auth_principal_.clear();
  for (const PendingEnvelope& p : batch) {
    switch (p.env.type) {
      case rpc::MsgType::kReadTs:
      case rpc::MsgType::kRead:
        ++batch_auth_counts_[p.from];
        batch_auth_principal_[p.from] = p.env.sender;
        break;
      case rpc::MsgType::kReadTsPrep:
        if (options_.optimized) {
          ++batch_auth_counts_[p.from];
          batch_auth_principal_[p.from] = p.env.sender;
        }
        break;
      default:
        // Only the client request types above contribute to the batch
        // reply-auth accounting; everything else in the batch is
        // dispatched unchanged by on_envelope below.
        break;
    }
  }

  collecting_replies_ = true;
  current_batch_size_ = batch.size();
  for (const PendingEnvelope& p : batch) on_envelope(p.from, p.env);
  current_batch_size_ = 0;
  collecting_replies_ = false;
  flush_replies();
  batch_auth_counts_.clear();
  batch_auth_principal_.clear();
}

bool Replica::amortized_auth_for(sim::NodeId to) const {
  if (!collecting_replies_) return false;
  auto it = batch_auth_counts_.find(to);
  return it != batch_auth_counts_.end() && it->second >= 2;
}

void Replica::flush_replies() {
  if (pending_replies_.empty()) return;
  std::map<sim::NodeId, std::vector<PendingReply>> by_dest;
  for (PendingReply& p : pending_replies_) {
    by_dest[p.to].push_back(std::move(p));
  }
  pending_replies_.clear();
  for (auto& [to, group] : by_dest) {
    ReplyBatch rb;
    rb.replica = id_;
    sim::Time cost = 0;
    for (const PendingReply& p : group) {
      rb.replies.push_back(p.env.encode());
      cost = std::max(cost, p.cost);
    }
    rb.auth = p2p_auth(batch_auth_principal_[to], rb.signing_payload(), cost);
    metrics_.inc("reply_batches");
    rpc::Envelope env;
    env.type = rpc::MsgType::kReplyBatch;
    env.sender = quorum::replica_principal(id_);
    env.body = rb.encode();
    const sim::Time delay = charge_processing(cost);
    if (delay == 0) {
      transport_.send(to, env);
    } else {
      sim_.schedule(delay,
                    [this, to, env = std::move(env)] { transport_.send(to, env); });
    }
  }
}

void Replica::collect_verify_items(
    const rpc::Envelope& env,
    std::vector<crypto::Keystore::VerifyItem>& items) const {
  auto add = [&items](crypto::PrincipalId principal, Bytes stmt, Bytes sig) {
    crypto::Keystore::VerifyItem item;
    item.principal = principal;
    item.statement = std::move(stmt);
    item.sig = std::move(sig);
    items.push_back(std::move(item));
  };
  auto add_client_sig = [&](quorum::ClientId client, Bytes payload,
                            const Bytes& sig) {
    // MAC authenticators are checked inline by verify_client_sig (a
    // cheap HMAC slice, nothing to pre-warm or cache).
    if (options_.mac_auth) return;
    if (quorum::is_replica_principal(client)) return;
    add(quorum::client_principal(client), std::move(payload), sig);
  };
  auto add_prep_cert = [&](const PrepareCertificate& cert) {
    if (cert.is_genesis()) return;
    const Bytes stmt =
        quorum::prepare_reply_statement(cert.object(), cert.ts(), cert.hash());
    for (const auto& [replica, sig] : cert.signatures()) {
      if (!config_.valid_replica(replica)) continue;
      add(quorum::replica_principal(replica), stmt, sig);
    }
  };
  auto add_write_cert = [&](const WriteCertificate& cert) {
    const Bytes stmt = quorum::write_reply_statement(cert.object(), cert.ts());
    for (const auto& [replica, sig] : cert.signatures()) {
      if (!config_.valid_replica(replica)) continue;
      add(quorum::replica_principal(replica), stmt, sig);
    }
  };

  switch (env.type) {
    case rpc::MsgType::kPrepare: {
      auto req = PrepareRequest::decode(env.body);
      if (!req.has_value()) return;
      add_client_sig(req->client, req->signing_payload(), req->sig);
      add_prep_cert(req->prep_cert);
      if (req->write_cert.has_value()) add_write_cert(*req->write_cert);
      break;
    }
    case rpc::MsgType::kWrite: {
      auto req = WriteRequest::decode(env.body);
      if (!req.has_value()) return;
      add_client_sig(req->client, req->signing_payload(), req->sig);
      add_prep_cert(req->prep_cert);
      break;
    }
    case rpc::MsgType::kRead: {
      auto req = ReadRequest::decode(env.body);
      if (!req.has_value()) return;
      if (req->write_cert.has_value()) add_write_cert(*req->write_cert);
      break;
    }
    case rpc::MsgType::kReadTsPrep: {
      if (!options_.optimized) return;
      auto req = ReadTsPrepRequest::decode(env.body);
      if (!req.has_value()) return;
      add_client_sig(req->client, req->signing_payload(), req->sig);
      if (req->write_cert.has_value()) add_write_cert(*req->write_cert);
      break;
    }
    default:
      // READ-TS and unknown types verify nothing up front.
      break;
  }
}

void Replica::granted(const char* counter) {
  metrics_.inc(counter);
  if (grants_ != nullptr) grants_->inc();
}

void Replica::dropped(const char* counter) {
  metrics_.inc(counter);
  if (rejects_ != nullptr) rejects_->inc();
}

void Replica::record_list_sizes(const ObjectState& state) {
  if (plist_size_ != nullptr) {
    plist_size_->add(static_cast<std::int64_t>(state.plist().size()));
  }
  if (optlist_size_ != nullptr && options_.optimized) {
    optlist_size_->add(static_cast<std::int64_t>(state.optlist().size()));
  }
}

void Replica::touch_lru(ObjectId id) {
  if (options_.max_resident_objects == 0) return;
  auto pos = lru_pos_.find(id);
  if (pos != lru_pos_.end()) lru_.erase(pos->second);
  lru_.push_front(id);
  lru_pos_[id] = lru_.begin();
}

void Replica::enforce_resident_cap(ObjectId keep) {
  const std::size_t cap = options_.max_resident_objects;
  if (cap == 0) return;
  while (objects_.size() > cap && !lru_.empty()) {
    // Coldest first; never the object the current handler holds a
    // reference to.
    ObjectId victim = lru_.back();
    if (victim == keep) {
      if (lru_.size() < 2) break;
      victim = *std::next(lru_.rbegin());
    }
    auto it = objects_.find(victim);
    if (it != objects_.end()) {
      Writer w;
      it->second.encode(w);
      cold_store_[victim] = std::move(w).take();
      objects_.erase(it);
      metrics_.inc("objects_evicted");
    }
    auto pos = lru_pos_.find(victim);
    if (pos != lru_pos_.end()) {
      lru_.erase(pos->second);
      lru_pos_.erase(pos);
    }
  }
  if (resident_gauge_ != nullptr) {
    resident_gauge_->set(static_cast<double>(objects_.size()));
  }
}

ObjectState& Replica::object(ObjectId id) {
  auto it = objects_.find(id);
  if (it == objects_.end()) {
    auto cold = cold_store_.find(id);
    if (cold != cold_store_.end()) {
      Reader r(cold->second);
      std::optional<ObjectState> state = ObjectState::decode(r);
      // The store only ever holds blobs this replica encoded itself, so
      // a decode failure is a harness bug; fall back to a fresh object
      // rather than crash (the write certificate chain re-establishes
      // state via the protocol).
      if (state.has_value() && r.done()) {
        it = objects_.emplace(id, std::move(*state)).first;
        metrics_.inc("objects_reloaded");
      }
      cold_store_.erase(cold);
    }
    if (it == objects_.end()) {
      it = objects_.emplace(id, ObjectState(id)).first;
    }
    touch_lru(id);
    enforce_resident_cap(id);
  } else {
    touch_lru(id);
  }
  return it->second;
}

void Replica::absorb_and_gc(ObjectState& state, const Timestamp& wcert_ts) {
  const std::size_t reclaimed = state.absorb_write_certificate(wcert_ts);
  if (reclaimed != 0) metrics_.inc("gc_reclaimed", reclaimed);
  state.compact();
  // Precomputed WRITE-REPLY signatures at or below the certified
  // timestamp can never be needed again: the certificate proves those
  // writes completed, and write_ts now rejects their prepares anyway.
  const ObjectId object = state.object();
  const auto begin = write_sig_cache_.lower_bound(
      std::make_pair(object, std::make_pair(std::uint64_t{0}, ClientId{0})));
  std::size_t dropped_sigs = 0;
  for (auto it = begin;
       it != write_sig_cache_.end() && it->first.first == object;) {
    const Timestamp ts{it->first.second.first, it->first.second.second};
    if (ts <= state.write_ts()) {
      it = write_sig_cache_.erase(it);
      ++dropped_sigs;
    } else {
      ++it;
    }
  }
  if (dropped_sigs != 0) metrics_.inc("sig_cache_gc", dropped_sigs);
}

const ObjectState* Replica::find_object(ObjectId id) const {
  auto it = objects_.find(id);
  return it == objects_.end() ? nullptr : &it->second;
}

void Replica::on_envelope(sim::NodeId from, const rpc::Envelope& env) {
  // A recovering replica must not serve the client protocol: granting a
  // prepare before its prepare lists are rebuilt could conflict with a
  // forgotten entry (the Lemma 1 memory recovery exists to restore).
  // State-transfer traffic still flows — serving snapshots to OTHER
  // recovering peers is safe (its snapshot is merely conservative), and
  // its own recovery replies must get through. Clients retransmit, so a
  // dropped request costs latency, not liveness.
  if (!recovery_calls_.empty() && env.type != rpc::MsgType::kStateXfer &&
      env.type != rpc::MsgType::kStateXferReply) {
    dropped("drop_recovering");
    return;
  }
  switch (env.type) {
    case rpc::MsgType::kReadTs:
      handle_read_ts(from, env);
      break;
    case rpc::MsgType::kPrepare:
      handle_prepare(from, env);
      break;
    case rpc::MsgType::kWrite:
      handle_write(from, env);
      break;
    case rpc::MsgType::kRead:
      handle_read(from, env);
      break;
    case rpc::MsgType::kReadTsPrep:
      if (options_.optimized) handle_read_ts_prep(from, env);
      break;
    case rpc::MsgType::kStateXfer:
      handle_state_xfer(from, env);
      break;
    case rpc::MsgType::kStateXferReply:
      route_recovery_reply(from, env);
      break;
    default:
      dropped("drop_unknown_type");
      break;
  }
}

sim::Time Replica::charge_processing(sim::Time cost) {
  if (!options_.serialize_processing) return cost;
  const sim::Time now = sim_.now();
  const sim::Time start = std::max(now, busy_until_);
  busy_until_ = start + cost;
  return busy_until_ - now;
}

void Replica::reply(sim::NodeId to, rpc::MsgType type, std::uint64_t rpc_id,
                    Bytes body, sim::Time processing_cost) {
  // Replies emitted while dispatching a multi-message batch shared one
  // verification pass; "batched_replies" measures that amortization.
  if (current_batch_size_ >= 2) metrics_.inc("batched_replies");
  rpc::Envelope env;
  env.type = type;
  env.rpc_id = rpc_id;
  env.sender = quorum::replica_principal(id_);
  env.body = std::move(body);
  // Replies whose per-reply authenticator was amortized away travel in
  // the batch's single ReplyBatch instead of as individual messages.
  if (amortized_auth_for(to) && (type == rpc::MsgType::kReadTsReply ||
                                 type == rpc::MsgType::kReadReply ||
                                 type == rpc::MsgType::kReadTsPrepReply)) {
    pending_replies_.push_back(
        PendingReply{to, std::move(env), processing_cost});
    return;
  }
  const sim::Time delay = charge_processing(processing_cost);
  if (delay == 0) {
    transport_.send(to, env);
  } else {
    sim_.schedule(delay,
                  [this, to, env = std::move(env)] { transport_.send(to, env); });
  }
}

Bytes Replica::sign_statement_foreground(BytesView stmt, sim::Time& cost) {
  metrics_.inc("sig_foreground");
  cost += options_.sign_cost;
  auto sig = signer_.sign(stmt);
  return sig.is_ok() ? std::move(sig).take() : Bytes{};
}

Bytes Replica::p2p_auth(crypto::PrincipalId to, BytesView payload,
                        sim::Time& cost) {
  // Point-to-point authenticator (§3.3.2); charged as negligible
  // virtual time either way — mac_auth additionally removes the real
  // public-key work in kRsa deployments.
  metrics_.inc("auth_p2p");
  (void)cost;
  auto sig = options_.mac_auth ? signer_.mac(to, payload)
                               : signer_.sign(payload);
  return sig.is_ok() ? std::move(sig).take() : Bytes{};
}

Bytes Replica::write_sig_for(ObjectId object, const Timestamp& ts,
                             sim::Time& cost) {
  const auto key = std::make_pair(object, std::make_pair(ts.val, ts.id));
  auto it = write_sig_cache_.find(key);
  if (it != write_sig_cache_.end()) {
    metrics_.inc("sig_background_hit");
    return it->second;
  }
  return sign_statement_foreground(
      quorum::write_reply_statement(object, ts), cost);
}

bool Replica::verify_client_sig(quorum::ClientId client, BytesView payload,
                                BytesView sig, sim::Time& cost) {
  metrics_.inc("verify_client");
  if (quorum::is_replica_principal(client)) return false;
  if (options_.mac_auth) {
    // The request carries an n-tag authenticator; this replica checks
    // its own slice. No verify_cost charge — that is the point of the
    // paper's MAC cost model.
    constexpr std::size_t kTag = crypto::Keystore::kMacSize;
    if (sig.size() != static_cast<std::size_t>(config_.n) * kTag) return false;
    return keystore_.mac_check(quorum::client_principal(client),
                               quorum::replica_principal(id_), payload,
                               sig.subspan(id_ * kTag, kTag));
  }
  cost += options_.verify_cost;
  return keystore_.verify_cached(quorum::client_principal(client), payload, sig);
}

bool Replica::valid_prepare_cert(const PrepareCertificate& cert,
                                 ObjectId object, sim::Time& cost) {
  if (cert.object() != object) return false;
  // Verifying a certificate = up to q signature verifications.
  cost += options_.verify_cost * cert.signatures().size();
  metrics_.inc("verify_cert");
  return cert.validate(config_, keystore_).is_ok();
}

bool Replica::valid_write_cert(const WriteCertificate& cert, ObjectId object,
                               sim::Time& cost) {
  if (cert.object() != object) return false;
  cost += options_.verify_cost * cert.signatures().size();
  metrics_.inc("verify_cert");
  return cert.validate(config_, keystore_).is_ok();
}

// ------------------------------------------------------------ phase 1

void Replica::handle_read_ts(sim::NodeId from, const rpc::Envelope& env) {
  auto req = ReadTsRequest::decode(env.body);
  if (!req.has_value()) {
    dropped("drop_malformed");
    return;
  }
  ObjectState& state = object(req->object);
  sim::Time cost = 0;

  ReadTsReply rep;
  rep.object = req->object;
  rep.nonce = req->nonce;
  rep.pcert = state.pcert();
  if (options_.strong) {
    // §7: phase-1 reply doubles as a write-certificate component for the
    // replica's current timestamp.
    rep.strong_write_sig = sign_statement_foreground(
        quorum::write_reply_statement(req->object, state.pcert().ts()), cost);
  }
  rep.replica = id_;
  if (amortized_auth_for(from)) {
    metrics_.inc("auth_p2p_amortized");
  } else {
    rep.auth = p2p_auth(env.sender, rep.signing_payload(), cost);
  }

  granted("reply_read_ts");
  reply(from, rpc::MsgType::kReadTsReply, env.rpc_id, rep.encode(), cost);
}

// ------------------------------------------------------------ phase 2

void Replica::handle_prepare(sim::NodeId from, const rpc::Envelope& env) {
  auto req = PrepareRequest::decode(env.body);
  if (!req.has_value()) {
    dropped("drop_malformed");
    return;
  }
  ObjectState& state = object(req->object);
  sim::Time cost = 0;

  // Figure 2 phase 2 step 1: authentication and certificate checks; the
  // request is discarded (no reply) on any failure. New writes are
  // gated by the ACL; WRITE itself is not (a valid prepare certificate
  // proves a then-authorized client prepared it — and a write-back /
  // colluder replay carries exactly such a certificate).
  if (!is_authorized(req->client)) {
    dropped("drop_unauthorized");
    return;
  }
  if (!verify_client_sig(req->client, req->signing_payload(), req->sig,
                         cost)) {
    dropped("drop_bad_auth");
    return;
  }
  if (!valid_prepare_cert(req->prep_cert, req->object, cost)) {
    dropped("drop_bad_cert");
    return;
  }
  if (req->write_cert.has_value() &&
      !valid_write_cert(*req->write_cert, req->object, cost)) {
    dropped("drop_bad_cert");
    return;
  }
  // t must be the successor of the justifying certificate's timestamp —
  // this is what makes timestamp-space exhaustion impossible (§3.2).
  if (req->t != req->prep_cert.ts().succ(req->client)) {
    dropped("drop_bad_ts");
    return;
  }
  if (options_.strong) {
    // §7.2: the proposed timestamp must succeed a *completed* write,
    // proven by a write certificate for the predecessor timestamp.
    if (!req->write_cert.has_value() ||
        req->write_cert->ts() != req->prep_cert.ts()) {
      dropped("drop_strong_no_wcert");
      return;
    }
  }

  // Step 2: absorb the client's write certificate (GC of prepare lists).
  if (req->write_cert.has_value()) {
    absorb_and_gc(state, req->write_cert->ts());
  }

  // Steps 3–4: Plist admission.
  if (!state.try_prepare(req->client, req->t, req->hash)) {
    dropped("drop_plist_conflict");
    return;
  }
  record_list_sizes(state);

  // Step 5: reply with the signed PREPARE-REPLY statement.
  PrepareReply rep;
  rep.object = req->object;
  rep.t = req->t;
  rep.hash = req->hash;
  rep.replica = id_;
  rep.sig = sign_statement_foreground(
      quorum::prepare_reply_statement(req->object, req->t, req->hash), cost);

  if (options_.background_write_sigs) {
    // §3.3.2: precompute the phase-3 response signature now, off the
    // critical path, so the WRITE reply is immediate.
    const auto key = std::make_pair(
        req->object, std::make_pair(req->t.val, req->t.id));
    if (write_sig_cache_.find(key) == write_sig_cache_.end()) {
      auto sig = signer_.sign(
          quorum::write_reply_statement(req->object, req->t));
      if (sig.is_ok()) {
        write_sig_cache_[key] = std::move(sig).take();
        metrics_.inc("sig_background");
      }
    }
  }

  granted("reply_prepare");
  reply(from, rpc::MsgType::kPrepareReply, env.rpc_id, rep.encode(), cost);
}

// ------------------------------------------------------------ phase 3

void Replica::handle_write(sim::NodeId from, const rpc::Envelope& env) {
  auto req = WriteRequest::decode(env.body);
  if (!req.has_value()) {
    dropped("drop_malformed");
    return;
  }
  ObjectState& state = object(req->object);
  sim::Time cost = 0;

  // Figure 2 phase 3 step 1.
  if (!verify_client_sig(req->client, req->signing_payload(), req->sig,
                         cost)) {
    dropped("drop_bad_auth");
    return;
  }
  if (!valid_prepare_cert(req->prep_cert, req->object, cost)) {
    dropped("drop_bad_cert");
    return;
  }
  if (req->prep_cert.hash() != crypto::sha256(req->value)) {
    dropped("drop_hash_mismatch");
    return;
  }

  // Step 2 (+ §6.2 tiebreak in optimized mode). An equal-timestamp
  // overwrite means the larger-hash tiebreak actually decided — only a
  // Byzantine client can produce two certified values at one timestamp,
  // so the counter doubles as a coverage signal for the explorer.
  const bool tiebreak = options_.optimized &&
                        req->prep_cert.ts() == state.pcert().ts() &&
                        !state.pcert().is_genesis();
  const bool overwrote =
      state.apply_write(req->value, req->prep_cert, options_.optimized);
  if (overwrote) metrics_.inc("state_overwritten");
  if (overwrote && tiebreak) metrics_.inc("opt_tiebreak_overwrite");

  // Step 3.
  WriteReply rep;
  rep.object = req->object;
  rep.ts = req->prep_cert.ts();
  rep.replica = id_;
  rep.sig = options_.background_write_sigs
                ? write_sig_for(req->object, rep.ts, cost)
                : sign_statement_foreground(
                      quorum::write_reply_statement(req->object, rep.ts),
                      cost);

  granted("reply_write");
  reply(from, rpc::MsgType::kWriteReply, env.rpc_id, rep.encode(), cost);
}

// ------------------------------------------------------------ read

void Replica::handle_read(sim::NodeId from, const rpc::Envelope& env) {
  auto req = ReadRequest::decode(env.body);
  if (!req.has_value()) {
    dropped("drop_malformed");
    return;
  }
  ObjectState& state = object(req->object);
  sim::Time cost = 0;

  // §3.3.1 speed-up: a write certificate piggybacked on a read GCs the
  // prepare lists just like one arriving in phase 2. Invalid certs are
  // ignored (the read itself is still served — reads are answered
  // unconditionally).
  if (req->write_cert.has_value() &&
      valid_write_cert(*req->write_cert, req->object, cost)) {
    absorb_and_gc(state, req->write_cert->ts());
    metrics_.inc("gc_via_read");
  }

  ReadReply rep;
  rep.object = req->object;
  rep.value = state.data();
  rep.pcert = state.pcert();
  rep.nonce = req->nonce;
  rep.replica = id_;
  if (amortized_auth_for(from)) {
    metrics_.inc("auth_p2p_amortized");
  } else {
    rep.auth = p2p_auth(env.sender, rep.signing_payload(), cost);
  }

  granted("reply_read");
  reply(from, rpc::MsgType::kReadReply, env.rpc_id, rep.encode(), cost);
}

// ----------------------------------- crash recovery (state transfer)

void Replica::handle_state_xfer(sim::NodeId from, const rpc::Envelope& env) {
  auto req = StateXferRequest::decode(env.body);
  if (!req.has_value()) {
    dropped("drop_malformed");
    return;
  }
  ObjectState& state = object(req->object);

  StateXferReply rep;
  rep.object = req->object;
  rep.nonce = req->nonce;
  Writer w;
  state.encode(w);
  rep.state = std::move(w).take();
  rep.replica = id_;

  // No crypto cost: the snapshot is validated by the requester (the
  // certificate inside is the proof), not vouched for by this carrier.
  granted("reply_state_xfer");
  reply(from, rpc::MsgType::kStateXferReply, env.rpc_id, rep.encode(), 0);
}

void Replica::route_recovery_reply(sim::NodeId from, const rpc::Envelope& env) {
  // No QuorumCall frame is active on entry, so parked calls can die now
  // (same lifetime pattern as rpc::ClientEndpoint::retired_).
  retired_recovery_calls_.clear();
  for (auto& [rpc_id, rc] : recovery_calls_) {
    if (rc.call && rc.call->on_reply(from, env)) return;
  }
  metrics_.inc("state_xfer_reply_stray");
}

void Replica::begin_recovery(const std::vector<ObjectId>& objects,
                             std::vector<sim::NodeId> peer_nodes,
                             RecoveryDone on_done) {
  recovery_done_ = std::move(on_done);
  if (objects.empty()) {
    if (recovery_done_) {
      RecoveryDone done = std::move(recovery_done_);
      recovery_done_ = nullptr;
      done();
    }
    return;
  }
  for (ObjectId obj : objects) {
    const std::uint64_t rpc_id = next_recovery_rpc_++;
    RecoveryCall& rc = recovery_calls_[rpc_id];
    rc.object = obj;
    rc.nonce =
        crypto::Nonce{quorum::replica_principal(id_), rpc_id, /*random=*/0};

    StateXferRequest req;
    req.object = obj;
    req.nonce = rc.nonce;
    rpc::Envelope env;
    env.type = rpc::MsgType::kStateXfer;
    env.rpc_id = rpc_id;
    env.sender = quorum::replica_principal(id_);
    env.body = req.encode();

    auto validator = [this, rpc_id](std::uint32_t idx,
                                    const rpc::Envelope& rep_env) {
      auto it = recovery_calls_.find(rpc_id);
      if (it == recovery_calls_.end()) return false;
      RecoveryCall& call = it->second;
      auto rep = StateXferReply::decode(rep_env.body);
      if (!rep.has_value() || rep->object != call.object ||
          rep->nonce != call.nonce) {
        metrics_.inc("state_xfer_reply_invalid");
        return false;
      }
      Reader r(rep->state);
      std::optional<ObjectState> snap = ObjectState::decode(r);
      if (!snap.has_value() || !r.done() || snap->object() != call.object ||
          snap->pcert().object() != call.object) {
        metrics_.inc("state_xfer_reply_invalid");
        return false;
      }
      // The snapshot's certificate is the proof of its value: a genesis
      // cert must carry the empty value, anything else must validate
      // and cover the value's hash. List entries need no proof here —
      // ObjectState::recover only lets them make this replica refuse
      // conservatively.
      if (snap->pcert().is_genesis()) {
        if (!snap->data().empty()) {
          metrics_.inc("state_xfer_reply_invalid");
          return false;
        }
      } else {
        if (!snap->pcert().validate(config_, keystore_).is_ok() ||
            crypto::compare_digests(crypto::sha256(snap->data()),
                                    snap->pcert().hash()) != 0) {
          metrics_.inc("state_xfer_reply_invalid");
          return false;
        }
      }
      call.snapshots.emplace(idx, std::move(*snap));
      return true;
    };

    auto on_complete = [this, rpc_id]() {
      auto it = recovery_calls_.find(rpc_id);
      if (it == recovery_calls_.end()) return;
      RecoveryCall& call = it->second;
      std::vector<ObjectState> snaps;
      snaps.reserve(call.snapshots.size());
      for (auto& [idx, s] : call.snapshots) snaps.push_back(std::move(s));
      const ObjectId obj = call.object;
      ObjectState rebuilt = ObjectState::recover(obj, snaps, config_.f);
      objects_.insert_or_assign(obj, std::move(rebuilt));
      cold_store_.erase(obj);
      touch_lru(obj);
      enforce_resident_cap(obj);
      metrics_.inc("state_recovered_objects");
      // Park the finished call: we are inside its on_reply frame.
      retired_recovery_calls_.push_back(std::move(call.call));
      recovery_calls_.erase(it);
      if (recovery_calls_.empty() && recovery_done_) {
        RecoveryDone done = std::move(recovery_done_);
        recovery_done_ = nullptr;
        done();
      }
    };

    metrics_.inc("state_xfer_sent");
    rc.call = std::make_unique<rpc::QuorumCall>(
        sim_, transport_, peer_nodes, config_.q, std::move(env),
        std::move(validator), std::move(on_complete));
  }
}

// ------------------------------------------------ optimized phase 1 (§6.2)

void Replica::handle_read_ts_prep(sim::NodeId from, const rpc::Envelope& env) {
  auto req = ReadTsPrepRequest::decode(env.body);
  if (!req.has_value()) {
    dropped("drop_malformed");
    return;
  }
  ObjectState& state = object(req->object);
  sim::Time cost = 0;

  if (!is_authorized(req->client)) {
    dropped("drop_unauthorized");
    return;
  }
  if (!verify_client_sig(req->client, req->signing_payload(), req->sig,
                         cost)) {
    dropped("drop_bad_auth");
    return;
  }
  if (req->write_cert.has_value()) {
    if (!valid_write_cert(*req->write_cert, req->object, cost)) {
      dropped("drop_bad_cert");
      return;
    }
    absorb_and_gc(state, req->write_cert->ts());
  }

  ReadTsPrepReply rep;
  rep.object = req->object;
  rep.nonce = req->nonce;
  rep.pcert = state.pcert();
  rep.replica = id_;

  // In strong mode the optimistic prediction is only sound when anchored
  // to a committed write: the client's certificate must cover this
  // replica's current timestamp (otherwise fall back to phase 2, where
  // the §7.2 checks apply).
  const bool strong_ok =
      !options_.strong || (req->write_cert.has_value() &&
                           req->write_cert->ts() == state.pcert().ts());

  std::optional<Timestamp> predicted;
  if (strong_ok) predicted = state.try_opt_prepare(req->client, req->hash);
  record_list_sizes(state);

  if (predicted.has_value()) {
    rep.prepared = true;
    rep.predicted_t = *predicted;
    rep.hash = req->hash;
    rep.prepare_sig = sign_statement_foreground(
        quorum::prepare_reply_statement(req->object, *predicted, req->hash),
        cost);
    if (options_.background_write_sigs) {
      const auto key = std::make_pair(
          req->object, std::make_pair(predicted->val, predicted->id));
      if (write_sig_cache_.find(key) == write_sig_cache_.end()) {
        auto sig = signer_.sign(
            quorum::write_reply_statement(req->object, *predicted));
        if (sig.is_ok()) {
          write_sig_cache_[key] = std::move(sig).take();
          metrics_.inc("sig_background");
        }
      }
    }
    granted("reply_read_ts_prep_prepared");
  } else {
    granted("reply_read_ts_prep_fallback");
  }

  if (options_.strong) {
    rep.strong_write_sig = sign_statement_foreground(
        quorum::write_reply_statement(req->object, state.pcert().ts()), cost);
  }
  if (amortized_auth_for(from)) {
    metrics_.inc("auth_p2p_amortized");
  } else {
    rep.auth = p2p_auth(env.sender, rep.signing_payload(), cost);
  }
  reply(from, rpc::MsgType::kReadTsPrepReply, env.rpc_id, rep.encode(), cost);
}

}  // namespace bftbc::core
