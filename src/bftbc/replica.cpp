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
      options_(options),
      objects_(options_.max_resident_objects, signer_.hash_key(), metrics_) {
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
    objects_.set_resident_gauge(&scope.gauge("resident_objects"));
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
  flushing_.swap(pending_batch_);
  if (flushing_.empty()) return;

  metrics_.inc("batch_flushes");
  metrics_.inc("batch_verify_msgs", flushing_.size());

  // Reply-signing amortization: when one node contributed two or more
  // point-to-point-authenticated requests to this batch, the replies to
  // it are captured and shipped as a single ReplyBatch under one
  // authenticator (handlers skip the per-reply MAC for those). Only the
  // client request types below count; everything else in the batch is
  // dispatched unchanged by on_envelope.
  batch_auth_.clear();
  for (std::size_t i = 0; i < flushing_.size(); ++i) {
    const PendingEnvelope& p = flushing_[i];
    const rpc::MsgType type = p.env.type;
    if (type == rpc::MsgType::kReadTs || type == rpc::MsgType::kRead ||
        (type == rpc::MsgType::kReadTsPrep && options_.optimized)) {
      batch_auth_.push_back(BatchAuth{p.from, i, 1, p.env.sender});
    }
  }
  // One record per node, ascending; the node's last request names the
  // principal.
  std::sort(batch_auth_.begin(), batch_auth_.end(),
            [](const BatchAuth& a, const BatchAuth& b) {
              return a.node != b.node ? a.node < b.node : a.seq < b.seq;
            });
  std::size_t nodes = 0;
  for (const BatchAuth& a : batch_auth_) {
    if (nodes != 0 && batch_auth_[nodes - 1].node == a.node) {
      ++batch_auth_[nodes - 1].count;
      batch_auth_[nodes - 1].principal = a.principal;
    } else {
      batch_auth_[nodes++] = a;
    }
  }
  batch_auth_.resize(nodes);

  collecting_replies_ = true;
  current_batch_size_ = flushing_.size();
  deferring_ = true;
  for (const PendingEnvelope& p : flushing_) on_envelope(p.from, p.env);
  deferring_ = false;
  finish_replies();
  current_batch_size_ = 0;
  collecting_replies_ = false;
  flush_replies();
  batch_auth_.clear();
  flushing_.clear();
}

const Replica::BatchAuth* Replica::batch_auth_of(sim::NodeId node) const {
  const auto it = std::lower_bound(
      batch_auth_.begin(), batch_auth_.end(), node,
      [](const BatchAuth& a, sim::NodeId n) { return a.node < n; });
  return it != batch_auth_.end() && it->node == node ? &*it : nullptr;
}

bool Replica::amortized_auth_for(sim::NodeId to) const {
  if (!collecting_replies_) return false;
  const BatchAuth* auth = batch_auth_of(to);
  return auth != nullptr && auth->count >= 2;
}

void Replica::flush_replies() {
  if (pending_replies_.empty()) return;
  // One ReplyBatch per destination, ascending, replies in handler order.
  std::sort(pending_replies_.begin(), pending_replies_.end(),
            [](const PendingReply& a, const PendingReply& b) {
              return a.to != b.to ? a.to < b.to : a.seq < b.seq;
            });
  for (auto first = pending_replies_.begin();
       first != pending_replies_.end();) {
    const sim::NodeId to = first->to;
    ReplyBatch rb;
    rb.replica = id_;
    sim::Time cost = 0;
    for (; first != pending_replies_.end() && first->to == to; ++first) {
      rb.replies.push_back(first->env.encode());
      cost = std::max(cost, first->cost);
    }
    const BatchAuth* auth = batch_auth_of(to);
    rb.auth = p2p_auth(auth != nullptr ? auth->principal : 0,
                       rb.signing_payload(), cost);
    metrics_.inc("reply_batches");
    rpc::Envelope env;
    env.type = rpc::MsgType::kReplyBatch;
    env.sender = quorum::replica_principal(id_);
    env.body = rb.encode();
    send_after(to, std::move(env), cost);
  }
  pending_replies_.clear();
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

ObjectState& Replica::object(ObjectId id) { return *objects_.touch(id).state; }

void Replica::absorb_and_gc(ObjectTable::Entry& entry,
                            const Timestamp& wcert_ts) {
  ObjectState& state = *entry.state;
  const std::size_t reclaimed = state.absorb_write_certificate(wcert_ts);
  if (reclaimed != 0) metrics_.inc("gc_reclaimed", reclaimed);
  state.compact();
  // Presigned WRITE-REPLY signatures at or below the certified timestamp
  // can never be needed again: the certificate proves those writes
  // completed, and write_ts now rejects their prepares anyway.
  const std::size_t dropped_sigs =
      entry.drop_write_sigs_through(state.write_ts());
  if (dropped_sigs != 0) metrics_.inc("sig_cache_gc", dropped_sigs);
}

const ObjectState* Replica::find_object(ObjectId id) const {
  return objects_.find_resident(id);
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
  // Replies emitted while dispatching a multi-message batch;
  // "batched_replies" counts them.
  if (current_batch_size_ >= 2) metrics_.inc("batched_replies");
  if (deferring_) {
    outgoing_.push_back(Outgoing{to, type, rpc_id, processing_cost,
                                 std::move(body), {}, std::nullopt});
    return;
  }
  send_reply(to, type, rpc_id, std::move(body), processing_cost);
}

void Replica::send_reply(sim::NodeId to, rpc::MsgType type,
                         std::uint64_t rpc_id, Bytes body,
                         sim::Time processing_cost) {
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
    pending_replies_.push_back(PendingReply{to, pending_replies_.size(),
                                            std::move(env), processing_cost});
    return;
  }
  send_after(to, std::move(env), processing_cost);
}

void Replica::send_after(sim::NodeId to, rpc::Envelope env,
                         sim::Time processing_cost) {
  const sim::Time delay = charge_processing(processing_cost);
  if (delay == 0) {
    transport_.send(to, env);
  } else {
    sim_.schedule(delay,
                  [this, to, env = std::move(env)] { transport_.send(to, env); });
  }
}

std::uint32_t Replica::stage_statement(Bytes stmt) {
  staged_.push_back(std::move(stmt));
  return static_cast<std::uint32_t>(staged_.size() - 1);
}

std::uint32_t Replica::stage_foreground(Bytes stmt, sim::Time& cost) {
  metrics_.inc("sig_foreground");
  cost += options_.sign_cost;
  return stage_statement(std::move(stmt));
}

void Replica::reply_after_batch(sim::NodeId to, rpc::MsgType type,
                                std::uint64_t rpc_id, SignedReply rep,
                                Slots slots,
                                std::optional<crypto::PrincipalId> auth_to,
                                sim::Time cost) {
  outgoing_.push_back(
      Outgoing{to, type, rpc_id, cost, std::move(rep), slots, auth_to});
}

void Replica::finish_replies() {
  std::vector<Bytes> sigs;
  if (!staged_.empty()) {
    auto batch = signer_.sign_batch(staged_);
    // A signer that cannot sign leaves every signature empty, as one
    // failed sign() did.
    sigs = batch.is_ok() ? std::move(batch).take()
                         : std::vector<Bytes>(staged_.size());
    staged_.clear();
  }
  // A slot's signature moves into the one reply that takes it; a shared
  // slot is copied, its cache entry taking it below.
  auto fill = [&sigs](Bytes& field, std::uint32_t slot, bool shared) {
    if (slot == kNoSlot) return;
    field = shared ? sigs[slot] : std::move(sigs[slot]);
  };
  for (Outgoing& out : outgoing_) {
    if (Bytes* ready = std::get_if<Bytes>(&out.body)) {
      send_reply(out.to, out.type, out.rpc_id, std::move(*ready), out.cost);
      continue;
    }
    const Slots& slots = out.slots;
    Bytes body = std::visit(
        [&](auto& rep) {
          if constexpr (requires { rep.sig; }) {
            fill(rep.sig, slots.sig, slots.shared);
          }
          if constexpr (requires { rep.prepare_sig; }) {
            fill(rep.prepare_sig, slots.sig, slots.shared);
          }
          if constexpr (requires { rep.strong_write_sig; }) {
            fill(rep.strong_write_sig, slots.strong, false);
          }
          if constexpr (requires { rep.auth; }) {
            if (out.auth_to.has_value()) {
              rep.auth =
                  p2p_auth(*out.auth_to, rep.signing_payload(), out.cost);
            }
          }
          return rep.encode();
        },
        std::get<SignedReply>(out.body));
    reply(out.to, out.type, out.rpc_id, std::move(body), out.cost);
  }
  outgoing_.clear();
  for (const Presigned& p : presigned_) {
    ObjectTable::WriteSig* ws = p.entry->find_write_sig(p.ts);
    // Signatures a write certificate collected during the flush are gone.
    if (ws != nullptr && ws->slot != kNoSlot) {
      ws->sig = std::move(sigs[ws->slot]);
      ws->slot = kNoSlot;
    }
  }
  presigned_.clear();
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

void Replica::presign_write_reply(ObjectTable::Entry& entry, ObjectId object,
                                  const Timestamp& ts) {
  // §3.3.2: precompute the phase-3 response signature now, off the
  // critical path, so the WRITE reply is immediate. It joins this
  // flush's batch.
  if (!options_.background_write_sigs) return;
  auto [ws, added] = entry.add_write_sig(ts);
  if (!added) return;
  ws->slot = stage_statement(quorum::write_reply_statement(object, ts));
  presigned_.push_back(Presigned{&entry, ts});
  metrics_.inc("sig_background");
}

Replica::Slots Replica::write_sig_for(ObjectTable::Entry& entry,
                                      ObjectId object, const Timestamp& ts,
                                      Bytes& sig, sim::Time& cost) {
  const ObjectTable::WriteSig* ws = entry.find_write_sig(ts);
  if (ws == nullptr) {
    return {stage_foreground(quorum::write_reply_statement(object, ts), cost)};
  }
  metrics_.inc("sig_background_hit");
  if (ws->slot != kNoSlot) return {ws->slot, kNoSlot, true};
  sig = ws->sig;
  return {};
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

template <typename Cert>
bool Replica::valid_cert(const Cert& cert, ObjectId object, sim::Time& cost) {
  if (cert.object() != object) return false;
  // Verifying a certificate = up to q signature verifications.
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
  Slots slots;
  if (options_.strong) {
    // §7: phase-1 reply doubles as a write-certificate component for the
    // replica's current timestamp.
    slots.strong = stage_foreground(
        quorum::write_reply_statement(req->object, state.pcert().ts()), cost);
  }
  rep.replica = id_;
  std::optional<crypto::PrincipalId> auth_to;
  if (amortized_auth_for(from)) {
    metrics_.inc("auth_p2p_amortized");
  } else {
    auth_to = env.sender;
  }

  granted("reply_read_ts");
  reply_after_batch(from, rpc::MsgType::kReadTsReply, env.rpc_id,
                    std::move(rep), slots, auth_to, cost);
}

// ------------------------------------------------------------ phase 2

void Replica::handle_prepare(sim::NodeId from, const rpc::Envelope& env) {
  auto req = PrepareRequest::decode(env.body);
  if (!req.has_value()) {
    dropped("drop_malformed");
    return;
  }
  ObjectTable::Entry& entry = objects_.touch(req->object);
  ObjectState& state = *entry.state;
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
  if (!valid_cert(req->prep_cert, req->object, cost)) {
    dropped("drop_bad_cert");
    return;
  }
  if (req->write_cert.has_value() &&
      !valid_cert(*req->write_cert, req->object, cost)) {
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
    absorb_and_gc(entry, req->write_cert->ts());
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
  const Slots slots{stage_foreground(
      quorum::prepare_reply_statement(req->object, req->t, req->hash), cost)};
  presign_write_reply(entry, req->object, req->t);

  granted("reply_prepare");
  reply_after_batch(from, rpc::MsgType::kPrepareReply, env.rpc_id,
                    std::move(rep), slots, std::nullopt, cost);
}

// ------------------------------------------------------------ phase 3

void Replica::handle_write(sim::NodeId from, const rpc::Envelope& env) {
  auto req = WriteRequest::decode(env.body);
  if (!req.has_value()) {
    dropped("drop_malformed");
    return;
  }
  ObjectTable::Entry& entry = objects_.touch(req->object);
  ObjectState& state = *entry.state;
  sim::Time cost = 0;

  // Figure 2 phase 3 step 1. The value is hashed once, for the signed
  // payload and the certificate check alike.
  const crypto::Digest value_hash = crypto::sha256(req->value);
  if (!verify_client_sig(req->client, req->signing_payload(value_hash),
                         req->sig, cost)) {
    dropped("drop_bad_auth");
    return;
  }
  if (!valid_cert(req->prep_cert, req->object, cost)) {
    dropped("drop_bad_cert");
    return;
  }
  if (req->prep_cert.hash() != value_hash) {
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
  // Without background_write_sigs nothing is presigned, so this stages
  // the statement in the foreground.
  const Slots slots = write_sig_for(entry, req->object, rep.ts, rep.sig, cost);

  granted("reply_write");
  reply_after_batch(from, rpc::MsgType::kWriteReply, env.rpc_id,
                    std::move(rep), slots, std::nullopt, cost);
}

// ------------------------------------------------------------ read

void Replica::handle_read(sim::NodeId from, const rpc::Envelope& env) {
  auto req = ReadRequest::decode(env.body);
  if (!req.has_value()) {
    dropped("drop_malformed");
    return;
  }
  ObjectTable::Entry& entry = objects_.touch(req->object);
  const ObjectState& state = *entry.state;
  sim::Time cost = 0;

  // §3.3.1 speed-up: a write certificate piggybacked on a read GCs the
  // prepare lists just like one arriving in phase 2. Invalid certs are
  // ignored (the read itself is still served — reads are answered
  // unconditionally).
  if (req->write_cert.has_value() &&
      valid_cert(*req->write_cert, req->object, cost)) {
    absorb_and_gc(entry, req->write_cert->ts());
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
    // pcert().hash() == sha256(data()) in every state this replica
    // reaches: genesis, apply_write after handle_write's hash check,
    // state-transfer adoption of a checked snapshot, and cold-store
    // reload of its own blob (DESIGN §11).
    rep.auth =
        p2p_auth(env.sender, rep.signing_payload(state.pcert().hash()), cost);
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
    rc.snapshots.resize(peer_nodes.size());
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
      if (idx < call.snapshots.size() && !call.snapshots[idx].has_value()) {
        call.snapshots[idx] = std::move(*snap);
      }
      return true;
    };

    auto on_complete = [this, rpc_id]() {
      auto it = recovery_calls_.find(rpc_id);
      if (it == recovery_calls_.end()) return;
      RecoveryCall& call = it->second;
      std::vector<ObjectState> snaps;
      snaps.reserve(call.snapshots.size());
      for (std::optional<ObjectState>& s : call.snapshots) {
        if (s.has_value()) snaps.push_back(std::move(*s));
      }
      const ObjectId obj = call.object;
      objects_.install(obj, ObjectState::recover(obj, snaps, config_.f));
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
  ObjectTable::Entry& entry = objects_.touch(req->object);
  ObjectState& state = *entry.state;
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
    if (!valid_cert(*req->write_cert, req->object, cost)) {
      dropped("drop_bad_cert");
      return;
    }
    absorb_and_gc(entry, req->write_cert->ts());
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

  Slots slots;
  if (predicted.has_value()) {
    rep.prepared = true;
    rep.predicted_t = *predicted;
    rep.hash = req->hash;
    slots.sig = stage_foreground(
        quorum::prepare_reply_statement(req->object, *predicted, req->hash),
        cost);
    presign_write_reply(entry, req->object, *predicted);
    granted("reply_read_ts_prep_prepared");
  } else {
    granted("reply_read_ts_prep_fallback");
  }

  if (options_.strong) {
    slots.strong = stage_foreground(
        quorum::write_reply_statement(req->object, state.pcert().ts()), cost);
  }
  std::optional<crypto::PrincipalId> auth_to;
  if (amortized_auth_for(from)) {
    metrics_.inc("auth_p2p_amortized");
  } else {
    auth_to = env.sender;
  }
  reply_after_batch(from, rpc::MsgType::kReadTsPrepReply, env.rpc_id,
                    std::move(rep), slots, auth_to, cost);
}

}  // namespace bftbc::core
