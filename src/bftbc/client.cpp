#include "bftbc/client.h"

#include <algorithm>

#include "quorum/statements.h"
#include "util/log.h"

namespace bftbc::core {

namespace {

using TsKey = std::pair<std::uint64_t, quorum::ClientId>;

TsKey ts_key(const Timestamp& t) { return {t.val, t.id}; }

// Version order: (timestamp, hash). In the base protocol two valid
// certificates never share a timestamp (Lemma 1 part 3), so the hash
// tiebreak is inert; the optimized protocol relies on it (§6.3).
bool version_less(const Timestamp& ts_a, const crypto::Digest& h_a,
                  const Timestamp& ts_b, const crypto::Digest& h_b) {
  if (ts_a != ts_b) return ts_a < ts_b;
  return crypto::compare_digests(h_a, h_b) < 0;
}

}  // namespace

// ------------------------------------------------------------ op structs

struct Client::WriteOp : OpBase {
  Bytes value;
  crypto::Digest hash{};
  WriteCallback cb;
  crypto::Nonce nonce;

  // phase-1 harvest
  std::optional<PrepareCertificate> pmax;
  std::map<TsKey, quorum::SignatureSet> strong_sigs;    // strong mode
  std::map<TsKey, quorum::SignatureSet> opt_prep_sigs;  // optimized mode

  Timestamp t;
  std::optional<WriteCertificate> wcert_to_send;
  quorum::SignatureSet prepare_sigs;  // phase-2 harvest
  std::optional<PrepareCertificate> pnew;
  quorum::SignatureSet write_sigs;  // phase-3 harvest

  std::uint64_t child_op_id = 0;  // internal read (strong fallback)

  void fail(const Status& status) override {
    if (cb) cb(Result<WriteResult>(status));
  }
};

struct Client::ReadOp : OpBase {
  ReadCallback cb;
  std::function<void(InternalReadDone)> internal_cb;
  bool force_writeback = false;
  crypto::Nonce nonce;

  // phase-1 harvest
  bool any = false;
  Bytes best_value;
  PrepareCertificate best_cert;
  std::set<std::pair<TsKey, Bytes>> versions;  // distinct (ts, hash) seen

  quorum::SignatureSet writeback_sigs;

  void fail(const Status& status) override {
    if (cb) cb(Result<ReadResult>(status));
  }
};

// ------------------------------------------------------------ lifecycle

Client::Client(const quorum::QuorumConfig& config, quorum::ClientId id,
               crypto::Keystore& keystore, rpc::Transport& transport,
               sim::Scheduler& scheduler,
               std::vector<sim::NodeId> replica_nodes, Rng rng,
               ClientOptions options)
    : ClientEndpoint(config, id, keystore, transport, scheduler,
                     std::move(replica_nodes), rng, /*first_rpc_id=*/1),
      options_(options),
      last_write_cert_(signer_.hash_key()),
      tracer_(options.tracer) {
  replica_principals_.reserve(replica_nodes_.size());
  for (std::size_t i = 0; i < replica_nodes_.size(); ++i) {
    replica_principals_.push_back(
        quorum::replica_principal(static_cast<quorum::ReplicaId>(i)));
  }
  if (options_.registry != nullptr) {
    metrics::MetricsRegistry& r = *options_.registry;
    const std::string& p = options_.metrics_prefix;
    lat_.write_total = &r.summary(p + "client.write.total_ms");
    lat_.write_read_ts = &r.summary(p + "client.write.read_ts_ms");
    lat_.write_prepare = &r.summary(p + "client.write.prepare_ms");
    lat_.write_write = &r.summary(p + "client.write.write_ms");
    lat_.read_total = &r.summary(p + "client.read.total_ms");
    lat_.read_read = &r.summary(p + "client.read.read_ms");
    lat_.read_writeback = &r.summary(p + "client.read.writeback_ms");
    inflight_hist_ = &r.histogram(p + "client.inflight");
  }
}

Client::~Client() {
  for (auto& [op_id, op] : ops_) sim_.cancel(op->deadline_timer);
}

OpBase* Client::find_op(std::uint64_t id) {
  auto it = ops_.find(id);
  return it == ops_.end() ? nullptr : it->second.get();
}

bool Client::has_pending_op(ObjectId object) const {
  for (const auto& [op_id, op] : ops_) {
    if (op->object == object) return true;
  }
  return false;
}

const std::optional<WriteCertificate>& Client::last_write_cert(
    ObjectId object) const {
  static const std::optional<WriteCertificate> kNone;
  const std::uint32_t slot = last_write_cert_.find(object);
  return slot == last_write_cert_.kNone ? kNone : last_write_cert_[slot];
}

Result<Bytes> Client::sign_request(BytesView payload) const {
  if (options_.mac_auth) return signer_.mac_authenticator(replica_principals_, payload);
  return signer_.sign(payload);
}

bool Client::check_reply_auth(std::uint32_t idx, BytesView payload,
                              BytesView auth) const {
  if (options_.mac_auth) {
    return keystore_.mac_check(quorum::replica_principal(idx),
                               quorum::client_principal(id_), payload, auth);
  }
  return keystore_.verify_cached(quorum::replica_principal(idx), payload, auth);
}

void Client::begin_call(OpBase& op, rpc::Envelope request,
                        rpc::QuorumCall::Validator validator,
                        std::function<void()> on_complete,
                        Summary* phase_lat, const char* phase_name) {
  if (op.call) retired_.push_back(std::move(op.call));
  ++op.phases;
  if (tracer_ != nullptr && phase_name != nullptr) {
    tracer_->record(sim_.now(), metrics::TraceKind::kPhase, id_, op.op_id,
                    phase_name);
  }
  if (phase_lat != nullptr) {
    const sim::Time phase_start = sim_.now();
    on_complete = [this, phase_lat, phase_start,
                   inner = std::move(on_complete)] {
      phase_lat->add(static_cast<double>(sim_.now() - phase_start) /
                     sim::kMillisecond);
      inner();
    };
  }
  op.call = std::make_unique<rpc::QuorumCall>(
      sim_, transport_, replica_nodes_, config_.q, std::move(request),
      std::move(validator), std::move(on_complete), nullptr, options_.rpc);
}

void Client::on_envelope(sim::NodeId from, const rpc::Envelope& env) {
  if (env.type == rpc::MsgType::kReplyBatch) {
    handle_reply_batch(from, env);
    return;
  }
  dispatch_reply(from, env);
}

void Client::dispatch_reply(sim::NodeId from, const rpc::Envelope& env) {
  for (auto& [op_id, op] : ops_) {
    if (op->call && op->call->on_reply(from, env)) return;
  }
}

// A replica that answered several of our same-tick requests bundles the
// replies under one authenticator (reply-signing amortization). Verify
// the batch MAC against the sending replica once, then dispatch each
// sub-reply; validators accept an empty per-reply `auth` only while this
// verified-batch frame is open, so a reply that skipped its own MAC is
// never accepted outside a batch that covered it.
void Client::handle_reply_batch(sim::NodeId from, const rpc::Envelope& env) {
  auto m = ReplyBatch::decode(env.body);
  if (!m.has_value()) return;
  const auto it =
      std::find(replica_nodes_.begin(), replica_nodes_.end(), from);
  if (it == replica_nodes_.end()) return;
  const auto idx =
      static_cast<ReplicaId>(it - replica_nodes_.begin());
  if (m->replica != idx) return;
  if (!check_reply_auth(idx, m->signing_payload(), m->auth)) return;
  metrics_.inc("reply_batches");
  batch_authed_ = true;
  for (const Bytes& b : m->replies) {
    auto sub = rpc::Envelope::decode(b);
    if (!sub.has_value() || sub->type == rpc::MsgType::kReplyBatch) continue;
    dispatch_reply(from, *sub);
  }
  batch_authed_ = false;
}

void Client::fail_op(std::uint64_t op_id, Status status) {
  auto it = ops_.find(op_id);
  if (it == ops_.end()) return;
  std::unique_ptr<OpBase> op = std::move(it->second);
  ops_.erase(it);
  sim_.cancel(op->deadline_timer);
  if (op->call) retired_.push_back(std::move(op->call));
  // Cancel an in-flight internal read silently.
  if (auto* w = dynamic_cast<WriteOp*>(op.get()); w && w->child_op_id != 0) {
    auto child = ops_.find(w->child_op_id);
    if (child != ops_.end()) {
      sim_.cancel(child->second->deadline_timer);
      if (child->second->call)
        retired_.push_back(std::move(child->second->call));
      ops_.erase(child);
    }
  }
  if (tracer_ != nullptr) {
    tracer_->record(sim_.now(), metrics::TraceKind::kOpEnd, id_, op->op_id,
                    status.message());
  }
  op->fail(status);
}

// ------------------------------------------------------------ write

void Client::write(ObjectId object, Bytes value, WriteCallback cb) {
  auto owned = std::make_unique<WriteOp>();
  WriteOp& op = *owned;
  op.op_id = next_op_id_++;
  op.object = object;
  op.value = std::move(value);
  op.hash = crypto::sha256(op.value);
  op.cb = std::move(cb);
  op.started = sim_.now();
  ops_[op.op_id] = std::move(owned);
  metrics_.inc("writes");
  if (tracer_ != nullptr) {
    tracer_->record(sim_.now(), metrics::TraceKind::kOpBegin, id_, op.op_id,
                    "write");
  }
  if (options_.op_deadline > 0) {
    const std::uint64_t op_id = op.op_id;
    op.deadline_timer = sim_.schedule(options_.op_deadline, [this, op_id] {
      fail_op(op_id, timeout_error("write deadline"));
    });
  }
  if (options_.optimized) {
    start_write_phase1_opt(op);
  } else {
    start_write_phase1(op);
  }
}

// ------------------------------------------------------ pipelined writes

void Client::submit_write(ObjectId object, Bytes value, WriteCallback cb) {
  metrics_.inc("pipelined_writes");
  PendingWrite pending;
  pending.object = object;
  pending.value = std::move(value);
  pending.cb = std::move(cb);
  write_queue_.push_back(std::move(pending));
  pump_pipeline();
}

// Fills free window slots FIFO, skipping (but never reordering within)
// objects that already have an op in flight: independent objects' phases
// overlap while each object's writes stay strictly sequential — exactly
// the ordering the per-object certificate chain requires.
void Client::pump_pipeline() {
  if (pumping_) {
    // A synchronous completion inside write() landed here; the active
    // pump below re-scans before it returns.
    repump_ = true;
    return;
  }
  pumping_ = true;
  do {
    repump_ = false;
    std::set<ObjectId> blocked;
    for (auto it = write_queue_.begin(); it != write_queue_.end();) {
      if (options_.max_inflight != 0 &&
          inflight_writes_ >= options_.max_inflight) {
        break;
      }
      if (blocked.count(it->object) != 0 || has_pending_op(it->object)) {
        blocked.insert(it->object);
        ++it;
        continue;
      }
      PendingWrite pending = std::move(*it);
      it = write_queue_.erase(it);

      ++inflight_writes_;
      if (inflight_writes_ > inflight_peak_) {
        metrics_.inc("inflight_peak", inflight_writes_ - inflight_peak_);
        inflight_peak_ = inflight_writes_;
      }
      if (inflight_hist_ != nullptr) {
        inflight_hist_->add(static_cast<std::int64_t>(inflight_writes_));
      }
      write(pending.object, std::move(pending.value),
            [this, cb = std::move(pending.cb)](Result<WriteResult> r) {
              --inflight_writes_;
              if (cb) cb(std::move(r));
              pump_pipeline();
            });
    }
  } while (repump_);
  for (PendingWrite& waiting : write_queue_) {
    if (!waiting.counted_queued) {
      waiting.counted_queued = true;
      metrics_.inc("queued_writes");
    }
  }
  pumping_ = false;
}

// Figure 1, phase 1: 〈READ-TS, nonce〉 to all replicas; wait for a quorum
// of valid replies carrying correct prepare certificates.
void Client::start_write_phase1(WriteOp& op) {
  op.nonce = nonces_.next();
  ReadTsRequest req;
  req.object = op.object;
  req.nonce = op.nonce;
  const std::uint64_t op_id = op.op_id;

  begin_call(
      op, make_request(rpc::MsgType::kReadTs, req.encode()),
      [this, op_id](std::uint32_t idx, const rpc::Envelope& env) {
        auto* op = dynamic_cast<WriteOp*>(find_op(op_id));
        if (op == nullptr || env.type != rpc::MsgType::kReadTsReply)
          return false;
        auto m = ReadTsReply::decode(env.body);
        if (!m || m->object != op->object || m->nonce != op->nonce ||
            m->replica != idx) {
          return false;
        }
        if (!(batch_authed_ && m->auth.empty()) &&
            !check_reply_auth(idx, m->signing_payload(), m->auth)) {
          return false;
        }
        if (m->pcert.object() != op->object ||
            !m->pcert.validate(config_, keystore_).is_ok()) {
          return false;
        }
        if (options_.strong && !m->strong_write_sig.empty()) {
          const Bytes stmt =
              quorum::write_reply_statement(op->object, m->pcert.ts());
          if (keystore_.verify_cached(quorum::replica_principal(idx), stmt,
                               m->strong_write_sig)) {
            op->strong_sigs[ts_key(m->pcert.ts())][idx] = m->strong_write_sig;
          }
        }
        if (!op->pmax.has_value() ||
            version_less(op->pmax->ts(), op->pmax->hash(), m->pcert.ts(),
                         m->pcert.hash())) {
          op->pmax = m->pcert;
        }
        return true;
      },
      [this, op_id] {
        if (auto* op = dynamic_cast<WriteOp*>(find_op(op_id)))
          finish_write_phase1(*op);
      },
      lat_.write_read_ts, "write/read_ts");
}

void Client::finish_write_phase1(WriteOp& op) {
  if (!options_.strong) {
    op.wcert_to_send = last_write_cert(op.object);
    start_write_phase2(op);
    return;
  }
  ensure_strong_wcert_then_phase2(op);
}

// §7.2: the PREPARE must carry a write certificate for the predecessor
// timestamp. If a quorum of phase-1 replies agreed on Pmax.ts, their
// piggybacked write-statement signatures already form it; otherwise redo
// phase 1 as a normal read with forced write-back (two extra phases).
void Client::ensure_strong_wcert_then_phase2(WriteOp& op) {
  auto it = op.strong_sigs.find(ts_key(op.pmax->ts()));
  if (it != op.strong_sigs.end() && it->second.size() >= config_.q) {
    op.wcert_to_send =
        WriteCertificate(op.object, op.pmax->ts(), it->second);
    start_write_phase2(op);
    return;
  }

  metrics_.inc("internal_reads");
  auto owned = std::make_unique<ReadOp>();
  ReadOp& child = *owned;
  child.op_id = next_op_id_++;
  child.object = op.object;
  child.force_writeback = true;
  const std::uint64_t parent_id = op.op_id;
  child.internal_cb = [this, parent_id](InternalReadDone done) {
    auto* parent = dynamic_cast<WriteOp*>(find_op(parent_id));
    if (parent == nullptr) return;  // parent already failed
    parent->child_op_id = 0;
    parent->phases += done.phases;
    parent->pmax = done.pcert;
    parent->wcert_to_send = done.wcert;
    start_write_phase2(*parent);
  };
  op.child_op_id = child.op_id;
  ops_[child.op_id] = std::move(owned);
  start_read(child);
}

// Figure 1, phase 2: 〈PREPARE, Pmax, t, h(val), Wcert〉σc; collect a
// quorum of PREPARE-REPLY statements — the new prepare certificate.
void Client::start_write_phase2(WriteOp& op) {
  op.t = op.pmax->ts().succ(id_);
  PrepareRequest req;
  req.object = op.object;
  req.t = op.t;
  req.hash = op.hash;
  req.prep_cert = *op.pmax;
  req.write_cert = op.wcert_to_send;
  req.client = id_;
  auto sig = sign_request(req.signing_payload());
  if (!sig.is_ok()) {
    fail_op(op.op_id, sig.status());  // client revoked: cannot write
    return;
  }
  req.sig = std::move(sig).take();
  const std::uint64_t op_id = op.op_id;

  begin_call(
      op, make_request(rpc::MsgType::kPrepare, req.encode()),
      [this, op_id](std::uint32_t idx, const rpc::Envelope& env) {
        auto* op = dynamic_cast<WriteOp*>(find_op(op_id));
        if (op == nullptr || env.type != rpc::MsgType::kPrepareReply)
          return false;
        auto m = PrepareReply::decode(env.body);
        if (!m || m->object != op->object || m->t != op->t ||
            m->hash != op->hash || m->replica != idx) {
          return false;
        }
        const Bytes stmt =
            quorum::prepare_reply_statement(op->object, op->t, op->hash);
        if (!keystore_.verify_cached(quorum::replica_principal(idx), stmt, m->sig))
          return false;
        op->prepare_sigs[idx] = m->sig;
        return true;
      },
      [this, op_id] {
        auto* op = dynamic_cast<WriteOp*>(find_op(op_id));
        if (op == nullptr) return;
        op->pnew = PrepareCertificate(op->object, op->t, op->hash,
                                      op->prepare_sigs);
        start_write_phase3(*op);
      },
      lat_.write_prepare, "write/prepare");
}

// Figure 1, phase 3: 〈WRITE, val, Pnew〉σc; the quorum of WRITE-REPLY
// statements becomes the write certificate retained for the next write.
void Client::start_write_phase3(WriteOp& op) {
  WriteRequest req;
  req.object = op.object;
  req.value = op.value;
  req.prep_cert = *op.pnew;
  req.client = id_;
  auto sig = sign_request(req.signing_payload(op.hash));
  if (!sig.is_ok()) {
    fail_op(op.op_id, sig.status());
    return;
  }
  req.sig = std::move(sig).take();
  const std::uint64_t op_id = op.op_id;

  begin_call(
      op, make_request(rpc::MsgType::kWrite, req.encode()),
      [this, op_id](std::uint32_t idx, const rpc::Envelope& env) {
        auto* op = dynamic_cast<WriteOp*>(find_op(op_id));
        if (op == nullptr || env.type != rpc::MsgType::kWriteReply)
          return false;
        auto m = WriteReply::decode(env.body);
        if (!m || m->object != op->object || m->ts != op->t ||
            m->replica != idx) {
          return false;
        }
        const Bytes stmt = quorum::write_reply_statement(op->object, op->t);
        if (!keystore_.verify_cached(quorum::replica_principal(idx), stmt, m->sig))
          return false;
        op->write_sigs[idx] = m->sig;
        return true;
      },
      [this, op_id] {
        if (auto* op = dynamic_cast<WriteOp*>(find_op(op_id)))
          finish_write(*op);
      },
      lat_.write_write, "write/write");
}

void Client::finish_write(WriteOp& op) {
  last_write_cert_[last_write_cert_.insert(op.object).first] =
      WriteCertificate(op.object, op.t, op.write_sigs);
  metrics_.inc("write_phases", static_cast<std::uint64_t>(op.phases));
  if (lat_.write_total != nullptr) {
    lat_.write_total->add(static_cast<double>(sim_.now() - op.started) /
                          sim::kMillisecond);
  }
  if (tracer_ != nullptr) {
    tracer_->record(sim_.now(), metrics::TraceKind::kOpEnd, id_, op.op_id,
                    "write/ok");
  }

  WriteResult result;
  result.ts = op.t;
  result.phases = op.phases;
  WriteCallback cb = std::move(op.cb);
  sim_.cancel(op.deadline_timer);
  if (op.call) retired_.push_back(std::move(op.call));
  ops_.erase(op.op_id);
  if (cb) cb(Result<WriteResult>(result));
}

// §6.2 phase 1: 〈READ-TS-PREP, h, Wcert〉σc — replicas prepare on the
// client's behalf; a quorum agreeing on the predicted timestamp is a
// prepare certificate and the write jumps straight to phase 3.
void Client::start_write_phase1_opt(WriteOp& op) {
  op.nonce = nonces_.next();
  ReadTsPrepRequest req;
  req.object = op.object;
  req.hash = op.hash;
  req.write_cert = last_write_cert(op.object);
  req.nonce = op.nonce;
  req.client = id_;
  auto sig = sign_request(req.signing_payload());
  if (!sig.is_ok()) {
    fail_op(op.op_id, sig.status());
    return;
  }
  req.sig = std::move(sig).take();
  const std::uint64_t op_id = op.op_id;

  begin_call(
      op, make_request(rpc::MsgType::kReadTsPrep, req.encode()),
      [this, op_id](std::uint32_t idx, const rpc::Envelope& env) {
        auto* op = dynamic_cast<WriteOp*>(find_op(op_id));
        if (op == nullptr || env.type != rpc::MsgType::kReadTsPrepReply)
          return false;
        auto m = ReadTsPrepReply::decode(env.body);
        if (!m || m->object != op->object || m->nonce != op->nonce ||
            m->replica != idx) {
          return false;
        }
        if (!(batch_authed_ && m->auth.empty()) &&
            !check_reply_auth(idx, m->signing_payload(), m->auth)) {
          return false;
        }
        if (m->pcert.object() != op->object ||
            !m->pcert.validate(config_, keystore_).is_ok()) {
          return false;
        }
        if (m->prepared && m->hash == op->hash &&
            m->predicted_t.id == id_) {
          const Bytes stmt = quorum::prepare_reply_statement(
              op->object, m->predicted_t, op->hash);
          if (keystore_.verify_cached(quorum::replica_principal(idx), stmt,
                               m->prepare_sig)) {
            op->opt_prep_sigs[ts_key(m->predicted_t)][idx] = m->prepare_sig;
          }
        }
        if (options_.strong && !m->strong_write_sig.empty()) {
          const Bytes stmt =
              quorum::write_reply_statement(op->object, m->pcert.ts());
          if (keystore_.verify_cached(quorum::replica_principal(idx), stmt,
                               m->strong_write_sig)) {
            op->strong_sigs[ts_key(m->pcert.ts())][idx] = m->strong_write_sig;
          }
        }
        if (!op->pmax.has_value() ||
            version_less(op->pmax->ts(), op->pmax->hash(), m->pcert.ts(),
                         m->pcert.hash())) {
          op->pmax = m->pcert;
        }
        return true;
      },
      [this, op_id] {
        if (auto* op = dynamic_cast<WriteOp*>(find_op(op_id)))
          finish_write_phase1_opt(*op);
      },
      lat_.write_read_ts, "write/read_ts_prep");
}

void Client::finish_write_phase1_opt(WriteOp& op) {
  // Fast path: some predicted timestamp gathered a full quorum of
  // PREPARE-REPLY statements → they ARE the prepare certificate.
  for (const auto& [key, sigs] : op.opt_prep_sigs) {
    if (sigs.size() >= config_.q) {
      op.t = Timestamp{key.first, key.second};
      op.pnew = PrepareCertificate(op.object, op.t, op.hash, sigs);
      metrics_.inc("opt_fast_writes");
      start_write_phase3(op);
      return;
    }
  }
  // Slow path (§6.1's concurrent-writer example): fall back to a normal
  // phase 2 justified by the largest certificate read.
  metrics_.inc("opt_slow_writes");
  if (options_.strong) {
    ensure_strong_wcert_then_phase2(op);
  } else {
    op.wcert_to_send = last_write_cert(op.object);
    start_write_phase2(op);
  }
}

// ------------------------------------------------------------ read

void Client::read(ObjectId object, ReadCallback cb) {
  auto owned = std::make_unique<ReadOp>();
  ReadOp& op = *owned;
  op.op_id = next_op_id_++;
  op.object = object;
  op.cb = std::move(cb);
  op.started = sim_.now();
  ops_[op.op_id] = std::move(owned);
  metrics_.inc("reads");
  if (tracer_ != nullptr) {
    tracer_->record(sim_.now(), metrics::TraceKind::kOpBegin, id_, op.op_id,
                    "read");
  }
  if (options_.op_deadline > 0) {
    const std::uint64_t op_id = op.op_id;
    op.deadline_timer = sim_.schedule(options_.op_deadline, [this, op_id] {
      fail_op(op_id, timeout_error("read deadline"));
    });
  }
  start_read(op);
}

// §3.2.2 phase 1: query a quorum; accept only replies whose value matches
// a valid prepare certificate. Done in one phase when all answers agree.
void Client::start_read(ReadOp& op) {
  op.nonce = nonces_.next();
  ReadRequest req;
  req.object = op.object;
  req.nonce = op.nonce;
  if (options_.gc_in_reads) req.write_cert = last_write_cert(op.object);
  const std::uint64_t op_id = op.op_id;

  begin_call(
      op, make_request(rpc::MsgType::kRead, req.encode()),
      [this, op_id](std::uint32_t idx, const rpc::Envelope& env) {
        auto* op = dynamic_cast<ReadOp*>(find_op(op_id));
        if (op == nullptr || env.type != rpc::MsgType::kReadReply)
          return false;
        auto m = ReadReply::decode(env.body);
        if (!m || m->object != op->object || m->nonce != op->nonce ||
            m->replica != idx) {
          return false;
        }
        // Hashed once, for the authenticated payload and the
        // certificate check alike.
        const crypto::Digest value_hash = crypto::sha256(m->value);
        if (!(batch_authed_ && m->auth.empty()) &&
            !check_reply_auth(idx, m->signing_payload(value_hash),
                              m->auth)) {
          return false;
        }
        if (m->pcert.object() != op->object ||
            !m->pcert.validate(config_, keystore_).is_ok()) {
          return false;
        }
        // The certificate must vouch for exactly this value.
        if (m->pcert.hash() != value_hash) return false;

        op->versions.insert(
            {ts_key(m->pcert.ts()),
             crypto::digest_bytes(m->pcert.hash())});
        if (!op->any || version_less(op->best_cert.ts(), op->best_cert.hash(),
                                     m->pcert.ts(), m->pcert.hash())) {
          op->any = true;
          op->best_value = m->value;
          op->best_cert = m->pcert;
        }
        return true;
      },
      [this, op_id] {
        auto* op = dynamic_cast<ReadOp*>(find_op(op_id));
        if (op == nullptr) return;
        if (op->versions.size() == 1 && !op->force_writeback) {
          finish_read(*op);
        } else {
          start_read_writeback(*op);
        }
      },
      lat_.read_read, "read/read");
}

// §3.2.2 phase 2: write back the largest (ts, value) — identical to write
// phase 3 — until 2f+1 replicas hold it.
void Client::start_read_writeback(ReadOp& op) {
  WriteRequest req;
  req.object = op.object;
  req.value = op.best_value;
  req.prep_cert = op.best_cert;
  req.client = id_;
  // best_cert vouches for best_value: the read validator checked it.
  auto sig = sign_request(req.signing_payload(op.best_cert.hash()));
  if (!sig.is_ok()) {
    fail_op(op.op_id, sig.status());
    return;
  }
  req.sig = std::move(sig).take();
  const std::uint64_t op_id = op.op_id;
  const Timestamp expect_ts = op.best_cert.ts();

  begin_call(
      op, make_request(rpc::MsgType::kWrite, req.encode()),
      [this, op_id, expect_ts](std::uint32_t idx, const rpc::Envelope& env) {
        auto* op = dynamic_cast<ReadOp*>(find_op(op_id));
        if (op == nullptr || env.type != rpc::MsgType::kWriteReply)
          return false;
        auto m = WriteReply::decode(env.body);
        if (!m || m->object != op->object || m->ts != expect_ts ||
            m->replica != idx) {
          return false;
        }
        const Bytes stmt =
            quorum::write_reply_statement(op->object, expect_ts);
        if (!keystore_.verify_cached(quorum::replica_principal(idx), stmt, m->sig))
          return false;
        op->writeback_sigs[idx] = m->sig;
        return true;
      },
      [this, op_id] {
        if (auto* op = dynamic_cast<ReadOp*>(find_op(op_id)))
          finish_read(*op);
      },
      lat_.read_writeback, "read/writeback");
}

void Client::finish_read(ReadOp& op) {
  metrics_.inc("read_phases", static_cast<std::uint64_t>(op.phases));
  // Internal (strong-fallback) reads never went through read(): they have
  // no start time and are not client-visible ops, so no total latency.
  if (!op.internal_cb) {
    if (lat_.read_total != nullptr) {
      lat_.read_total->add(static_cast<double>(sim_.now() - op.started) /
                           sim::kMillisecond);
    }
    if (tracer_ != nullptr) {
      tracer_->record(sim_.now(), metrics::TraceKind::kOpEnd, id_, op.op_id,
                      "read/ok");
    }
  }

  sim_.cancel(op.deadline_timer);
  if (op.call) retired_.push_back(std::move(op.call));

  if (op.internal_cb) {
    InternalReadDone done;
    done.value = std::move(op.best_value);
    done.pcert = op.best_cert;
    done.wcert =
        WriteCertificate(op.object, op.best_cert.ts(), op.writeback_sigs);
    done.phases = op.phases;
    auto internal_cb = std::move(op.internal_cb);
    ops_.erase(op.op_id);
    internal_cb(std::move(done));
    return;
  }

  ReadResult result;
  result.value = std::move(op.best_value);
  result.ts = op.best_cert.ts();
  result.hash = op.best_cert.hash();
  result.phases = op.phases;
  ReadCallback cb = std::move(op.cb);
  ops_.erase(op.op_id);
  if (cb) cb(Result<ReadResult>(std::move(result)));
}

}  // namespace bftbc::core
