#include "baselines/bqs.h"

#include "util/codec.h"

namespace bftbc::baselines {

Bytes bqs_value_statement(ObjectId object, const Timestamp& ts,
                          const crypto::Digest& value_hash) {
  // 0x20: a domain tag distinct from BFT-BC statements.
  return wire::encode(std::uint8_t{0x20}, object, ts, value_hash);
}

bool BqsEntry::verify(ObjectId object, const crypto::Keystore& ks) const {
  if (ts.is_zero()) return value.empty() && writer_sig.empty();  // genesis
  const Bytes stmt = bqs_value_statement(object, ts, crypto::sha256(value));
  return ks.verify_cached(quorum::client_principal(writer), stmt, writer_sig);
}

namespace {

// Wire formats (local to the BQS baseline), one field list each
// (util/codec.h).

struct BqsReadTsReq : wire::Message<BqsReadTsReq> {
  ObjectId object = 0;
  crypto::Nonce nonce;
  static auto fields(auto& m) { return std::tie(m.object, m.nonce); }
};

struct BqsReadTsRep : wire::Message<BqsReadTsRep> {
  ObjectId object = 0;
  crypto::Nonce nonce;
  Timestamp ts;
  ReplicaId replica = 0;
  Bytes auth;
  static auto fields(auto& m) {
    return std::tie(m.object, m.nonce, m.ts, m.replica, m.auth);
  }
  Bytes signing_payload() const {
    return wire::encode(std::uint8_t{0x21}, object, nonce, ts);
  }
};

struct BqsWriteReq : wire::Message<BqsWriteReq> {
  ObjectId object = 0;
  Bytes value;
  Timestamp ts;
  ClientId client = 0;
  Bytes sig;  // over bqs_value_statement
  static auto fields(auto& m) {
    return std::tie(m.object, m.value, m.ts, m.client, m.sig);
  }
};

struct BqsWriteRep : wire::Message<BqsWriteRep> {
  ObjectId object = 0;
  Timestamp ts;
  ReplicaId replica = 0;
  Bytes auth;
  static auto fields(auto& m) {
    return std::tie(m.object, m.ts, m.replica, m.auth);
  }
  Bytes signing_payload() const {
    return wire::encode(std::uint8_t{0x22}, object, ts);
  }
};

struct BqsReadReq : wire::Message<BqsReadReq> {
  ObjectId object = 0;
  crypto::Nonce nonce;
  static auto fields(auto& m) { return std::tie(m.object, m.nonce); }
};

struct BqsReadRep : wire::Message<BqsReadRep> {
  ObjectId object = 0;
  crypto::Nonce nonce;
  BqsEntry entry;
  ReplicaId replica = 0;
  Bytes auth;
  static auto fields(auto& m) {
    return std::tie(m.object, m.nonce, m.entry.value, m.entry.ts,
                    m.entry.writer, m.entry.writer_sig, m.replica, m.auth);
  }
  Bytes signing_payload() const {
    return wire::encode(std::uint8_t{0x23}, object, nonce, entry.ts,
                        crypto::sha256(entry.value));
  }
};

}  // namespace

// ------------------------------------------------------------ replica

BqsReplica::BqsReplica(const quorum::QuorumConfig& config, ReplicaId id,
                       crypto::Keystore& keystore, rpc::Transport& transport)
    : config_(config),
      id_(id),
      keystore_(keystore),
      signer_(keystore.register_principal(quorum::replica_principal(id))),
      transport_(transport) {
  transport_.set_receiver([this](sim::NodeId from, const rpc::Envelope& env) {
    on_envelope(from, env);
  });
}

const BqsEntry* BqsReplica::find_object(ObjectId object) const {
  auto it = objects_.find(object);
  return it == objects_.end() ? nullptr : &it->second;
}

void BqsReplica::on_envelope(sim::NodeId from, const rpc::Envelope& env) {
  auto send = [&](rpc::MsgType type, Bytes body) {
    rpc::Envelope out;
    out.type = type;
    out.rpc_id = env.rpc_id;
    out.sender = quorum::replica_principal(id_);
    out.body = std::move(body);
    transport_.send(from, out);
  };

  switch (env.type) {
    case rpc::MsgType::kBqsReadTs: {
      auto req = BqsReadTsReq::decode(env.body);
      if (!req) return;
      BqsReadTsRep rep;
      rep.object = req->object;
      rep.nonce = req->nonce;
      rep.ts = objects_[req->object].ts;
      rep.replica = id_;
      auto sig = signer_.sign(rep.signing_payload());
      rep.auth = sig.is_ok() ? std::move(sig).take() : Bytes{};
      metrics_.inc("reply_read_ts");
      send(rpc::MsgType::kBqsReadTsReply, rep.encode());
      break;
    }
    case rpc::MsgType::kBqsWrite: {
      auto req = BqsWriteReq::decode(env.body);
      if (!req) return;
      // The ONLY write check in classic BQS: the client is authorized
      // (its signature over 〈value, ts〉 verifies) and ts is newer.
      const Bytes stmt = bqs_value_statement(req->object, req->ts,
                                             crypto::sha256(req->value));
      if (quorum::is_replica_principal(req->client) ||
          !keystore_.verify_cached(quorum::client_principal(req->client), stmt,
                            req->sig)) {
        metrics_.inc("drop_bad_auth");
        return;
      }
      BqsEntry& entry = objects_[req->object];
      if (req->ts > entry.ts) {
        entry.value = req->value;
        entry.ts = req->ts;
        entry.writer = req->client;
        entry.writer_sig = req->sig;
        metrics_.inc("state_overwritten");
      }
      BqsWriteRep rep;
      rep.object = req->object;
      rep.ts = req->ts;
      rep.replica = id_;
      auto sig = signer_.sign(rep.signing_payload());
      rep.auth = sig.is_ok() ? std::move(sig).take() : Bytes{};
      metrics_.inc("reply_write");
      send(rpc::MsgType::kBqsWriteReply, rep.encode());
      break;
    }
    case rpc::MsgType::kBqsRead: {
      auto req = BqsReadReq::decode(env.body);
      if (!req) return;
      BqsReadRep rep;
      rep.object = req->object;
      rep.nonce = req->nonce;
      rep.entry = objects_[req->object];
      rep.replica = id_;
      auto sig = signer_.sign(rep.signing_payload());
      rep.auth = sig.is_ok() ? std::move(sig).take() : Bytes{};
      metrics_.inc("reply_read");
      send(rpc::MsgType::kBqsReadReply, rep.encode());
      break;
    }
    default:
      // The shared MsgType enum spans every protocol family; a BQS
      // replica ignores the BFT-BC / SBQL / Phalanx types by design.
      break;
  }
}

// ------------------------------------------------------------ client

struct BqsClient::Op {
  std::uint64_t op_id = 0;
  ObjectId object = 0;
  int phases = 0;
  bool is_write = false;
  Bytes value;
  crypto::Nonce nonce;
  Timestamp max_ts;
  // read harvest
  bool any = false;
  BqsEntry best;
  std::set<std::pair<std::uint64_t, ClientId>> versions;
  WriteCallback wcb;
  ReadCallback rcb;
  std::unique_ptr<rpc::QuorumCall> call;
  sim::TimerId deadline_timer = 0;
};

BqsClient::BqsClient(const quorum::QuorumConfig& config, ClientId id,
                     crypto::Keystore& keystore, rpc::Transport& transport,
                     sim::Scheduler& scheduler,
                     std::vector<sim::NodeId> replica_nodes, Rng rng,
                     BqsClientOptions options)
    : ClientEndpoint(config, id, keystore, transport, scheduler,
                     std::move(replica_nodes), rng, /*first_rpc_id=*/1),
      options_(options) {}

BqsClient::~BqsClient() = default;

void BqsClient::on_envelope(sim::NodeId from, const rpc::Envelope& env) {
  for (auto& [op_id, op] : ops_) {
    if (op->call && op->call->on_reply(from, env)) return;
  }
}

void BqsClient::write(ObjectId object, Bytes value, WriteCallback cb) {
  auto owned = std::make_unique<Op>();
  Op& op = *owned;
  op.op_id = next_op_id_++;
  op.object = object;
  op.is_write = true;
  op.value = std::move(value);
  op.wcb = std::move(cb);
  op.nonce = nonces_.next();
  ops_[op.op_id] = std::move(owned);
  metrics_.inc("writes");

  BqsReadTsReq req;
  req.object = object;
  req.nonce = op.nonce;
  const std::uint64_t op_id = op.op_id;
  ++op.phases;
  op.call = std::make_unique<rpc::QuorumCall>(
      sim_, transport_, replica_nodes_, config_.q,
      make_request(rpc::MsgType::kBqsReadTs, req.encode()),
      [this, op_id](std::uint32_t idx, const rpc::Envelope& e) {
        auto it = ops_.find(op_id);
        if (it == ops_.end() || e.type != rpc::MsgType::kBqsReadTsReply)
          return false;
        Op& op = *it->second;
        auto m = BqsReadTsRep::decode(e.body);
        if (!m || m->object != op.object || m->nonce != op.nonce ||
            m->replica != idx) {
          return false;
        }
        if (!keystore_.verify_cached(quorum::replica_principal(idx),
                              m->signing_payload(), m->auth)) {
          return false;
        }
        if (m->ts > op.max_ts) op.max_ts = m->ts;
        return true;
      },
      [this, op_id] {
        auto it = ops_.find(op_id);
        if (it == ops_.end()) return;
        Op& op = *it->second;
        // Phase 2: write 〈value, succ(max_ts)〉 signed by us.
        const Timestamp t = op.max_ts.succ(id_);
        BqsWriteReq req;
        req.object = op.object;
        req.value = op.value;
        req.ts = t;
        req.client = id_;
        auto sig = signer_.sign(
            bqs_value_statement(op.object, t, crypto::sha256(op.value)));
        if (!sig.is_ok()) {
          WriteCallback cb = std::move(op.wcb);
          retired_.push_back(std::move(op.call));
          ops_.erase(op_id);
          if (cb) cb(Result<WriteResult>(sig.status()));
          return;
        }
        req.sig = std::move(sig).take();
        ++op.phases;
        retired_.push_back(std::move(op.call));
        op.call = std::make_unique<rpc::QuorumCall>(
            sim_, transport_, replica_nodes_, config_.q,
            make_request(rpc::MsgType::kBqsWrite, req.encode()),
            [this, op_id, t](std::uint32_t idx, const rpc::Envelope& e) {
              auto it = ops_.find(op_id);
              if (it == ops_.end() || e.type != rpc::MsgType::kBqsWriteReply)
                return false;
              Op& op = *it->second;
              auto m = BqsWriteRep::decode(e.body);
              if (!m || m->object != op.object || m->ts != t ||
                  m->replica != idx) {
                return false;
              }
              return keystore_.verify_cached(quorum::replica_principal(idx),
                                      m->signing_payload(), m->auth);
            },
            [this, op_id, t] {
              auto it = ops_.find(op_id);
              if (it == ops_.end()) return;
              Op& op = *it->second;
              metrics_.inc("write_phases",
                           static_cast<std::uint64_t>(op.phases));
              WriteResult result{t, op.phases};
              WriteCallback cb = std::move(op.wcb);
              retired_.push_back(std::move(op.call));
              ops_.erase(op_id);
              if (cb) cb(Result<WriteResult>(result));
            },
            nullptr, options_.rpc);
      },
      nullptr, options_.rpc);
}

void BqsClient::read(ObjectId object, ReadCallback cb) {
  auto owned = std::make_unique<Op>();
  Op& op = *owned;
  op.op_id = next_op_id_++;
  op.object = object;
  op.rcb = std::move(cb);
  op.nonce = nonces_.next();
  ops_[op.op_id] = std::move(owned);
  metrics_.inc("reads");

  BqsReadReq req;
  req.object = object;
  req.nonce = op.nonce;
  const std::uint64_t op_id = op.op_id;
  ++op.phases;
  op.call = std::make_unique<rpc::QuorumCall>(
      sim_, transport_, replica_nodes_, config_.q,
      make_request(rpc::MsgType::kBqsRead, req.encode()),
      [this, op_id](std::uint32_t idx, const rpc::Envelope& e) {
        auto it = ops_.find(op_id);
        if (it == ops_.end() || e.type != rpc::MsgType::kBqsReadReply)
          return false;
        Op& op = *it->second;
        auto m = BqsReadRep::decode(e.body);
        if (!m || m->object != op.object || m->nonce != op.nonce ||
            m->replica != idx) {
          return false;
        }
        if (!keystore_.verify_cached(quorum::replica_principal(idx),
                              m->signing_payload(), m->auth)) {
          return false;
        }
        // Value must carry a valid writer signature (or be genesis).
        if (!m->entry.verify(op.object, keystore_)) return false;
        op.versions.insert({m->entry.ts.val, m->entry.ts.id});
        if (!op.any || m->entry.ts > op.best.ts) {
          op.any = true;
          op.best = m->entry;
        }
        return true;
      },
      [this, op_id] {
        auto it = ops_.find(op_id);
        if (it == ops_.end()) return;
        Op& op = *it->second;
        if (!options_.write_back_reads || op.versions.size() <= 1) {
          metrics_.inc("read_phases", static_cast<std::uint64_t>(op.phases));
          ReadResult result{op.best.value, op.best.ts, op.phases};
          ReadCallback cb = std::move(op.rcb);
          retired_.push_back(std::move(op.call));
          ops_.erase(op_id);
          if (cb) cb(Result<ReadResult>(std::move(result)));
          return;
        }
        // Write-back phase (Phalanx extension): replay the winning entry
        // with its ORIGINAL writer signature.
        BqsWriteReq wreq;
        wreq.object = op.object;
        wreq.value = op.best.value;
        wreq.ts = op.best.ts;
        wreq.client = op.best.writer;
        wreq.sig = op.best.writer_sig;
        const Timestamp t = op.best.ts;
        ++op.phases;
        retired_.push_back(std::move(op.call));
        op.call = std::make_unique<rpc::QuorumCall>(
            sim_, transport_, replica_nodes_, config_.q,
            make_request(rpc::MsgType::kBqsWrite, wreq.encode()),
            [this, op_id, t](std::uint32_t idx, const rpc::Envelope& e) {
              auto it = ops_.find(op_id);
              if (it == ops_.end() || e.type != rpc::MsgType::kBqsWriteReply)
                return false;
              auto m = BqsWriteRep::decode(e.body);
              if (!m || m->ts != t || m->replica != idx) return false;
              return keystore_.verify_cached(quorum::replica_principal(idx),
                                      m->signing_payload(), m->auth);
            },
            [this, op_id] {
              auto it = ops_.find(op_id);
              if (it == ops_.end()) return;
              Op& op = *it->second;
              metrics_.inc("read_phases",
                           static_cast<std::uint64_t>(op.phases));
              ReadResult result{op.best.value, op.best.ts, op.phases};
              ReadCallback cb = std::move(op.rcb);
              retired_.push_back(std::move(op.call));
              ops_.erase(op_id);
              if (cb) cb(Result<ReadResult>(std::move(result)));
            },
            nullptr, options_.rpc);
      },
      nullptr, options_.rpc);
}

// ------------------------------------------------------------ attacker

BqsEquivocator::BqsEquivocator(const quorum::QuorumConfig& config, ClientId id,
                               crypto::Keystore& keystore,
                               rpc::Transport& transport,
                               sim::Scheduler& scheduler,
                               std::vector<sim::NodeId> replica_nodes, Rng rng)
    : ClientEndpoint(config, id, keystore, transport, scheduler,
                     std::move(replica_nodes), rng, /*first_rpc_id=*/0xbad) {}

void BqsEquivocator::on_envelope(sim::NodeId from, const rpc::Envelope& env) {
  if (call_) call_->on_reply(from, env);
}

void BqsEquivocator::attack(ObjectId object, Bytes v1, Bytes v2,
                            std::function<void()> done) {
  BqsReadTsReq req;
  req.object = object;
  req.nonce = nonces_.next();
  const crypto::Nonce nonce = req.nonce;

  auto max_ts = std::make_shared<Timestamp>();
  call_ = std::make_unique<rpc::QuorumCall>(
      sim_, transport_, replica_nodes_, config_.q,
      make_request(rpc::MsgType::kBqsReadTs, req.encode()),
      [this, object, nonce, max_ts](std::uint32_t idx,
                                    const rpc::Envelope& e) {
        if (e.type != rpc::MsgType::kBqsReadTsReply) return false;
        auto m = BqsReadTsRep::decode(e.body);
        if (!m || m->object != object || m->nonce != nonce ||
            m->replica != idx)
          return false;
        if (m->ts > *max_ts) *max_ts = m->ts;
        return true;
      },
      [this, object, v1 = std::move(v1), v2 = std::move(v2), max_ts,
       done = std::move(done)] {
        retired_.push_back(std::move(call_));
        const Timestamp t = max_ts->succ(id_);
        // Sign BOTH values for the same timestamp — BQS replicas accept
        // whichever reaches them. Split the group in half.
        auto send_half = [&](const Bytes& v, std::size_t lo, std::size_t hi) {
          BqsWriteReq w;
          w.object = object;
          w.value = v;
          w.ts = t;
          w.client = id_;
          auto sig =
              signer_.sign(bqs_value_statement(object, t, crypto::sha256(v)));
          if (!sig.is_ok()) return;
          w.sig = std::move(sig).take();
          const rpc::Envelope env =
              make_request(rpc::MsgType::kBqsWrite, w.encode());
          for (std::size_t i = lo; i < hi; ++i)
            transport_.send(replica_nodes_[i], env);
        };
        const std::size_t half = replica_nodes_.size() / 2;
        send_half(v1, 0, half);
        send_half(v2, half, replica_nodes_.size());
        done();
      });
}

}  // namespace bftbc::baselines
