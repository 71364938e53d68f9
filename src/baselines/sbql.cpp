#include "baselines/sbql.h"

#include "util/codec.h"

namespace bftbc::baselines {

namespace {

// Wire formats local to the SBQ-L baseline.

struct SbqlTsMsg {  // READ-TS request/READ request (object + nonce)
  ObjectId object = 0;
  crypto::Nonce nonce;
  Bytes encode() const {
    Writer w;
    w.put_u64(object);
    nonce.encode(w);
    return std::move(w).take();
  }
  static std::optional<SbqlTsMsg> decode(BytesView b) {
    Reader r(b);
    SbqlTsMsg m;
    m.object = r.get_u64();
    m.nonce = crypto::Nonce::decode(r);
    if (!r.done()) return std::nullopt;
    return m;
  }
};

struct SbqlTsRep {
  ObjectId object = 0;
  crypto::Nonce nonce;
  Timestamp ts;
  ReplicaId replica = 0;
  Bytes encode() const {
    Writer w;
    w.put_u64(object);
    nonce.encode(w);
    ts.encode(w);
    w.put_u32(replica);
    return std::move(w).take();
  }
  static std::optional<SbqlTsRep> decode(BytesView b) {
    Reader r(b);
    SbqlTsRep m;
    m.object = r.get_u64();
    m.nonce = crypto::Nonce::decode(r);
    m.ts = Timestamp::decode(r);
    m.replica = r.get_u32();
    if (!r.done()) return std::nullopt;
    return m;
  }
};

struct SbqlWriteMsg {
  ObjectId object = 0;
  Bytes value;
  Timestamp ts;
  Bytes encode() const {
    Writer w;
    w.put_u64(object);
    w.put_bytes(value);
    ts.encode(w);
    return std::move(w).take();
  }
  static std::optional<SbqlWriteMsg> decode(BytesView b) {
    Reader r(b);
    SbqlWriteMsg m;
    m.object = r.get_u64();
    m.value = r.get_bytes();
    m.ts = Timestamp::decode(r);
    if (!r.done()) return std::nullopt;
    return m;
  }
};

struct SbqlAck {
  ObjectId object = 0;
  Timestamp ts;
  ReplicaId replica = 0;
  Bytes encode() const {
    Writer w;
    w.put_u64(object);
    ts.encode(w);
    w.put_u32(replica);
    return std::move(w).take();
  }
  static std::optional<SbqlAck> decode(BytesView b) {
    Reader r(b);
    SbqlAck m;
    m.object = r.get_u64();
    m.ts = Timestamp::decode(r);
    m.replica = r.get_u32();
    if (!r.done()) return std::nullopt;
    return m;
  }
};

struct SbqlForwardMsg {
  std::uint64_t seq = 0;  // per-sender sequence for acking
  ObjectId object = 0;
  Bytes value;
  Timestamp ts;
  Bytes encode() const {
    Writer w;
    w.put_u64(seq);
    w.put_u64(object);
    w.put_bytes(value);
    ts.encode(w);
    return std::move(w).take();
  }
  static std::optional<SbqlForwardMsg> decode(BytesView b) {
    Reader r(b);
    SbqlForwardMsg m;
    m.seq = r.get_u64();
    m.object = r.get_u64();
    m.value = r.get_bytes();
    m.ts = Timestamp::decode(r);
    if (!r.done()) return std::nullopt;
    return m;
  }
};

struct SbqlReadRep {
  ObjectId object = 0;
  crypto::Nonce nonce;
  Bytes value;
  Timestamp ts;
  ReplicaId replica = 0;
  Bytes encode() const {
    Writer w;
    w.put_u64(object);
    nonce.encode(w);
    w.put_bytes(value);
    ts.encode(w);
    w.put_u32(replica);
    return std::move(w).take();
  }
  static std::optional<SbqlReadRep> decode(BytesView b) {
    Reader r(b);
    SbqlReadRep m;
    m.object = r.get_u64();
    m.nonce = crypto::Nonce::decode(r);
    m.value = r.get_bytes();
    m.ts = Timestamp::decode(r);
    m.replica = r.get_u32();
    if (!r.done()) return std::nullopt;
    return m;
  }
};

}  // namespace

// ------------------------------------------------------------ replica

SbqlReplica::SbqlReplica(const quorum::QuorumConfig& config, ReplicaId id,
                         crypto::Keystore& keystore, rpc::Transport& transport,
                         sim::Scheduler& scheduler,
                         std::vector<sim::NodeId> peer_nodes,
                         sim::Time retransmit_period)
    : config_(config),
      id_(id),
      keystore_(keystore),
      signer_(keystore.register_principal(quorum::replica_principal(id))),
      transport_(transport),
      sim_(scheduler),
      peer_nodes_(std::move(peer_nodes)),
      retransmit_period_(retransmit_period) {
  transport_.set_receiver([this](sim::NodeId from, const rpc::Envelope& env) {
    on_envelope(from, env);
  });
  flush_timer_ = sim_.schedule(retransmit_period_, [this] { flush_outboxes(); });
}

SbqlReplica::~SbqlReplica() { sim_.cancel(flush_timer_); }

const SbqlReplica::Stored* SbqlReplica::stored(ObjectId object) const {
  auto it = objects_.find(object);
  return it == objects_.end() ? nullptr : &it->second;
}

std::size_t SbqlReplica::outbox_bytes() const {
  std::size_t total = 0;
  for (const auto& [peer, queue] : outbox_) {
    for (const auto& pending : queue) total += pending.payload.size();
  }
  return total;
}

std::size_t SbqlReplica::outbox_messages() const {
  std::size_t total = 0;
  for (const auto& [peer, queue] : outbox_) total += queue.size();
  return total;
}

void SbqlReplica::apply(ObjectId object, const Timestamp& ts,
                        const Bytes& value) {
  Stored& entry = objects_[object];
  // §8: servers "keep the highest value for each timestamp" so that a
  // Byzantine client splitting values across replicas still converges.
  if (ts > entry.ts || (ts == entry.ts && value > entry.value)) {
    entry.ts = ts;
    entry.value = value;
    metrics_.inc("state_overwritten");
  }
}

void SbqlReplica::forward_reliably(ObjectId object, const Timestamp& ts,
                                   const Bytes& value) {
  SbqlForwardMsg msg;
  msg.object = object;
  msg.value = value;
  msg.ts = ts;
  for (sim::NodeId peer : peer_nodes_) {
    if (peer == transport_.node_id()) continue;
    msg.seq = next_seq_++;
    // The reliable-network assumption made concrete: remember the message
    // until the peer acknowledges it, however long that takes.
    outbox_[peer].push_back(PendingForward{msg.seq, msg.encode()});
    rpc::Envelope env;
    env.type = rpc::MsgType::kSbqlForward;
    env.rpc_id = msg.seq;
    env.sender = quorum::replica_principal(id_);
    env.body = outbox_[peer].back().payload;
    transport_.send(peer, env);
    metrics_.inc("forwards_sent");
  }
}

void SbqlReplica::flush_outboxes() {
  for (auto& [peer, queue] : outbox_) {
    for (const auto& pending : queue) {
      rpc::Envelope env;
      env.type = rpc::MsgType::kSbqlForward;
      env.rpc_id = pending.seq;
      env.sender = quorum::replica_principal(id_);
      env.body = pending.payload;
      transport_.send(peer, env);
      metrics_.inc("forwards_retransmitted");
    }
  }
  flush_timer_ = sim_.schedule(retransmit_period_, [this] { flush_outboxes(); });
}

void SbqlReplica::on_envelope(sim::NodeId from, const rpc::Envelope& env) {
  auto send = [&](rpc::MsgType type, Bytes body) {
    rpc::Envelope out;
    out.type = type;
    out.rpc_id = env.rpc_id;
    out.sender = quorum::replica_principal(id_);
    out.body = std::move(body);
    transport_.send(from, out);
  };

  switch (env.type) {
    case rpc::MsgType::kSbqlReadTs: {
      auto req = SbqlTsMsg::decode(env.body);
      if (!req) return;
      SbqlTsRep rep;
      rep.object = req->object;
      rep.nonce = req->nonce;
      rep.ts = objects_[req->object].ts;
      rep.replica = id_;
      send(rpc::MsgType::kSbqlReadTsReply, rep.encode());
      break;
    }
    case rpc::MsgType::kSbqlWrite: {
      auto req = SbqlWriteMsg::decode(env.body);
      if (!req) return;
      apply(req->object, req->ts, req->value);
      // The server-to-server propagation §8 describes.
      forward_reliably(req->object, req->ts, req->value);
      SbqlAck ack;
      ack.object = req->object;
      ack.ts = req->ts;
      ack.replica = id_;
      metrics_.inc("reply_write");
      send(rpc::MsgType::kSbqlWriteReply, ack.encode());
      break;
    }
    case rpc::MsgType::kSbqlForward: {
      auto msg = SbqlForwardMsg::decode(env.body);
      if (!msg || !quorum::is_replica_principal(env.sender)) return;
      apply(msg->object, msg->ts, msg->value);
      // Ack so the sender can drop its buffer entry.
      rpc::Envelope ack;
      ack.type = rpc::MsgType::kSbqlForwardAck;
      ack.rpc_id = msg->seq;
      ack.sender = quorum::replica_principal(id_);
      transport_.send(from, ack);
      break;
    }
    case rpc::MsgType::kSbqlForwardAck: {
      auto& queue = outbox_[from];
      for (auto it = queue.begin(); it != queue.end(); ++it) {
        if (it->seq == env.rpc_id) {
          queue.erase(it);
          break;
        }
      }
      break;
    }
    case rpc::MsgType::kSbqlRead: {
      auto req = SbqlTsMsg::decode(env.body);
      if (!req) return;
      const Stored& entry = objects_[req->object];
      SbqlReadRep rep;
      rep.object = req->object;
      rep.nonce = req->nonce;
      rep.value = entry.value;
      rep.ts = entry.ts;
      rep.replica = id_;
      metrics_.inc("reply_read");
      send(rpc::MsgType::kSbqlReadReply, rep.encode());
      break;
    }
    default:
      // The shared MsgType enum spans every protocol family; an SBQL
      // replica ignores the BFT-BC / BQS / Phalanx types by design.
      break;
  }
}

// ------------------------------------------------------------ client

struct SbqlClient::Op {
  std::uint64_t op_id = 0;
  ObjectId object = 0;
  bool is_write = false;
  int phases = 0;
  int rounds = 0;
  Bytes value;
  crypto::Nonce nonce;
  Timestamp max_ts;
  // read round harvest: replica -> (ts, value)
  std::map<ReplicaId, std::pair<Timestamp, Bytes>> replies;
  WriteCallback wcb;
  ReadCallback rcb;
  std::unique_ptr<rpc::QuorumCall> call;
  sim::TimerId reread_timer = 0;
};

SbqlClient::SbqlClient(const quorum::QuorumConfig& config, quorum::ClientId id,
                       crypto::Keystore& keystore, rpc::Transport& transport,
                       sim::Scheduler& scheduler,
                       std::vector<sim::NodeId> replica_nodes, Rng rng,
                       SbqlClientOptions options)
    : ClientEndpoint(config, id, keystore, transport, scheduler,
                     std::move(replica_nodes), rng, /*first_rpc_id=*/1),
      options_(options) {}

SbqlClient::~SbqlClient() {
  for (auto& [op_id, op] : ops_) sim_.cancel(op->reread_timer);
}

void SbqlClient::on_envelope(sim::NodeId from, const rpc::Envelope& env) {
  for (auto& [op_id, op] : ops_) {
    if (op->call && op->call->on_reply(from, env)) return;
  }
}

void SbqlClient::write(ObjectId object, Bytes value, WriteCallback cb) {
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

  SbqlTsMsg req;
  req.object = object;
  req.nonce = op.nonce;
  const std::uint64_t op_id = op.op_id;
  ++op.phases;
  op.call = std::make_unique<rpc::QuorumCall>(
      sim_, transport_, replica_nodes_, config_.q,
      make_request(rpc::MsgType::kSbqlReadTs, req.encode()),
      [this, op_id](std::uint32_t idx, const rpc::Envelope& e) {
        auto it = ops_.find(op_id);
        if (it == ops_.end() || e.type != rpc::MsgType::kSbqlReadTsReply)
          return false;
        Op& op = *it->second;
        auto m = SbqlTsRep::decode(e.body);
        if (!m || m->object != op.object || m->nonce != op.nonce ||
            m->replica != idx)
          return false;
        if (m->ts > op.max_ts) op.max_ts = m->ts;
        return true;
      },
      [this, op_id] {
        auto it = ops_.find(op_id);
        if (it == ops_.end()) return;
        Op& op = *it->second;
        const Timestamp t = op.max_ts.succ(id_);
        SbqlWriteMsg msg;
        msg.object = op.object;
        msg.value = op.value;
        msg.ts = t;
        ++op.phases;
        retired_.push_back(std::move(op.call));
        op.call = std::make_unique<rpc::QuorumCall>(
            sim_, transport_, replica_nodes_, config_.q,
            make_request(rpc::MsgType::kSbqlWrite, msg.encode()),
            [this, op_id, t](std::uint32_t idx, const rpc::Envelope& e) {
              auto it = ops_.find(op_id);
              if (it == ops_.end() || e.type != rpc::MsgType::kSbqlWriteReply)
                return false;
              auto m = SbqlAck::decode(e.body);
              return m && m->ts == t && m->replica == idx;
            },
            [this, op_id, t] {
              auto it = ops_.find(op_id);
              if (it == ops_.end()) return;
              Op& op = *it->second;
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

void SbqlClient::read(ObjectId object, ReadCallback cb) {
  auto owned = std::make_unique<Op>();
  Op& op = *owned;
  op.op_id = next_op_id_++;
  op.object = object;
  op.rcb = std::move(cb);
  ops_[op.op_id] = std::move(owned);
  metrics_.inc("reads");
  start_read_round(op.op_id);
}

void SbqlClient::start_read_round(std::uint64_t op_id) {
  auto it = ops_.find(op_id);
  if (it == ops_.end()) return;
  Op& op = *it->second;
  ++op.rounds;
  op.nonce = nonces_.next();
  op.replies.clear();

  SbqlTsMsg req;
  req.object = op.object;
  req.nonce = op.nonce;
  if (op.call) retired_.push_back(std::move(op.call));
  op.call = std::make_unique<rpc::QuorumCall>(
      sim_, transport_, replica_nodes_, config_.q,
      make_request(rpc::MsgType::kSbqlRead, req.encode()),
      [this, op_id](std::uint32_t idx, const rpc::Envelope& e) {
        auto it = ops_.find(op_id);
        if (it == ops_.end() || e.type != rpc::MsgType::kSbqlReadReply)
          return false;
        Op& op = *it->second;
        auto m = SbqlReadRep::decode(e.body);
        if (!m || m->object != op.object || m->nonce != op.nonce ||
            m->replica != idx)
          return false;
        op.replies[idx] = {m->ts, m->value};
        return true;
      },
      [this, op_id] {
        auto it = ops_.find(op_id);
        if (it == ops_.end()) return;
        Op& op = *it->second;
        // The SBQ-L read rule: 2f+1 IDENTICAL replies or try again.
        std::map<std::pair<std::pair<std::uint64_t, quorum::ClientId>, Bytes>,
                 int>
            tally;
        for (const auto& [r, tv] : op.replies) {
          ++tally[{{tv.first.val, tv.first.id}, tv.second}];
        }
        for (const auto& [key, count] : tally) {
          if (static_cast<std::uint32_t>(count) >= config_.q) {
            metrics_.inc("read_rounds",
                         static_cast<std::uint64_t>(op.rounds));
            ReadResult result;
            result.value = key.second;
            result.ts = Timestamp{key.first.first, key.first.second};
            result.rounds = op.rounds;
            ReadCallback cb = std::move(op.rcb);
            retired_.push_back(std::move(op.call));
            sim_.cancel(op.reread_timer);
            ops_.erase(op_id);
            if (cb) cb(Result<ReadResult>(std::move(result)));
            return;
          }
        }
        if (op.rounds >= options_.max_read_rounds) {
          metrics_.inc("read_gave_up");
          ReadCallback cb = std::move(op.rcb);
          retired_.push_back(std::move(op.call));
          ops_.erase(op_id);
          if (cb) {
            cb(Result<ReadResult>(
                timeout_error("no 2f+1 identical replies after max rounds")));
          }
          return;
        }
        metrics_.inc("read_retry_rounds");
        op.reread_timer = sim_.schedule(options_.reread_delay, [this, op_id] {
          start_read_round(op_id);
        });
      },
      nullptr, options_.rpc);
}

}  // namespace bftbc::baselines
