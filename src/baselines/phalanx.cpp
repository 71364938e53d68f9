#include "baselines/phalanx.h"

#include "util/codec.h"

namespace bftbc::baselines {

namespace {

// Wire formats local to the Phalanx baseline, one field list each
// (util/codec.h). The echo round reuses the kPhalanxWrite envelope type
// with an is_echo flag.

struct PhxWriteMsg : wire::Message<PhxWriteMsg> {
  ObjectId object = 0;
  Bytes value;
  Timestamp ts;
  bool is_echo = false;
  ReplicaId echoer = 0;  // meaningful when is_echo
  static auto fields(auto& m) {
    return std::tie(m.object, m.value, m.ts, m.is_echo, m.echoer);
  }
};

struct PhxAck : wire::Message<PhxAck> {
  ObjectId object = 0;
  Timestamp ts;
  ReplicaId replica = 0;
  static auto fields(auto& m) { return std::tie(m.object, m.ts, m.replica); }
};

struct PhxReadTsReq : wire::Message<PhxReadTsReq> {
  ObjectId object = 0;
  crypto::Nonce nonce;
  static auto fields(auto& m) { return std::tie(m.object, m.nonce); }
};

struct PhxReadTsRep : wire::Message<PhxReadTsRep> {
  ObjectId object = 0;
  crypto::Nonce nonce;
  Timestamp ts;
  ReplicaId replica = 0;
  static auto fields(auto& m) {
    return std::tie(m.object, m.nonce, m.ts, m.replica);
  }
};

struct PhxReadRep : wire::Message<PhxReadRep> {
  ObjectId object = 0;
  crypto::Nonce nonce;
  Bytes value;
  Timestamp ts;
  ReplicaId replica = 0;
  static auto fields(auto& m) {
    return std::tie(m.object, m.nonce, m.value, m.ts, m.replica);
  }
};

}  // namespace

// ------------------------------------------------------------ replica

PhalanxReplica::PhalanxReplica(const quorum::QuorumConfig& config,
                               ReplicaId id, crypto::Keystore& keystore,
                               rpc::Transport& transport,
                               std::vector<sim::NodeId> peer_nodes)
    : config_(config),
      id_(id),
      keystore_(keystore),
      signer_(keystore.register_principal(quorum::replica_principal(id))),
      transport_(transport),
      peer_nodes_(std::move(peer_nodes)) {
  transport_.set_receiver([this](sim::NodeId from, const rpc::Envelope& env) {
    on_envelope(from, env);
  });
}

const PhalanxReplica::Committed* PhalanxReplica::committed(
    ObjectId object) const {
  auto it = objects_.find(object);
  return it == objects_.end() ? nullptr : &it->second.committed;
}

void PhalanxReplica::start_echo(ObjectId object, const Timestamp& ts,
                                const Bytes& value) {
  PhxWriteMsg echo;
  echo.object = object;
  echo.value = value;
  echo.ts = ts;
  echo.is_echo = true;
  echo.echoer = id_;
  rpc::Envelope env;
  env.type = rpc::MsgType::kPhalanxWrite;
  env.rpc_id = 0;
  env.sender = quorum::replica_principal(id_);
  env.body = echo.encode();
  for (sim::NodeId peer : peer_nodes_) {
    if (peer != transport_.node_id()) transport_.send(peer, env);
  }
  metrics_.inc("echo_broadcast");
  absorb_echo(object, ts, value, id_);  // count ourselves
}

void PhalanxReplica::absorb_echo(ObjectId object, const Timestamp& ts,
                                 const Bytes& value, ReplicaId echoer) {
  ObjectData& data = objects_[object];
  if (!(ts > data.committed.ts)) return;  // already superseded
  const Bytes h = crypto::digest_bytes(crypto::sha256(value));
  EchoState& state = data.echoes[{{ts.val, ts.id}, h}];
  if (state.value.empty()) state.value = value;
  state.echoers.insert(echoer);
  if (state.echoers.size() >= config_.q) {
    // A masking quorum vouches for this (ts, value): commit.
    data.committed.value = state.value;
    data.committed.ts = ts;
    metrics_.inc("committed");
    // Drop superseded echo bookkeeping.
    for (auto it = data.echoes.begin(); it != data.echoes.end();) {
      const Timestamp ets{it->first.first.first, it->first.first.second};
      if (ets <= ts) {
        it = data.echoes.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void PhalanxReplica::on_envelope(sim::NodeId from, const rpc::Envelope& env) {
  auto send = [&](rpc::MsgType type, Bytes body) {
    rpc::Envelope out;
    out.type = type;
    out.rpc_id = env.rpc_id;
    out.sender = quorum::replica_principal(id_);
    out.body = std::move(body);
    transport_.send(from, out);
  };

  switch (env.type) {
    case rpc::MsgType::kPhalanxReadTs: {
      auto req = PhxReadTsReq::decode(env.body);
      if (!req) return;
      PhxReadTsRep rep;
      rep.object = req->object;
      rep.nonce = req->nonce;
      rep.ts = objects_[req->object].committed.ts;
      rep.replica = id_;
      metrics_.inc("reply_read_ts");
      send(rpc::MsgType::kPhalanxReadTsReply, rep.encode());
      break;
    }
    case rpc::MsgType::kPhalanxWrite: {
      auto msg = PhxWriteMsg::decode(env.body);
      if (!msg) return;
      if (msg->is_echo) {
        // Echo from a peer replica (authenticated at the transport level
        // in a deployment; here the envelope sender is trusted as the
        // network delivers from-ids faithfully).
        if (quorum::is_replica_principal(env.sender) &&
            config_.valid_replica(msg->echoer)) {
          metrics_.inc("echo_received");
          absorb_echo(msg->object, msg->ts, msg->value, msg->echoer);
        }
        return;  // echoes are not acked
      }
      // Client write: ack immediately, then propagate via echo. The ack
      // means "received", not "committed" — commitment needs the quorum
      // of echoes (this is the three-message-delay write).
      metrics_.inc("reply_write");
      start_echo(msg->object, msg->ts, msg->value);
      PhxAck ack;
      ack.object = msg->object;
      ack.ts = msg->ts;
      ack.replica = id_;
      send(rpc::MsgType::kPhalanxWriteReply, ack.encode());
      break;
    }
    case rpc::MsgType::kPhalanxRead: {
      auto req = PhxReadTsReq::decode(env.body);  // same shape
      if (!req) return;
      const ObjectData& data = objects_[req->object];
      PhxReadRep rep;
      rep.object = req->object;
      rep.nonce = req->nonce;
      rep.value = data.committed.value;
      rep.ts = data.committed.ts;
      rep.replica = id_;
      metrics_.inc("reply_read");
      send(rpc::MsgType::kPhalanxReadReply, rep.encode());
      break;
    }
    default:
      // The shared MsgType enum spans every protocol family; a Phalanx
      // replica ignores the BFT-BC / BQS / SBQL types by design.
      break;
  }
}

// ------------------------------------------------------------ client

struct PhalanxClient::Op {
  std::uint64_t op_id = 0;
  ObjectId object = 0;
  int phases = 0;
  Bytes value;
  crypto::Nonce nonce;
  Timestamp max_ts;
  // read harvest: replica -> (ts, value)
  std::map<ReplicaId, std::pair<Timestamp, Bytes>> read_replies;
  WriteCallback wcb;
  ReadCallback rcb;
  std::unique_ptr<rpc::QuorumCall> call;
};

PhalanxClient::PhalanxClient(const quorum::QuorumConfig& config, ClientId id,
                             crypto::Keystore& keystore,
                             rpc::Transport& transport,
                             sim::Scheduler& scheduler,
                             std::vector<sim::NodeId> replica_nodes, Rng rng,
                             PhalanxClientOptions options)
    : ClientEndpoint(config, id, keystore, transport, scheduler,
                     std::move(replica_nodes), rng, /*first_rpc_id=*/1),
      options_(options) {}

PhalanxClient::~PhalanxClient() = default;

void PhalanxClient::on_envelope(sim::NodeId from, const rpc::Envelope& env) {
  for (auto& [op_id, op] : ops_) {
    if (op->call && op->call->on_reply(from, env)) return;
  }
}

void PhalanxClient::write(ObjectId object, Bytes value, WriteCallback cb) {
  auto owned = std::make_unique<Op>();
  Op& op = *owned;
  op.op_id = next_op_id_++;
  op.object = object;
  op.value = std::move(value);
  op.wcb = std::move(cb);
  op.nonce = nonces_.next();
  ops_[op.op_id] = std::move(owned);
  metrics_.inc("writes");

  PhxReadTsReq req;
  req.object = object;
  req.nonce = op.nonce;
  const std::uint64_t op_id = op.op_id;
  ++op.phases;
  op.call = std::make_unique<rpc::QuorumCall>(
      sim_, transport_, replica_nodes_, config_.q,
      make_request(rpc::MsgType::kPhalanxReadTs, req.encode()),
      [this, op_id](std::uint32_t idx, const rpc::Envelope& e) {
        auto it = ops_.find(op_id);
        if (it == ops_.end() || e.type != rpc::MsgType::kPhalanxReadTsReply)
          return false;
        Op& op = *it->second;
        auto m = PhxReadTsRep::decode(e.body);
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
        PhxWriteMsg msg;
        msg.object = op.object;
        msg.value = op.value;
        msg.ts = t;
        ++op.phases;
        retired_.push_back(std::move(op.call));
        op.call = std::make_unique<rpc::QuorumCall>(
            sim_, transport_, replica_nodes_, config_.q,
            make_request(rpc::MsgType::kPhalanxWrite, msg.encode()),
            [this, op_id, t](std::uint32_t idx, const rpc::Envelope& e) {
              auto it = ops_.find(op_id);
              if (it == ops_.end() ||
                  e.type != rpc::MsgType::kPhalanxWriteReply)
                return false;
              auto m = PhxAck::decode(e.body);
              return m && m->ts == t && m->replica == idx;
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

void PhalanxClient::read(ObjectId object, ReadCallback cb) {
  auto owned = std::make_unique<Op>();
  Op& op = *owned;
  op.op_id = next_op_id_++;
  op.object = object;
  op.rcb = std::move(cb);
  op.nonce = nonces_.next();
  ops_[op.op_id] = std::move(owned);
  metrics_.inc("reads");

  PhxReadTsReq req;
  req.object = object;
  req.nonce = op.nonce;
  const std::uint64_t op_id = op.op_id;
  ++op.phases;
  op.call = std::make_unique<rpc::QuorumCall>(
      sim_, transport_, replica_nodes_, config_.q,
      make_request(rpc::MsgType::kPhalanxRead, req.encode()),
      [this, op_id](std::uint32_t idx, const rpc::Envelope& e) {
        auto it = ops_.find(op_id);
        if (it == ops_.end() || e.type != rpc::MsgType::kPhalanxReadReply)
          return false;
        Op& op = *it->second;
        auto m = PhxReadRep::decode(e.body);
        if (!m || m->object != op.object || m->nonce != op.nonce ||
            m->replica != idx)
          return false;
        op.read_replies[idx] = {m->ts, m->value};
        return true;
      },
      [this, op_id] {
        auto it = ops_.find(op_id);
        if (it == ops_.end()) return;
        Op& op = *it->second;

        // Masking-quorum read rule: the highest timestamp among replies
        // is returned only if f+1 replicas vouch for the same
        // (ts, value); otherwise the read returns null.
        Timestamp top;
        for (const auto& [r, tv] : op.read_replies) {
          if (tv.first > top) top = tv.first;
        }
        std::map<Bytes, int> support;
        for (const auto& [r, tv] : op.read_replies) {
          if (tv.first == top) ++support[tv.second];
        }
        ReadResult result;
        result.ts = top;
        result.phases = op.phases;
        for (const auto& [value, count] : support) {
          if (static_cast<std::uint32_t>(count) >= config_.f + 1) {
            result.value = value;
            break;
          }
        }
        if (!result.value.has_value()) metrics_.inc("null_reads");
        metrics_.inc("read_phases", static_cast<std::uint64_t>(op.phases));

        ReadCallback cb = std::move(op.rcb);
        retired_.push_back(std::move(op.call));
        ops_.erase(op_id);
        if (cb) cb(Result<ReadResult>(std::move(result)));
      },
      nullptr, options_.rpc);
}

}  // namespace bftbc::baselines
