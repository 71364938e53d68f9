#include "faults/byzantine_replica.h"

namespace bftbc::faults {

// -------------------------------------------------------- GarbageSig

void GarbageSigReplica::reply(sim::NodeId to, rpc::MsgType type,
                              std::uint64_t rpc_id, Bytes body,
                              sim::Time processing_cost) {
  if (!body.empty()) {
    // Flip a byte near the end, where signatures live in every reply
    // encoding; the statement content stays plausible but verification
    // fails.
    body[body.size() - 1] ^= 0x5a;
    if (body.size() > 8) body[body.size() - 8] ^= 0xa5;
    metrics_.inc("byz_corrupted_reply");
  }
  Replica::reply(to, type, rpc_id, std::move(body), processing_cost);
}

// -------------------------------------------------------- EquivocSign

void EquivocSignReplica::on_envelope(sim::NodeId from,
                                     const rpc::Envelope& env) {
  if (env.type == rpc::MsgType::kPrepare) {
    // Sign whatever the client asks, ignoring the prepare list — the
    // accomplice a Byzantine client needs to equivocate. Skips every
    // Figure 2 check.
    auto req = core::PrepareRequest::decode(env.body);
    if (!req.has_value()) return;
    sim::Time cost = 0;
    core::PrepareReply rep;
    rep.object = req->object;
    rep.t = req->t;
    rep.hash = req->hash;
    rep.replica = id_;
    const Slots slots{stage_foreground(
        quorum::prepare_reply_statement(req->object, req->t, req->hash),
        cost)};
    metrics_.inc("byz_equivoc_sign");
    reply_after_batch(from, rpc::MsgType::kPrepareReply, env.rpc_id,
                      std::move(rep), slots, std::nullopt, cost);
    return;
  }
  Replica::on_envelope(from, env);
}

// -------------------------------------------------------- FlipValue

void FlipValueReplica::on_envelope(sim::NodeId from, const rpc::Envelope& env) {
  if (env.type == rpc::MsgType::kRead) {
    auto req = core::ReadRequest::decode(env.body);
    if (!req.has_value()) return;
    core::ObjectState& state = object(req->object);
    sim::Time cost = 0;

    core::ReadReply rep;
    rep.object = req->object;
    // Lie about the value while presenting the genuine certificate; a
    // correct reader detects h(value) != cert.h and rejects the reply.
    rep.value = to_bytes("BYZANTINE-GARBAGE");
    rep.pcert = state.pcert();
    rep.nonce = req->nonce;
    rep.replica = id_;
    rep.auth = p2p_auth(env.sender, rep.signing_payload(), cost);
    metrics_.inc("byz_flipped_value");
    reply(from, rpc::MsgType::kReadReply, env.rpc_id, rep.encode(), cost);
    return;
  }
  Replica::on_envelope(from, env);
}

}  // namespace bftbc::faults
