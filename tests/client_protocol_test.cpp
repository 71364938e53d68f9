// Message-level CLIENT tests: a real core::Client runs against fake
// replica endpoints fully controlled by the test, which feed it crafted
// (valid, invalid, and adversarial) replies. Verifies the client-side
// validation rules: a Byzantine replica's reply never counts toward a
// quorum unless it is exactly what the protocol demands. The last test
// pins the first request id of every client kind, baselines and attack
// drivers included.
#include <gtest/gtest.h>

#include <numeric>

#include "baselines/bqs.h"
#include "baselines/phalanx.h"
#include "baselines/sbql.h"
#include "bftbc/client.h"
#include "faults/byzantine_client.h"
#include "quorum/statements.h"
#include "rpc/transport.h"

namespace bftbc::core {
namespace {

constexpr quorum::ObjectId kObj = 4;
constexpr quorum::ClientId kClient = 9;

class ClientProtocolTest : public ::testing::Test {
 protected:
  ClientProtocolTest()
      : config_(quorum::QuorumConfig::bft_bc(1)),
        net_(sim_, Rng(3), [] { sim::LinkConfig c; c.base_delay = 10; c.jitter_mean = 0; return c; }()),
        keystore_(crypto::SignatureScheme::kHmacSim, 17),
        client_transport_(net_, 100) {
    for (quorum::ReplicaId r = 0; r < config_.n; ++r) {
      replica_signers_.push_back(
          keystore_.register_principal(quorum::replica_principal(r)));
      net_.register_node(r, [this, r](sim::NodeId, const EncodedMessage& payload) {
        auto env = rpc::Envelope::decode(payload.view());
        if (env.has_value()) requests_[r].push_back(*env);
      });
    }
    client_ = std::make_unique<Client>(config_, kClient, keystore_,
                                       client_transport_, sim_,
                                       std::vector<sim::NodeId>{0, 1, 2, 3},
                                       Rng(5), ClientOptions{});
  }

  // Deliver a reply envelope from replica r to the client. Advances the
  // clock just far enough to deliver it (the client's retransmission
  // timers keep the queue permanently non-empty, so a full drain would
  // never return).
  void reply_from(quorum::ReplicaId r, rpc::MsgType type,
                  std::uint64_t rpc_id, Bytes body) {
    rpc::Envelope env;
    env.type = type;
    env.rpc_id = rpc_id;
    env.sender = quorum::replica_principal(r);
    env.body = std::move(body);
    net_.send(r, 100, env.encode());
    sim_.run_until(sim_.now() + sim::kMillisecond);
  }

  // A correct READ-TS-REPLY from replica r answering `req`.
  ReadTsReply correct_read_ts_reply(quorum::ReplicaId r,
                                    const ReadTsRequest& req,
                                    const PrepareCertificate& pcert) {
    ReadTsReply rep;
    rep.object = req.object;
    rep.nonce = req.nonce;
    rep.pcert = pcert;
    rep.replica = r;
    rep.auth = replica_signers_[r].sign(rep.signing_payload()).value();
    return rep;
  }

  ReadReply correct_read_reply(quorum::ReplicaId r, const ReadRequest& req,
                               const Bytes& value,
                               const PrepareCertificate& pcert) {
    ReadReply rep;
    rep.object = req.object;
    rep.value = value;
    rep.pcert = pcert;
    rep.nonce = req.nonce;
    rep.replica = r;
    rep.auth = replica_signers_[r].sign(rep.signing_payload()).value();
    return rep;
  }

  PrepareCertificate mint_prep_cert(const Timestamp& ts,
                                    const crypto::Digest& h) {
    quorum::SignatureSet sigs;
    const Bytes stmt = quorum::prepare_reply_statement(kObj, ts, h);
    for (quorum::ReplicaId r = 0; r < config_.q; ++r) {
      sigs[r] = replica_signers_[r].sign(stmt).value();
    }
    return PrepareCertificate(kObj, ts, h, sigs);
  }

  // Wait until each replica has received >= n requests of `type`.
  bool wait_requests(rpc::MsgType type, std::size_t per_replica = 1) {
    return !sim_.run_while_pending([&] {
      for (quorum::ReplicaId r = 0; r < config_.n; ++r) {
        std::size_t count = 0;
        for (const auto& env : requests_[r]) {
          if (env.type == type) ++count;
        }
        if (count < per_replica) return true;
      }
      return false;
    });
  }

  // Latest request of `type` seen by replica r.
  const rpc::Envelope* last_request(quorum::ReplicaId r, rpc::MsgType type) {
    for (auto it = requests_[r].rbegin(); it != requests_[r].rend(); ++it) {
      if (it->type == type) return &*it;
    }
    return nullptr;
  }

  quorum::QuorumConfig config_;
  sim::Simulator sim_;
  sim::Network net_;
  crypto::Keystore keystore_;
  rpc::SimTransport client_transport_;
  std::vector<crypto::Signer> replica_signers_;
  std::map<quorum::ReplicaId, std::vector<rpc::Envelope>> requests_;
  std::unique_ptr<Client> client_;
};

TEST_F(ClientProtocolTest, ReadAcceptsQuorumOfValidReplies) {
  std::optional<Result<Client::ReadResult>> result;
  client_->read(kObj, [&](Result<Client::ReadResult> r) { result = std::move(r); });
  ASSERT_TRUE(wait_requests(rpc::MsgType::kRead));

  const Bytes value = to_bytes("stored");
  const auto cert = mint_prep_cert({1, 2}, crypto::sha256(value));
  for (quorum::ReplicaId r = 0; r < config_.q; ++r) {
    const auto* env = last_request(r, rpc::MsgType::kRead);
    ASSERT_NE(env, nullptr);
    auto req = ReadRequest::decode(env->body);
    ASSERT_TRUE(req.has_value());
    reply_from(r, rpc::MsgType::kReadReply, env->rpc_id,
               correct_read_reply(r, *req, value, cert).encode());
  }
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->is_ok());
  EXPECT_EQ(to_string(result->value().value), "stored");
  EXPECT_EQ(result->value().ts, (Timestamp{1, 2}));
}

TEST_F(ClientProtocolTest, ReadRejectsValueNotMatchingCertificate) {
  std::optional<Result<Client::ReadResult>> result;
  client_->read(kObj, [&](Result<Client::ReadResult> r) { result = std::move(r); });
  ASSERT_TRUE(wait_requests(rpc::MsgType::kRead));

  const Bytes value = to_bytes("stored");
  const auto cert = mint_prep_cert({1, 2}, crypto::sha256(value));

  // Replica 0 lies about the value (cert is genuine): must not count.
  {
    const auto* env = last_request(0, rpc::MsgType::kRead);
    auto req = ReadRequest::decode(env->body);
    ReadReply lie = correct_read_reply(0, *req, to_bytes("LIES"), cert);
    lie.auth = replica_signers_[0].sign(lie.signing_payload()).value();
    reply_from(0, rpc::MsgType::kReadReply, env->rpc_id, lie.encode());
  }
  EXPECT_FALSE(result.has_value());

  // Three honest replies complete the read with the true value.
  for (quorum::ReplicaId r = 1; r < config_.n; ++r) {
    const auto* env = last_request(r, rpc::MsgType::kRead);
    auto req = ReadRequest::decode(env->body);
    reply_from(r, rpc::MsgType::kReadReply, env->rpc_id,
               correct_read_reply(r, *req, value, cert).encode());
  }
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->is_ok());
  EXPECT_EQ(to_string(result->value().value), "stored");
}

TEST_F(ClientProtocolTest, ReadRejectsWrongNonce) {
  std::optional<Result<Client::ReadResult>> result;
  client_->read(kObj, [&](Result<Client::ReadResult> r) { result = std::move(r); });
  ASSERT_TRUE(wait_requests(rpc::MsgType::kRead));

  const Bytes value = to_bytes("v");
  const auto cert = mint_prep_cert({1, 2}, crypto::sha256(value));
  // Replay-style replies with a stale nonce: never accepted.
  for (quorum::ReplicaId r = 0; r < config_.n; ++r) {
    const auto* env = last_request(r, rpc::MsgType::kRead);
    auto req = ReadRequest::decode(env->body);
    req->nonce.random ^= 1;  // wrong nonce
    reply_from(r, rpc::MsgType::kReadReply, env->rpc_id,
               correct_read_reply(r, *req, value, cert).encode());
  }
  EXPECT_FALSE(result.has_value());
}

TEST_F(ClientProtocolTest, ReadRejectsBadAuthenticator) {
  std::optional<Result<Client::ReadResult>> result;
  client_->read(kObj, [&](Result<Client::ReadResult> r) { result = std::move(r); });
  ASSERT_TRUE(wait_requests(rpc::MsgType::kRead));

  const Bytes value = to_bytes("v");
  const auto cert = mint_prep_cert({1, 2}, crypto::sha256(value));
  for (quorum::ReplicaId r = 0; r < config_.n; ++r) {
    const auto* env = last_request(r, rpc::MsgType::kRead);
    auto req = ReadRequest::decode(env->body);
    ReadReply rep = correct_read_reply(r, *req, value, cert);
    rep.auth[0] ^= 0x80;  // corrupt the point-to-point authenticator
    reply_from(r, rpc::MsgType::kReadReply, env->rpc_id, rep.encode());
  }
  EXPECT_FALSE(result.has_value());
}

TEST_F(ClientProtocolTest, ReadRejectsSubQuorumCertificate) {
  std::optional<Result<Client::ReadResult>> result;
  client_->read(kObj, [&](Result<Client::ReadResult> r) { result = std::move(r); });
  ASSERT_TRUE(wait_requests(rpc::MsgType::kRead));

  const Bytes value = to_bytes("v");
  // Certificate with only 2 signatures (< q = 3): invalid.
  quorum::SignatureSet sigs;
  const Bytes stmt =
      quorum::prepare_reply_statement(kObj, {1, 2}, crypto::sha256(value));
  sigs[0] = replica_signers_[0].sign(stmt).value();
  sigs[1] = replica_signers_[1].sign(stmt).value();
  PrepareCertificate weak(kObj, {1, 2}, crypto::sha256(value), sigs);

  for (quorum::ReplicaId r = 0; r < config_.n; ++r) {
    const auto* env = last_request(r, rpc::MsgType::kRead);
    auto req = ReadRequest::decode(env->body);
    reply_from(r, rpc::MsgType::kReadReply, env->rpc_id,
               correct_read_reply(r, *req, value, weak).encode());
  }
  EXPECT_FALSE(result.has_value());
}

TEST_F(ClientProtocolTest, MixedVersionsTriggerWriteBack) {
  std::optional<Result<Client::ReadResult>> result;
  client_->read(kObj, [&](Result<Client::ReadResult> r) { result = std::move(r); });
  ASSERT_TRUE(wait_requests(rpc::MsgType::kRead));

  const Bytes old_v = to_bytes("old");
  const Bytes new_v = to_bytes("new");
  const auto old_cert = mint_prep_cert({1, 1}, crypto::sha256(old_v));
  const auto new_cert = mint_prep_cert({2, 2}, crypto::sha256(new_v));

  for (quorum::ReplicaId r = 0; r < config_.q; ++r) {
    const auto* env = last_request(r, rpc::MsgType::kRead);
    auto req = ReadRequest::decode(env->body);
    const bool behind = (r == 0);
    reply_from(r, rpc::MsgType::kReadReply, env->rpc_id,
               correct_read_reply(r, *req, behind ? old_v : new_v,
                                  behind ? old_cert : new_cert)
                   .encode());
  }
  // Client now needs a write-back phase before answering.
  EXPECT_FALSE(result.has_value());
  ASSERT_TRUE(wait_requests(rpc::MsgType::kWrite));

  // The write-back carries the NEWER value and certificate.
  for (quorum::ReplicaId r = 0; r < config_.q; ++r) {
    const auto* env = last_request(r, rpc::MsgType::kWrite);
    ASSERT_NE(env, nullptr);
    auto wreq = WriteRequest::decode(env->body);
    ASSERT_TRUE(wreq.has_value());
    EXPECT_EQ(wreq->value, new_v);
    EXPECT_EQ(wreq->prep_cert.ts(), (Timestamp{2, 2}));
    // The reader signed the write-back as itself.
    EXPECT_EQ(wreq->client, kClient);
    EXPECT_TRUE(keystore_.verify(quorum::client_principal(kClient),
                                 wreq->signing_payload(), wreq->sig));

    WriteReply ack;
    ack.object = kObj;
    ack.ts = wreq->prep_cert.ts();
    ack.replica = r;
    ack.sig = replica_signers_[r]
                  .sign(quorum::write_reply_statement(kObj, ack.ts))
                  .value();
    reply_from(r, rpc::MsgType::kWriteReply, env->rpc_id, ack.encode());
  }
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->is_ok());
  EXPECT_EQ(to_string(result->value().value), "new");
  EXPECT_EQ(result->value().phases, 2);
}

TEST_F(ClientProtocolTest, WritePhase1RejectsForgedCert) {
  std::optional<Result<Client::WriteResult>> result;
  client_->write(kObj, to_bytes("x"),
                 [&](Result<Client::WriteResult> r) { result = std::move(r); });
  ASSERT_TRUE(wait_requests(rpc::MsgType::kReadTs));

  // All four replicas present certificates with corrupted signatures;
  // the client must accept none and keep retransmitting (no progress).
  const Bytes value = to_bytes("v");
  auto cert = mint_prep_cert({3, 3}, crypto::sha256(value));
  quorum::SignatureSet bad_sigs = cert.signatures();
  for (auto& [r, sig] : bad_sigs) sig[0] ^= 0xff;
  PrepareCertificate forged(kObj, {3, 3}, crypto::sha256(value),
                            bad_sigs);

  for (quorum::ReplicaId r = 0; r < config_.n; ++r) {
    const auto* env = last_request(r, rpc::MsgType::kReadTs);
    auto req = ReadTsRequest::decode(env->body);
    reply_from(r, rpc::MsgType::kReadTsReply, env->rpc_id,
               correct_read_ts_reply(r, *req, forged).encode());
  }
  EXPECT_FALSE(result.has_value());

  // Honest genesis answers unblock the write's phase 1.
  for (quorum::ReplicaId r = 0; r < config_.n; ++r) {
    const auto* env = last_request(r, rpc::MsgType::kReadTs);
    auto req = ReadTsRequest::decode(env->body);
    reply_from(r, rpc::MsgType::kReadTsReply, env->rpc_id,
               correct_read_ts_reply(r, *req,
                                     PrepareCertificate::genesis(kObj))
                   .encode());
  }
  ASSERT_TRUE(wait_requests(rpc::MsgType::kPrepare));
  const auto* env = last_request(0, rpc::MsgType::kPrepare);
  auto prep = PrepareRequest::decode(env->body);
  ASSERT_TRUE(prep.has_value());
  EXPECT_EQ(prep->t, (Timestamp{1, kClient}));  // succ of genesis, not of forged
}

TEST_F(ClientProtocolTest, WritePicksMaxCertificateTimestamp) {
  std::optional<Result<Client::WriteResult>> result;
  client_->write(kObj, to_bytes("x"),
                 [&](Result<Client::WriteResult> r) { result = std::move(r); });
  ASSERT_TRUE(wait_requests(rpc::MsgType::kReadTs));

  const Bytes v_lo = to_bytes("low"), v_hi = to_bytes("high");
  const auto lo = mint_prep_cert({2, 1}, crypto::sha256(v_lo));
  const auto hi = mint_prep_cert({7, 3}, crypto::sha256(v_hi));
  for (quorum::ReplicaId r = 0; r < config_.q; ++r) {
    const auto* env = last_request(r, rpc::MsgType::kReadTs);
    auto req = ReadTsRequest::decode(env->body);
    reply_from(r, rpc::MsgType::kReadTsReply, env->rpc_id,
               correct_read_ts_reply(r, *req, r == 1 ? hi : lo).encode());
  }
  ASSERT_TRUE(wait_requests(rpc::MsgType::kPrepare));
  auto prep = PrepareRequest::decode(
      last_request(2, rpc::MsgType::kPrepare)->body);
  ASSERT_TRUE(prep.has_value());
  EXPECT_EQ(prep->t, (Timestamp{8, kClient}));  // succ of the max
  EXPECT_EQ(prep->prep_cert.ts(), (Timestamp{7, 3}));
}

TEST_F(ClientProtocolTest, PrepareReplyWithWrongHashRejected) {
  std::optional<Result<Client::WriteResult>> result;
  client_->write(kObj, to_bytes("value-A"),
                 [&](Result<Client::WriteResult> r) { result = std::move(r); });
  ASSERT_TRUE(wait_requests(rpc::MsgType::kReadTs));
  for (quorum::ReplicaId r = 0; r < config_.n; ++r) {
    const auto* env = last_request(r, rpc::MsgType::kReadTs);
    auto req = ReadTsRequest::decode(env->body);
    reply_from(r, rpc::MsgType::kReadTsReply, env->rpc_id,
               correct_read_ts_reply(r, *req,
                                     PrepareCertificate::genesis(kObj))
                   .encode());
  }
  ASSERT_TRUE(wait_requests(rpc::MsgType::kPrepare));

  // Byzantine replicas answer the prepare with a DIFFERENT hash — a
  // statement for another value. Client must not count them.
  const Timestamp t{1, kClient};
  const crypto::Digest wrong_h = crypto::sha256(as_bytes_view("value-B"));
  for (quorum::ReplicaId r = 0; r < config_.n; ++r) {
    const auto* env = last_request(r, rpc::MsgType::kPrepare);
    PrepareReply rep;
    rep.object = kObj;
    rep.t = t;
    rep.hash = wrong_h;
    rep.replica = r;
    rep.sig = replica_signers_[r]
                  .sign(quorum::prepare_reply_statement(kObj, t, wrong_h))
                  .value();
    reply_from(r, rpc::MsgType::kPrepareReply, env->rpc_id, rep.encode());
  }
  EXPECT_FALSE(result.has_value());
}

TEST_F(ClientProtocolTest, DuplicateRepliesFromOneReplicaCountOnce) {
  std::optional<Result<Client::ReadResult>> result;
  client_->read(kObj, [&](Result<Client::ReadResult> r) { result = std::move(r); });
  ASSERT_TRUE(wait_requests(rpc::MsgType::kRead));

  const Bytes value = to_bytes("v");
  const auto cert = mint_prep_cert({1, 1}, crypto::sha256(value));
  const auto* env = last_request(0, rpc::MsgType::kRead);
  auto req = ReadRequest::decode(env->body);
  const Bytes body = correct_read_reply(0, *req, value, cert).encode();
  // Replica 0 floods three copies: still only one vote.
  for (int i = 0; i < 3; ++i) {
    reply_from(0, rpc::MsgType::kReadReply, env->rpc_id, body);
  }
  EXPECT_FALSE(result.has_value());
}

TEST_F(ClientProtocolTest, ReplyClaimingWrongReplicaIdRejected) {
  std::optional<Result<Client::ReadResult>> result;
  client_->read(kObj, [&](Result<Client::ReadResult> r) { result = std::move(r); });
  ASSERT_TRUE(wait_requests(rpc::MsgType::kRead));

  const Bytes value = to_bytes("v");
  const auto cert = mint_prep_cert({1, 1}, crypto::sha256(value));
  // Replica 0 sends replies impersonating replicas 1, 2, 3 (signed with
  // ITS key but claiming their ids — or their id with its signature;
  // both must fail).
  for (quorum::ReplicaId claimed = 1; claimed < config_.n; ++claimed) {
    const auto* env = last_request(0, rpc::MsgType::kRead);
    auto req = ReadRequest::decode(env->body);
    ReadReply rep = correct_read_reply(0, *req, value, cert);
    rep.replica = claimed;  // auth still by replica 0's key
    reply_from(0, rpc::MsgType::kReadReply, env->rpc_id, rep.encode());
  }
  EXPECT_FALSE(result.has_value());
}

// --------------------------------------------- reply-batch amortization

// Wraps already-encoded reply envelopes in a ReplyBatch from replica r
// (one batch MAC, no per-reply auth) and delivers it to the client.
class ReplyBatchTest : public ClientProtocolTest {
 protected:
  void batch_from(quorum::ReplicaId sender_node, quorum::ReplicaId claimed,
                  std::vector<Bytes> encoded_replies, bool corrupt = false) {
    ReplyBatch rb;
    rb.replica = claimed;
    rb.replies = std::move(encoded_replies);
    rb.auth = replica_signers_[claimed].sign(rb.signing_payload()).value();
    if (corrupt) rb.auth[0] ^= 0x80;
    rpc::Envelope env;
    env.type = rpc::MsgType::kReplyBatch;
    env.sender = quorum::replica_principal(claimed);
    env.body = rb.encode();
    net_.send(sender_node, 100, env.encode());
    sim_.run_until(sim_.now() + sim::kMillisecond);
  }

  // A correct but auth-less read reply to replica r's latest request,
  // wrapped in a reply envelope ready for bundling.
  Bytes authless_read_reply(quorum::ReplicaId r, const Bytes& value,
                            const PrepareCertificate& cert) {
    const auto* env = last_request(r, rpc::MsgType::kRead);
    auto req = ReadRequest::decode(env->body);
    ReadReply rep = correct_read_reply(r, *req, value, cert);
    rep.auth.clear();  // covered by the batch MAC instead
    rpc::Envelope reply;
    reply.type = rpc::MsgType::kReadReply;
    reply.rpc_id = env->rpc_id;
    reply.sender = quorum::replica_principal(r);
    reply.body = rep.encode();
    return reply.encode();
  }
};

TEST_F(ReplyBatchTest, AcceptsAuthlessRepliesUnderBatchMac) {
  std::optional<Result<Client::ReadResult>> result;
  client_->read(kObj, [&](Result<Client::ReadResult> r) { result = std::move(r); });
  ASSERT_TRUE(wait_requests(rpc::MsgType::kRead));

  const Bytes value = to_bytes("stored");
  const auto cert = mint_prep_cert({1, 2}, crypto::sha256(value));
  for (quorum::ReplicaId r = 0; r < config_.q; ++r) {
    batch_from(r, r, {authless_read_reply(r, value, cert)});
  }
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->is_ok());
  EXPECT_EQ(to_string(result->value().value), "stored");
  EXPECT_EQ(client_->metrics().get("reply_batches"), 3u);
}

TEST_F(ReplyBatchTest, RejectsAuthlessReplyOutsideBatch) {
  std::optional<Result<Client::ReadResult>> result;
  client_->read(kObj, [&](Result<Client::ReadResult> r) { result = std::move(r); });
  ASSERT_TRUE(wait_requests(rpc::MsgType::kRead));

  const Bytes value = to_bytes("v");
  const auto cert = mint_prep_cert({1, 2}, crypto::sha256(value));
  // The same auth-less replies delivered bare (no batch frame): the
  // empty authenticator must never be accepted.
  for (quorum::ReplicaId r = 0; r < config_.n; ++r) {
    const auto* env = last_request(r, rpc::MsgType::kRead);
    auto req = ReadRequest::decode(env->body);
    ReadReply rep = correct_read_reply(r, *req, value, cert);
    rep.auth.clear();
    reply_from(r, rpc::MsgType::kReadReply, env->rpc_id, rep.encode());
  }
  EXPECT_FALSE(result.has_value());
}

TEST_F(ReplyBatchTest, RejectsBatchWithBadMac) {
  std::optional<Result<Client::ReadResult>> result;
  client_->read(kObj, [&](Result<Client::ReadResult> r) { result = std::move(r); });
  ASSERT_TRUE(wait_requests(rpc::MsgType::kRead));

  const Bytes value = to_bytes("v");
  const auto cert = mint_prep_cert({1, 2}, crypto::sha256(value));
  for (quorum::ReplicaId r = 0; r < config_.q; ++r) {
    batch_from(r, r, {authless_read_reply(r, value, cert)},
               /*corrupt=*/true);
  }
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(client_->metrics().get("reply_batches"), 0u);
}

TEST_F(ReplyBatchTest, RejectsBatchClaimingAnotherReplica) {
  std::optional<Result<Client::ReadResult>> result;
  client_->read(kObj, [&](Result<Client::ReadResult> r) { result = std::move(r); });
  ASSERT_TRUE(wait_requests(rpc::MsgType::kRead));

  const Bytes value = to_bytes("v");
  const auto cert = mint_prep_cert({1, 2}, crypto::sha256(value));
  // Byzantine replica 0 ships batches claiming (and correctly signed as)
  // replicas 1..3 — but they arrive from node 0, so the claimed identity
  // does not match the wire sender and the whole batch is dropped.
  for (quorum::ReplicaId claimed = 1; claimed < config_.n; ++claimed) {
    batch_from(0, claimed, {authless_read_reply(claimed, value, cert)});
  }
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(client_->metrics().get("reply_batches"), 0u);
}

// Captures what a client sends and delivers nothing back.
class CapturingTransport final : public rpc::Transport {
 public:
  sim::NodeId node_id() const override { return 100; }
  void send(sim::NodeId, const rpc::Envelope& env) override {
    sent.push_back(env);
  }
  void set_receiver(Receiver) override {}

  std::vector<rpc::Envelope> sent;
};

// Builds a client of kind C, lets `start` begin its first operation, and
// returns the rpc id of the first request it sent (0 if none).
template <typename C, typename Start>
std::uint64_t first_rpc_id(const quorum::QuorumConfig& config,
                           const Start& start) {
  sim::Simulator sim;
  crypto::Keystore keystore(crypto::SignatureScheme::kHmacSim, 17);
  CapturingTransport transport;
  std::vector<sim::NodeId> replicas(config.n);
  std::iota(replicas.begin(), replicas.end(), 0);
  C client(config, kClient, keystore, transport, sim, replicas, Rng(5));
  start(client);
  return transport.sent.empty() ? 0 : transport.sent.front().rpc_id;
}

// Request ids are on the wire, so each client kind's first id is pinned:
// the correct clients start at 1, the BQS equivocator at 0xbad and the
// §3.2 attack drivers at 0x0b5e55ed.
TEST(ClientRequestIdTest, FirstRequestIdIsFixedPerClientKind) {
  const auto bft = quorum::QuorumConfig::bft_bc(1);
  const auto masking = quorum::QuorumConfig::masking(1);
  auto ignore = [](auto&&...) {};
  auto write = [&](auto& c) { c.write(kObj, to_bytes("v"), ignore); };
  auto equivocate = [&](auto& c) {
    c.attack(kObj, to_bytes("a"), to_bytes("b"), ignore);
  };
  auto hog = [&](auto& c) { c.attack(kObj, 100, 1, ignore); };
  EXPECT_EQ(first_rpc_id<Client>(bft, write), 1u);
  EXPECT_EQ(first_rpc_id<baselines::BqsClient>(bft, write), 1u);
  EXPECT_EQ(first_rpc_id<baselines::PhalanxClient>(masking, write), 1u);
  EXPECT_EQ(first_rpc_id<baselines::SbqlClient>(bft, write), 1u);
  EXPECT_EQ(first_rpc_id<baselines::BqsEquivocator>(bft, equivocate), 0xbadu);
  EXPECT_EQ(first_rpc_id<faults::TimestampHog>(bft, hog), 0x0b5e55edu);
}

}  // namespace
}  // namespace bftbc::core
