// Message-level replica tests: craft raw envelopes (well-formed,
// malformed, and adversarial) and verify the replica's Figure 2 behavior
// directly — especially the silent-discard rules, which integration
// tests can't easily observe.
#include <gtest/gtest.h>

#include "bftbc/replica.h"
#include "quorum/statements.h"
#include "rpc/transport.h"

namespace bftbc::core {
namespace {

class ReplicaProtocolTest : public ::testing::Test {
 protected:
  static constexpr quorum::ObjectId kObj = 1;
  static constexpr sim::NodeId kProbeNode = 100;
  static constexpr quorum::ClientId kClient = 5;

  ReplicaProtocolTest()
      : config_(quorum::QuorumConfig::bft_bc(1)),
        net_(sim_, Rng(1), [] { sim::LinkConfig c; c.base_delay = 1; c.jitter_mean = 0; return c; }()),
        keystore_(crypto::SignatureScheme::kHmacSim, 9),
        replica_transport_(net_, 0),
        probe_(net_, kProbeNode),
        replica_(config_, 0, keystore_, replica_transport_, sim_,
                 [] {
                   core::ReplicaOptions o;
                   o.optimized = true;
                   return o;
                 }()),
        client_signer_(
            keystore_.register_principal(quorum::client_principal(kClient))) {
    probe_.set_receiver([this](sim::NodeId, const rpc::Envelope& env) {
      replies_.push_back(env);
    });
    // Register the other replicas so quorum certs can be minted.
    for (quorum::ReplicaId r = 1; r < config_.n; ++r) {
      replica_signers_.push_back(
          keystore_.register_principal(quorum::replica_principal(r)));
    }
    replica_signers_.insert(
        replica_signers_.begin(),
        keystore_.register_principal(quorum::replica_principal(0)));
  }

  void send(rpc::MsgType type, Bytes body, std::uint64_t rpc_id = 1) {
    rpc::Envelope env;
    env.type = type;
    env.rpc_id = rpc_id;
    env.sender = quorum::client_principal(kClient);
    env.body = std::move(body);
    probe_.send(0, env);
    sim_.run();
  }

  // Mint a valid prepare certificate signed by replicas {0,1,2}.
  PrepareCertificate mint_prep_cert(const Timestamp& ts,
                                    const crypto::Digest& h) {
    quorum::SignatureSet sigs;
    const Bytes stmt = quorum::prepare_reply_statement(kObj, ts, h);
    for (quorum::ReplicaId r = 0; r < config_.q; ++r) {
      sigs[r] = replica_signers_[r].sign(stmt).value();
    }
    return PrepareCertificate(kObj, ts, h, sigs);
  }

  WriteCertificate mint_write_cert(const Timestamp& ts) {
    quorum::SignatureSet sigs;
    const Bytes stmt = quorum::write_reply_statement(kObj, ts);
    for (quorum::ReplicaId r = 0; r < config_.q; ++r) {
      sigs[r] = replica_signers_[r].sign(stmt).value();
    }
    return WriteCertificate(kObj, ts, sigs);
  }

  PrepareRequest make_prepare(const Timestamp& t, const crypto::Digest& h,
                              const PrepareCertificate& cert,
                              std::optional<WriteCertificate> wcert = {}) {
    PrepareRequest req;
    req.object = kObj;
    req.t = t;
    req.hash = h;
    req.prep_cert = cert;
    req.write_cert = std::move(wcert);
    req.client = kClient;
    req.sig = client_signer_.sign(req.signing_payload()).value();
    return req;
  }

  quorum::QuorumConfig config_;
  sim::Simulator sim_;
  sim::Network net_;
  crypto::Keystore keystore_;
  rpc::SimTransport replica_transport_;
  rpc::SimTransport probe_;
  Replica replica_;
  crypto::Signer client_signer_;
  std::vector<crypto::Signer> replica_signers_;
  std::vector<rpc::Envelope> replies_;
};

TEST_F(ReplicaProtocolTest, ReadTsAnsweredUnconditionally) {
  ReadTsRequest req;
  req.object = kObj;
  req.nonce = crypto::Nonce{kClient, 1, 99};
  send(rpc::MsgType::kReadTs, req.encode());
  ASSERT_EQ(replies_.size(), 1u);
  EXPECT_EQ(replies_[0].type, rpc::MsgType::kReadTsReply);
  auto rep = ReadTsReply::decode(replies_[0].body);
  ASSERT_TRUE(rep.has_value());
  EXPECT_TRUE(rep->pcert.is_genesis());
  EXPECT_EQ(rep->nonce, req.nonce);
  // Reply is authenticated.
  EXPECT_TRUE(keystore_.verify(quorum::replica_principal(0),
                               rep->signing_payload(), rep->auth));
}

TEST_F(ReplicaProtocolTest, MalformedBodiesSilentlyDropped) {
  send(rpc::MsgType::kReadTs, to_bytes("garbage"));
  send(rpc::MsgType::kPrepare, to_bytes("more garbage"));
  send(rpc::MsgType::kWrite, Bytes(3, 0xff));
  send(rpc::MsgType::kRead, Bytes{});
  EXPECT_TRUE(replies_.empty());
  EXPECT_EQ(replica_.metrics().get("drop_malformed"), 4u);
}

TEST_F(ReplicaProtocolTest, ValidPrepareAnsweredWithStatementSig) {
  const crypto::Digest h = crypto::sha256(as_bytes_view("v"));
  const Timestamp t{1, kClient};
  send(rpc::MsgType::kPrepare,
       make_prepare(t, h, PrepareCertificate::genesis(kObj)).encode());
  ASSERT_EQ(replies_.size(), 1u);
  auto rep = PrepareReply::decode(replies_[0].body);
  ASSERT_TRUE(rep.has_value());
  EXPECT_EQ(rep->t, t);
  const Bytes stmt = quorum::prepare_reply_statement(kObj, t, h);
  EXPECT_TRUE(
      keystore_.verify(quorum::replica_principal(0), stmt, rep->sig));
  // Plist now holds the entry.
  EXPECT_TRUE(replica_.object(kObj).has_entry(kClient));
}

TEST_F(ReplicaProtocolTest, PrepareWithBadClientSigDropped) {
  const crypto::Digest h = crypto::sha256(as_bytes_view("v"));
  PrepareRequest req =
      make_prepare({1, kClient}, h, PrepareCertificate::genesis(kObj));
  req.sig[0] ^= 0x01;
  send(rpc::MsgType::kPrepare, req.encode());
  EXPECT_TRUE(replies_.empty());
  EXPECT_EQ(replica_.metrics().get("drop_bad_auth"), 1u);
}

TEST_F(ReplicaProtocolTest, PrepareSignedByOtherClientDropped) {
  // Signature by client 6 on a request claiming client 5.
  auto other = keystore_.register_principal(quorum::client_principal(6));
  const crypto::Digest h = crypto::sha256(as_bytes_view("v"));
  PrepareRequest req;
  req.object = kObj;
  req.t = {1, kClient};
  req.hash = h;
  req.prep_cert = PrepareCertificate::genesis(kObj);
  req.client = kClient;
  req.sig = other.sign(req.signing_payload()).value();
  send(rpc::MsgType::kPrepare, req.encode());
  EXPECT_TRUE(replies_.empty());
  EXPECT_EQ(replica_.metrics().get("drop_bad_auth"), 1u);
}

TEST_F(ReplicaProtocolTest, ValidPrepareLooksUpEachSignatureOnce) {
  const crypto::Digest h1 = crypto::sha256(as_bytes_view("v1"));
  const crypto::Digest h2 = crypto::sha256(as_bytes_view("v2"));
  const PrepareRequest req =
      make_prepare({2, kClient}, h2, mint_prep_cert({1, kClient}, h1));
  keystore_.reset_counters();
  send(rpc::MsgType::kPrepare, req.encode());
  ASSERT_EQ(replies_.size(), 1u);
  // The client signature and the certificate's q signatures, each looked
  // up once, by the handler that uses its verdict.
  const Counters& ks = keystore_.counters();
  EXPECT_EQ(ks.get("sig_cache_hit") + ks.get("sig_cache_miss"),
            1u + config_.q);
}

TEST_F(ReplicaProtocolTest, PrepareWithBadClientSigSkipsCertificate) {
  const crypto::Digest h1 = crypto::sha256(as_bytes_view("v1"));
  const crypto::Digest h2 = crypto::sha256(as_bytes_view("v2"));
  PrepareRequest req =
      make_prepare({2, kClient}, h2, mint_prep_cert({1, kClient}, h1));
  req.sig[0] ^= 0x01;
  keystore_.reset_counters();
  send(rpc::MsgType::kPrepare, req.encode());
  EXPECT_TRUE(replies_.empty());
  EXPECT_EQ(replica_.metrics().get("drop_bad_auth"), 1u);
  // Figure 2 discards the request at its first failed check: the valid
  // certificate's q signatures are never verified.
  EXPECT_EQ(keystore_.counters().get("verify"), 1u);
}

TEST_F(ReplicaProtocolTest, PrepareWithNonSuccessorTimestampDropped) {
  const crypto::Digest h = crypto::sha256(as_bytes_view("v"));
  // Jump of 2 beyond the genesis certificate.
  send(rpc::MsgType::kPrepare,
       make_prepare({2, kClient}, h, PrepareCertificate::genesis(kObj))
           .encode());
  EXPECT_TRUE(replies_.empty());
  EXPECT_EQ(replica_.metrics().get("drop_bad_ts"), 1u);
}

TEST_F(ReplicaProtocolTest, PrepareWithWrongClientIdInTimestampDropped) {
  // t embeds a different client id than the signer: succ() check fails.
  const crypto::Digest h = crypto::sha256(as_bytes_view("v"));
  send(rpc::MsgType::kPrepare,
       make_prepare({1, 77}, h, PrepareCertificate::genesis(kObj)).encode());
  EXPECT_TRUE(replies_.empty());
  EXPECT_EQ(replica_.metrics().get("drop_bad_ts"), 1u);
}

TEST_F(ReplicaProtocolTest, PrepareWithForgedCertDropped) {
  const crypto::Digest h = crypto::sha256(as_bytes_view("v"));
  // A certificate claiming ts <5,2> with garbage signatures.
  quorum::SignatureSet fake;
  fake[0] = to_bytes("x");
  fake[1] = to_bytes("y");
  fake[2] = to_bytes("z");
  PrepareCertificate forged(kObj, {5, 2}, h, fake);
  send(rpc::MsgType::kPrepare,
       make_prepare({6, kClient}, h, forged).encode());
  EXPECT_TRUE(replies_.empty());
  EXPECT_EQ(replica_.metrics().get("drop_bad_cert"), 1u);
}

TEST_F(ReplicaProtocolTest, ConflictingSecondPrepareDropped) {
  const crypto::Digest h1 = crypto::sha256(as_bytes_view("v1"));
  const crypto::Digest h2 = crypto::sha256(as_bytes_view("v2"));
  send(rpc::MsgType::kPrepare,
       make_prepare({1, kClient}, h1, PrepareCertificate::genesis(kObj))
           .encode(),
       1);
  ASSERT_EQ(replies_.size(), 1u);
  // Same timestamp, different hash → silent drop (Figure 2 step 3).
  send(rpc::MsgType::kPrepare,
       make_prepare({1, kClient}, h2, PrepareCertificate::genesis(kObj))
           .encode(),
       2);
  EXPECT_EQ(replies_.size(), 1u);
  EXPECT_EQ(replica_.metrics().get("drop_plist_conflict"), 1u);
  // Retransmission of the SAME prepare is answered again (idempotent).
  send(rpc::MsgType::kPrepare,
       make_prepare({1, kClient}, h1, PrepareCertificate::genesis(kObj))
           .encode(),
       3);
  EXPECT_EQ(replies_.size(), 2u);
}

TEST_F(ReplicaProtocolTest, WriteCertificateClearsPlistDuringPrepare) {
  const crypto::Digest h1 = crypto::sha256(as_bytes_view("v1"));
  send(rpc::MsgType::kPrepare,
       make_prepare({1, kClient}, h1, PrepareCertificate::genesis(kObj))
           .encode(),
       1);
  ASSERT_EQ(replies_.size(), 1u);

  // Next prepare carries the write certificate for <1,kClient>: the old
  // entry is GC'd and the new one admitted.
  const crypto::Digest h2 = crypto::sha256(as_bytes_view("v2"));
  const PrepareCertificate cert1 = mint_prep_cert({1, kClient}, h1);
  send(rpc::MsgType::kPrepare,
       make_prepare({2, kClient}, h2, cert1, mint_write_cert({1, kClient}))
           .encode(),
       2);
  ASSERT_EQ(replies_.size(), 2u);
  const auto& state = replica_.object(kObj);
  ASSERT_EQ(state.plist().count(kClient), 1u);
  EXPECT_EQ(state.plist().at(kClient).t, (Timestamp{2, kClient}));
  EXPECT_EQ(state.write_ts(), (Timestamp{1, kClient}));
}

TEST_F(ReplicaProtocolTest, ValidWriteAppliesAndSigns) {
  const Bytes value = to_bytes("payload");
  const crypto::Digest h = crypto::sha256(value);
  const Timestamp t{1, kClient};
  WriteRequest req;
  req.object = kObj;
  req.value = value;
  req.prep_cert = mint_prep_cert(t, h);
  req.client = kClient;
  req.sig = client_signer_.sign(req.signing_payload()).value();
  send(rpc::MsgType::kWrite, req.encode());

  ASSERT_EQ(replies_.size(), 1u);
  auto rep = WriteReply::decode(replies_[0].body);
  ASSERT_TRUE(rep.has_value());
  EXPECT_EQ(rep->ts, t);
  const Bytes stmt = quorum::write_reply_statement(kObj, t);
  EXPECT_TRUE(keystore_.verify(quorum::replica_principal(0), stmt, rep->sig));
  EXPECT_EQ(replica_.object(kObj).data(), value);
}

TEST_F(ReplicaProtocolTest, WriteWithHashMismatchDropped) {
  const Bytes value = to_bytes("payload");
  const crypto::Digest wrong = crypto::sha256(as_bytes_view("different"));
  WriteRequest req;
  req.object = kObj;
  req.value = value;
  req.prep_cert = mint_prep_cert({1, kClient}, wrong);
  req.client = kClient;
  req.sig = client_signer_.sign(req.signing_payload()).value();
  send(rpc::MsgType::kWrite, req.encode());
  EXPECT_TRUE(replies_.empty());
  EXPECT_EQ(replica_.metrics().get("drop_hash_mismatch"), 1u);
  EXPECT_TRUE(replica_.object(kObj).data().empty());
}

TEST_F(ReplicaProtocolTest, StaleWriteRepliedButNotApplied) {
  // Apply <2,c> then replay <1,c>: replica answers (the statement is
  // true) without regressing state.
  const Bytes v2 = to_bytes("newer");
  WriteRequest w2;
  w2.object = kObj;
  w2.value = v2;
  w2.prep_cert = mint_prep_cert({2, kClient}, crypto::sha256(v2));
  w2.client = kClient;
  w2.sig = client_signer_.sign(w2.signing_payload()).value();
  send(rpc::MsgType::kWrite, w2.encode(), 1);

  const Bytes v1 = to_bytes("older");
  WriteRequest w1;
  w1.object = kObj;
  w1.value = v1;
  w1.prep_cert = mint_prep_cert({1, kClient}, crypto::sha256(v1));
  w1.client = kClient;
  w1.sig = client_signer_.sign(w1.signing_payload()).value();
  send(rpc::MsgType::kWrite, w1.encode(), 2);

  EXPECT_EQ(replies_.size(), 2u);
  EXPECT_EQ(replica_.object(kObj).data(), v2);
}

TEST_F(ReplicaProtocolTest, BackgroundWriteSigCacheHitOnPhase3) {
  // Prepare (which precomputes the write-reply signature), then write:
  // the reply must come from the cache.
  const Bytes value = to_bytes("v");
  const crypto::Digest h = crypto::sha256(value);
  const Timestamp t{1, kClient};
  send(rpc::MsgType::kPrepare,
       make_prepare(t, h, PrepareCertificate::genesis(kObj)).encode(), 1);
  EXPECT_EQ(replica_.metrics().get("sig_background"), 1u);

  WriteRequest req;
  req.object = kObj;
  req.value = value;
  req.prep_cert = mint_prep_cert(t, h);
  req.client = kClient;
  req.sig = client_signer_.sign(req.signing_payload()).value();
  send(rpc::MsgType::kWrite, req.encode(), 2);
  EXPECT_EQ(replica_.metrics().get("sig_background_hit"), 1u);
}

TEST_F(ReplicaProtocolTest, GcInReadAbsorbsWriteCert) {
  const crypto::Digest h = crypto::sha256(as_bytes_view("v"));
  send(rpc::MsgType::kPrepare,
       make_prepare({1, kClient}, h, PrepareCertificate::genesis(kObj))
           .encode(),
       1);
  ASSERT_EQ(replica_.object(kObj).plist().size(), 1u);

  ReadRequest req;
  req.object = kObj;
  req.nonce = crypto::Nonce{kClient, 2, 3};
  req.write_cert = mint_write_cert({1, kClient});
  send(rpc::MsgType::kRead, req.encode(), 2);
  EXPECT_EQ(replica_.metrics().get("gc_via_read"), 1u);
  EXPECT_TRUE(replica_.object(kObj).plist().empty());
}

TEST_F(ReplicaProtocolTest, InvalidWcertInReadIgnoredButReadServed) {
  ReadRequest req;
  req.object = kObj;
  req.nonce = crypto::Nonce{kClient, 2, 3};
  quorum::SignatureSet fake;
  fake[0] = to_bytes("junk");
  fake[1] = to_bytes("junk");
  fake[2] = to_bytes("junk");
  req.write_cert = WriteCertificate(kObj, {9, 9}, fake);
  send(rpc::MsgType::kRead, req.encode());
  ASSERT_EQ(replies_.size(), 1u);  // read still answered
  EXPECT_EQ(replica_.metrics().get("gc_via_read"), 0u);
  EXPECT_TRUE(replica_.object(kObj).write_ts().is_zero());
}

TEST_F(ReplicaProtocolTest, OptPrepareHappyPath) {
  ReadTsPrepRequest req;
  req.object = kObj;
  req.hash = crypto::sha256(as_bytes_view("v"));
  req.nonce = crypto::Nonce{kClient, 1, 1};
  req.client = kClient;
  req.sig = client_signer_.sign(req.signing_payload()).value();
  send(rpc::MsgType::kReadTsPrep, req.encode());

  ASSERT_EQ(replies_.size(), 1u);
  auto rep = ReadTsPrepReply::decode(replies_[0].body);
  ASSERT_TRUE(rep.has_value());
  EXPECT_TRUE(rep->prepared);
  EXPECT_EQ(rep->predicted_t, (Timestamp{1, kClient}));
  const Bytes stmt =
      quorum::prepare_reply_statement(kObj, rep->predicted_t, req.hash);
  EXPECT_TRUE(keystore_.verify(quorum::replica_principal(0), stmt,
                               rep->prepare_sig));
  EXPECT_EQ(replica_.object(kObj).optlist().size(), 1u);
}

TEST_F(ReplicaProtocolTest, OptPrepareFallsBackOnConflict) {
  // Occupy the normal list first with a different hash.
  const crypto::Digest h1 = crypto::sha256(as_bytes_view("v1"));
  send(rpc::MsgType::kPrepare,
       make_prepare({1, kClient}, h1, PrepareCertificate::genesis(kObj))
           .encode(),
       1);

  ReadTsPrepRequest req;
  req.object = kObj;
  req.hash = crypto::sha256(as_bytes_view("v2"));
  req.nonce = crypto::Nonce{kClient, 2, 2};
  req.client = kClient;
  req.sig = client_signer_.sign(req.signing_payload()).value();
  send(rpc::MsgType::kReadTsPrep, req.encode(), 2);

  ASSERT_EQ(replies_.size(), 2u);
  auto rep = ReadTsPrepReply::decode(replies_[1].body);
  ASSERT_TRUE(rep.has_value());
  EXPECT_FALSE(rep->prepared);  // normal phase-1 style answer
  EXPECT_TRUE(replica_.object(kObj).optlist().empty());
}

TEST_F(ReplicaProtocolTest, UnknownMessageTypeCounted) {
  rpc::Envelope env;
  env.type = static_cast<rpc::MsgType>(999);
  env.rpc_id = 1;
  env.sender = quorum::client_principal(kClient);
  env.body = to_bytes("whatever");
  probe_.send(0, env);
  sim_.run();
  EXPECT_TRUE(replies_.empty());
  EXPECT_EQ(replica_.metrics().get("drop_unknown_type"), 1u);
}

// -------------------------------------------------- strong-mode replica

class StrongReplicaTest : public ReplicaProtocolTest {
 protected:
  StrongReplicaTest()
      : strong_transport_(net_, 50),
        strong_(config_, 0, keystore_, strong_transport_, sim_,
                [] {
                  core::ReplicaOptions o;
                  o.strong = true;
                  return o;
                }()) {
    // The base fixture's replica is at node 0 and already owns that
    // receiver; route strong tests to node 50 instead.
  }

  void send_strong(rpc::MsgType type, Bytes body, std::uint64_t rpc_id = 1) {
    rpc::Envelope env;
    env.type = type;
    env.rpc_id = rpc_id;
    env.sender = quorum::client_principal(kClient);
    env.body = std::move(body);
    probe_.send(50, env);
    sim_.run();
  }

  rpc::SimTransport strong_transport_;
  Replica strong_;
};

TEST_F(StrongReplicaTest, ReadTsReplyCarriesWriteStatementSig) {
  ReadTsRequest req;
  req.object = kObj;
  req.nonce = crypto::Nonce{kClient, 1, 1};
  send_strong(rpc::MsgType::kReadTs, req.encode());
  ASSERT_EQ(replies_.size(), 1u);
  auto rep = ReadTsReply::decode(replies_[0].body);
  ASSERT_TRUE(rep.has_value());
  ASSERT_FALSE(rep->strong_write_sig.empty());
  const Bytes stmt =
      quorum::write_reply_statement(kObj, rep->pcert.ts());
  EXPECT_TRUE(keystore_.verify(quorum::replica_principal(0), stmt,
                               rep->strong_write_sig));
}

TEST_F(StrongReplicaTest, PrepareWithoutWriteCertDropped) {
  const crypto::Digest h = crypto::sha256(as_bytes_view("v"));
  send_strong(rpc::MsgType::kPrepare,
              make_prepare({1, kClient}, h, PrepareCertificate::genesis(kObj))
                  .encode());
  EXPECT_TRUE(replies_.empty());
  EXPECT_EQ(strong_.metrics().get("drop_strong_no_wcert"), 1u);
}

TEST_F(StrongReplicaTest, PrepareWithMismatchedWriteCertDropped) {
  // Write cert covers a different timestamp than the justification.
  const crypto::Digest h = crypto::sha256(as_bytes_view("v2"));
  const PrepareCertificate cert1 =
      mint_prep_cert({1, kClient}, crypto::sha256(as_bytes_view("v1")));
  // wcert for genesis instead of <1,kClient>.
  send_strong(rpc::MsgType::kPrepare,
              make_prepare({2, kClient}, h, cert1,
                           mint_write_cert(Timestamp::zero()))
                  .encode());
  EXPECT_TRUE(replies_.empty());
  EXPECT_EQ(strong_.metrics().get("drop_strong_no_wcert"), 1u);
}

TEST_F(StrongReplicaTest, PrepareWithMatchingWriteCertAccepted) {
  const crypto::Digest h = crypto::sha256(as_bytes_view("v2"));
  const PrepareCertificate cert1 =
      mint_prep_cert({1, kClient}, crypto::sha256(as_bytes_view("v1")));
  send_strong(rpc::MsgType::kPrepare,
              make_prepare({2, kClient}, h, cert1,
                           mint_write_cert({1, kClient}))
                  .encode());
  ASSERT_EQ(replies_.size(), 1u);
  EXPECT_EQ(replies_[0].type, rpc::MsgType::kPrepareReply);
}

TEST_F(StrongReplicaTest, GenesisWriteCertAcceptedForFirstWrite) {
  const crypto::Digest h = crypto::sha256(as_bytes_view("first"));
  send_strong(rpc::MsgType::kPrepare,
              make_prepare({1, kClient}, h, PrepareCertificate::genesis(kObj),
                           mint_write_cert(Timestamp::zero()))
                  .encode());
  ASSERT_EQ(replies_.size(), 1u);
}

}  // namespace
}  // namespace bftbc::core
