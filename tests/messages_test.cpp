// Wire-format tests for every BFT-BC message: encode/decode roundtrips,
// rejection of truncation and trailing garbage, and signing-payload
// domain separation.
#include <gtest/gtest.h>

#include "bftbc/messages.h"

namespace bftbc::core {
namespace {

crypto::Nonce nonce(std::uint64_t n) { return crypto::Nonce{1, n, n * 17}; }

PrepareCertificate prep_cert() {
  quorum::SignatureSet sigs;
  sigs[0] = to_bytes("sig0");
  sigs[2] = to_bytes("sig2");
  sigs[3] = to_bytes("sig3");
  return PrepareCertificate(7, {4, 2}, crypto::sha256(as_bytes_view("v")),
                            sigs);
}

WriteCertificate write_cert() {
  quorum::SignatureSet sigs;
  sigs[1] = to_bytes("w1");
  sigs[2] = to_bytes("w2");
  sigs[3] = to_bytes("w3");
  return WriteCertificate(7, {3, 9}, sigs);
}

template <typename M>
void expect_rejects_mutations(const M& msg) {
  const Bytes good = msg.encode();
  // Truncations must not decode.
  for (std::size_t cut = 1; cut <= std::min<std::size_t>(good.size(), 6);
       ++cut) {
    Bytes t(good.begin(), good.end() - static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(M::decode(t).has_value()) << "cut " << cut;
  }
  // Trailing garbage must not decode.
  Bytes extended = good;
  extended.push_back(0xff);
  EXPECT_FALSE(M::decode(extended).has_value());
  // Empty must not decode.
  EXPECT_FALSE(M::decode(Bytes{}).has_value());
}

TEST(MessagesTest, ReadTsRequestRoundtrip) {
  ReadTsRequest m;
  m.object = 9;
  m.nonce = nonce(5);
  auto back = ReadTsRequest::decode(m.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->object, 9u);
  EXPECT_EQ(back->nonce, m.nonce);
  expect_rejects_mutations(m);
}

TEST(MessagesTest, ReadTsReplyRoundtrip) {
  ReadTsReply m;
  m.object = 7;
  m.nonce = nonce(6);
  m.pcert = prep_cert();
  m.strong_write_sig = to_bytes("strong");
  m.replica = 3;
  m.auth = to_bytes("auth-tag");
  auto back = ReadTsReply::decode(m.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->pcert, m.pcert);
  EXPECT_EQ(back->strong_write_sig, m.strong_write_sig);
  EXPECT_EQ(back->replica, 3u);
  EXPECT_EQ(back->auth, m.auth);
  expect_rejects_mutations(m);
}

TEST(MessagesTest, ReadTsReplySigningPayloadCoversContent) {
  ReadTsReply a;
  a.object = 7;
  a.nonce = nonce(6);
  a.pcert = prep_cert();
  ReadTsReply b = a;
  b.nonce = nonce(7);
  EXPECT_NE(a.signing_payload(), b.signing_payload());
  ReadTsReply c = a;
  c.strong_write_sig = to_bytes("x");
  EXPECT_NE(a.signing_payload(), c.signing_payload());
}

TEST(MessagesTest, PrepareRequestRoundtrip) {
  PrepareRequest m;
  m.object = 7;
  m.t = {5, 2};
  m.hash = crypto::sha256(as_bytes_view("value"));
  m.prep_cert = prep_cert();
  m.write_cert = write_cert();
  m.client = 2;
  m.sig = to_bytes("client-sig");
  auto back = PrepareRequest::decode(m.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->t, m.t);
  EXPECT_EQ(back->hash, m.hash);
  EXPECT_EQ(back->prep_cert, m.prep_cert);
  ASSERT_TRUE(back->write_cert.has_value());
  EXPECT_EQ(*back->write_cert, *m.write_cert);
  EXPECT_EQ(back->client, 2u);
  expect_rejects_mutations(m);
}

TEST(MessagesTest, PrepareRequestWithoutWriteCert) {
  PrepareRequest m;
  m.object = 1;
  m.t = {1, 4};
  m.hash = crypto::sha256(as_bytes_view("first"));
  m.prep_cert = PrepareCertificate::genesis(1);
  m.client = 4;
  m.sig = to_bytes("s");
  auto back = PrepareRequest::decode(m.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_FALSE(back->write_cert.has_value());
}

TEST(MessagesTest, PrepareSigningPayloadBindsEverything) {
  PrepareRequest base;
  base.object = 7;
  base.t = {5, 2};
  base.hash = crypto::sha256(as_bytes_view("value"));
  base.prep_cert = prep_cert();
  base.client = 2;

  auto payload = base.signing_payload();
  {
    PrepareRequest m = base;
    m.t = {6, 2};
    EXPECT_NE(m.signing_payload(), payload);
  }
  {
    PrepareRequest m = base;
    m.hash = crypto::sha256(as_bytes_view("other"));
    EXPECT_NE(m.signing_payload(), payload);
  }
  {
    PrepareRequest m = base;
    m.object = 8;
    EXPECT_NE(m.signing_payload(), payload);
  }
  {
    PrepareRequest m = base;
    m.write_cert = write_cert();
    EXPECT_NE(m.signing_payload(), payload);
  }
  {
    PrepareRequest m = base;
    m.client = 3;
    EXPECT_NE(m.signing_payload(), payload);
  }
  // The signature itself is NOT part of the signed payload.
  {
    PrepareRequest m = base;
    m.sig = to_bytes("different");
    EXPECT_EQ(m.signing_payload(), payload);
  }
}

TEST(MessagesTest, PrepareReplyRoundtrip) {
  PrepareReply m;
  m.object = 7;
  m.t = {5, 2};
  m.hash = crypto::sha256(as_bytes_view("value"));
  m.replica = 1;
  m.sig = to_bytes("stmt-sig");
  auto back = PrepareReply::decode(m.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->t, m.t);
  EXPECT_EQ(back->replica, 1u);
  expect_rejects_mutations(m);
}

TEST(MessagesTest, WriteRequestRoundtrip) {
  WriteRequest m;
  m.object = 7;
  m.value = to_bytes("the payload bytes");
  m.prep_cert = prep_cert();
  m.client = 9;
  m.sig = to_bytes("cs");
  auto back = WriteRequest::decode(m.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->value, m.value);
  EXPECT_EQ(back->prep_cert, m.prep_cert);
  expect_rejects_mutations(m);
}

TEST(MessagesTest, WriteSigningPayloadBindsValueByDigest) {
  WriteRequest a;
  a.object = 7;
  a.value = to_bytes("v1");
  a.prep_cert = prep_cert();
  a.client = 9;
  WriteRequest b = a;
  b.value = to_bytes("v2");
  EXPECT_NE(a.signing_payload(), b.signing_payload());
}

TEST(MessagesTest, WriteReplyRoundtrip) {
  WriteReply m;
  m.object = 7;
  m.ts = {5, 2};
  m.replica = 2;
  m.sig = to_bytes("ws");
  auto back = WriteReply::decode(m.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->ts, m.ts);
  expect_rejects_mutations(m);
}

TEST(MessagesTest, ReadRequestRoundtripWithAndWithoutCert) {
  ReadRequest plain;
  plain.object = 3;
  plain.nonce = nonce(1);
  auto back = ReadRequest::decode(plain.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_FALSE(back->write_cert.has_value());

  ReadRequest with_cert = plain;
  with_cert.write_cert = write_cert();
  auto back2 = ReadRequest::decode(with_cert.encode());
  ASSERT_TRUE(back2.has_value());
  ASSERT_TRUE(back2->write_cert.has_value());
  EXPECT_EQ(*back2->write_cert, *with_cert.write_cert);
  expect_rejects_mutations(with_cert);
}

TEST(MessagesTest, ReadReplyRoundtrip) {
  ReadReply m;
  m.object = 3;
  m.value = to_bytes("stored");
  m.pcert = prep_cert();
  m.nonce = nonce(2);
  m.replica = 0;
  m.auth = to_bytes("a");
  auto back = ReadReply::decode(m.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->value, m.value);
  EXPECT_EQ(back->pcert, m.pcert);
  expect_rejects_mutations(m);
}

TEST(MessagesTest, ReadTsPrepRequestRoundtrip) {
  ReadTsPrepRequest m;
  m.object = 3;
  m.hash = crypto::sha256(as_bytes_view("next"));
  m.write_cert = write_cert();
  m.nonce = nonce(4);
  m.client = 5;
  m.sig = to_bytes("cs");
  auto back = ReadTsPrepRequest::decode(m.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->hash, m.hash);
  ASSERT_TRUE(back->write_cert.has_value());
  expect_rejects_mutations(m);
}

TEST(MessagesTest, ReadTsPrepReplyRoundtripBothArms) {
  ReadTsPrepReply prepared;
  prepared.object = 3;
  prepared.nonce = nonce(4);
  prepared.pcert = prep_cert();
  prepared.prepared = true;
  prepared.predicted_t = {5, 5};
  prepared.hash = crypto::sha256(as_bytes_view("next"));
  prepared.prepare_sig = to_bytes("ps");
  prepared.strong_write_sig = to_bytes("ss");
  prepared.replica = 2;
  prepared.auth = to_bytes("a");
  auto back = ReadTsPrepReply::decode(prepared.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->prepared);
  EXPECT_EQ(back->predicted_t, prepared.predicted_t);
  EXPECT_EQ(back->prepare_sig, prepared.prepare_sig);

  ReadTsPrepReply fallback = prepared;
  fallback.prepared = false;
  auto back2 = ReadTsPrepReply::decode(fallback.encode());
  ASSERT_TRUE(back2.has_value());
  EXPECT_FALSE(back2->prepared);
  expect_rejects_mutations(prepared);
}

TEST(MessagesTest, EnvelopeRoundtrip) {
  rpc::Envelope env;
  env.type = rpc::MsgType::kPrepare;
  env.rpc_id = 0xdeadbeef;
  env.sender = 42;
  env.body = to_bytes("body bytes");
  auto back = rpc::Envelope::decode(env.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->type, env.type);
  EXPECT_EQ(back->rpc_id, env.rpc_id);
  EXPECT_EQ(back->sender, env.sender);
  EXPECT_EQ(back->body, env.body);
}

TEST(MessagesTest, EnvelopeRejectsTrailingGarbage) {
  rpc::Envelope env;
  env.type = rpc::MsgType::kRead;
  Bytes enc = env.encode();
  enc.push_back(0x00);
  EXPECT_FALSE(rpc::Envelope::decode(enc).has_value());
}

TEST(MessagesTest, RandomBytesNeverDecodeToValidEnvelope) {
  // Fuzz-lite: random buffers must be rejected or decode to something
  // harmless, never crash.
  Rng rng(2718);
  int decoded = 0;
  for (int i = 0; i < 2000; ++i) {
    const Bytes junk = rng.bytes(rng.next_below(64));
    auto env = rpc::Envelope::decode(junk);
    if (env.has_value()) ++decoded;
    // Inner decoders on junk bodies must also be safe.
    (void)PrepareRequest::decode(junk);
    (void)ReadTsReply::decode(junk);
    (void)WriteRequest::decode(junk);
    (void)ReadTsPrepReply::decode(junk);
  }
  // Statistically a few random buffers may parse as envelopes (the
  // format has no magic); the point is memory safety, not rejection.
  SUCCEED();
}

// Regression for the [[nodiscard]] sweep: get_cert decoded the embedded
// certificate from an inner Reader but dropped that reader's verdict, so
// a WRITE whose certificate blob was truncated (half-decoded cert) or
// carried trailing garbage still parsed as a well-formed message.
Bytes write_request_with_cert_blob(const Bytes& cert_blob) {
  Writer w;
  w.put_u64(7);                 // object
  w.put_bytes(to_bytes("v"));   // value
  w.put_bytes(cert_blob);       // put_cert's length-prefixed blob
  w.put_u32(4);                 // client
  w.put_bytes(to_bytes("sig"));
  return std::move(w).take();
}

TEST(MessagesTest, WriteRequestRejectsCertBlobTrailingGarbage) {
  Writer inner;
  prep_cert().encode(inner);
  Bytes blob = std::move(inner).take();
  ASSERT_TRUE(WriteRequest::decode(write_request_with_cert_blob(blob))
                  .has_value());  // control: the clean blob decodes

  Bytes tampered = blob;
  tampered.push_back(0xab);
  EXPECT_FALSE(WriteRequest::decode(write_request_with_cert_blob(tampered))
                   .has_value());
}

TEST(MessagesTest, WriteRequestRejectsTruncatedCertBlob) {
  Writer inner;
  prep_cert().encode(inner);
  Bytes blob = std::move(inner).take();
  for (std::size_t cut = 1; cut <= 4; ++cut) {
    Bytes truncated(blob.begin(),
                    blob.end() - static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(
        WriteRequest::decode(write_request_with_cert_blob(truncated))
            .has_value())
        << "cut " << cut;
  }
}

TEST(MessagesTest, PrepareRequestRejectsTamperedOptionalWriteCert) {
  // Same hole via the optional-wcert path: present flag + tampered blob.
  Writer inner;
  write_cert().encode(inner);
  Bytes blob = std::move(inner).take();
  blob.push_back(0xcd);

  Writer w;
  w.put_u64(7);  // object
  wire::put(w, Timestamp{4, 2});
  w.put_raw(crypto::digest_view(crypto::sha256(as_bytes_view("v"))));
  Writer cert;
  prep_cert().encode(cert);
  w.put_bytes(std::move(cert).take());  // valid prepare cert
  w.put_bool(true);                     // optional write cert present...
  w.put_bytes(blob);                    // ...but its blob is tampered
  w.put_u32(4);
  w.put_bytes(to_bytes("sig"));
  EXPECT_FALSE(PrepareRequest::decode(std::move(w).take()).has_value());
}

TEST(MessagesTest, ReplyBatchRoundtrip) {
  ReplyBatch rb;
  rb.replica = 2;
  rb.replies = {to_bytes("encoded-env-1"), to_bytes("encoded-env-2")};
  rb.auth = to_bytes("mac");
  auto d = ReplyBatch::decode(rb.encode());
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->replica, 2u);
  ASSERT_EQ(d->replies.size(), 2u);
  EXPECT_EQ(to_string(d->replies[1]), "encoded-env-2");
  EXPECT_EQ(to_string(d->auth), "mac");
  // The signing payload covers the replica id and every bundled reply.
  ReplyBatch other = rb;
  other.replies[0] = to_bytes("encoded-env-X");
  EXPECT_NE(to_string(rb.signing_payload()),
            to_string(other.signing_payload()));
  other = rb;
  other.replica = 3;
  EXPECT_NE(to_string(rb.signing_payload()),
            to_string(other.signing_payload()));
}

TEST(MessagesTest, ReplyBatchRejectsTruncationAndTrailingGarbage) {
  ReplyBatch rb;
  rb.replica = 1;
  rb.replies = {to_bytes("r")};
  rb.auth = to_bytes("mac");
  Bytes wire = rb.encode();
  Bytes truncated(wire.begin(), wire.end() - 1);
  EXPECT_FALSE(ReplyBatch::decode(truncated).has_value());
  Bytes padded = wire;
  padded.push_back(0x00);
  EXPECT_FALSE(ReplyBatch::decode(padded).has_value());
}

}  // namespace
}  // namespace bftbc::core
