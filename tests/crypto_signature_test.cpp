#include "crypto/signature.h"

#include <gtest/gtest.h>

#include "crypto/hmac.h"
#include "crypto/nonce.h"

namespace bftbc::crypto {
namespace {

class SignatureTest : public ::testing::TestWithParam<SignatureScheme> {
 protected:
  // RSA keystore uses small keys so the parameterized suite stays fast.
  Keystore ks_{GetParam(), /*seed=*/5, /*rsa_bits=*/512};
};

TEST_P(SignatureTest, SignVerifyRoundtrip) {
  Signer s = ks_.register_principal(7);
  const Bytes msg = to_bytes("WRITE-REPLY ts=3");
  auto sig = s.sign(msg);
  ASSERT_TRUE(sig.is_ok()) << sig.status().to_string();
  EXPECT_TRUE(ks_.verify(7, msg, sig.value()));
}

TEST_P(SignatureTest, VerifyRejectsOtherPrincipal) {
  Signer a = ks_.register_principal(1);
  ks_.register_principal(2);
  const Bytes msg = to_bytes("statement");
  auto sig = a.sign(msg);
  ASSERT_TRUE(sig.is_ok());
  // A signature by principal 1 must not verify as principal 2 even though
  // the message bytes are identical.
  EXPECT_FALSE(ks_.verify(2, msg, sig.value()));
}

TEST_P(SignatureTest, VerifyRejectsTamperedMessage) {
  Signer s = ks_.register_principal(3);
  auto sig = s.sign(to_bytes("original"));
  ASSERT_TRUE(sig.is_ok());
  EXPECT_FALSE(ks_.verify(3, to_bytes("tampered"), sig.value()));
}

TEST_P(SignatureTest, VerifyUnknownPrincipalFails) {
  EXPECT_FALSE(ks_.verify(99, to_bytes("m"), Bytes(32, 0)));
}

TEST_P(SignatureTest, RevokedPrincipalCannotSign) {
  Signer s = ks_.register_principal(4);
  const Bytes msg = to_bytes("lurking write");
  auto before = s.sign(msg);
  ASSERT_TRUE(before.is_ok());

  ks_.revoke(4);
  EXPECT_TRUE(ks_.is_revoked(4));

  auto after = s.sign(to_bytes("new statement"));
  EXPECT_FALSE(after.is_ok());
  EXPECT_EQ(after.status().code(), StatusCode::kUnavailable);

  // Old signatures still verify: replays of pre-stop messages are
  // allowed by the model (§4.1.1).
  EXPECT_TRUE(ks_.verify(4, msg, before.value()));
}

TEST_P(SignatureTest, RegistrationIsIdempotent) {
  Signer a = ks_.register_principal(6);
  Signer b = ks_.register_principal(6);
  auto sig_a = a.sign(to_bytes("m"));
  auto sig_b = b.sign(to_bytes("m"));
  ASSERT_TRUE(sig_a.is_ok());
  ASSERT_TRUE(sig_b.is_ok());
  // Same key material behind both handles.
  EXPECT_TRUE(ks_.verify(6, to_bytes("m"), sig_a.value()));
  EXPECT_TRUE(ks_.verify(6, to_bytes("m"), sig_b.value()));
}

TEST_P(SignatureTest, CountersTrackOps) {
  Signer s = ks_.register_principal(8);
  ks_.reset_counters();
  auto sig = s.sign(to_bytes("m"));
  ASSERT_TRUE(sig.is_ok());
  (void)ks_.verify(8, to_bytes("m"), sig.value());
  (void)ks_.verify(8, to_bytes("m"), sig.value());
  EXPECT_EQ(ks_.counters().get("sign"), 1u);
  EXPECT_EQ(ks_.counters().get("verify"), 2u);
}

TEST_P(SignatureTest, SignatureSizeReported) {
  Signer s = ks_.register_principal(9);
  auto sig = s.sign(to_bytes("m"));
  ASSERT_TRUE(sig.is_ok());
  EXPECT_EQ(sig.value().size(), ks_.signature_size());
}

// A MAC tag is HMAC(pair key, LE32 sender || LE32 receiver || msg), with
// pair key = HMAC(master, LE32 min || LE32 max) and master =
// SHA-256("bftbc-p2p-master-v1:" || LE64 seed). The keystore derives each
// pair's key on first use; later calls reuse it and give the same tags.
TEST_P(SignatureTest, MacTagsMatchPairKeyDerivation) {
  const PrincipalId a = 0x01020304;
  const PrincipalId b = 7;
  Signer sa = ks_.register_principal(a);
  Signer sb = ks_.register_principal(b);
  auto le = [](Bytes& out, std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  Bytes seed_input = to_bytes("bftbc-p2p-master-v1:");
  le(seed_input, /*seed=*/5, 8);
  const Digest master = sha256(seed_input);
  Bytes pair;
  le(pair, b, 4);  // min
  le(pair, a, 4);  // max
  const Digest pair_key = hmac_sha256(digest_view(master), pair);
  auto expect_tag = [&](PrincipalId from, PrincipalId to, const Bytes& msg) {
    Bytes bound;
    le(bound, from, 4);
    le(bound, to, 4);
    bound.insert(bound.end(), msg.begin(), msg.end());
    return digest_bytes(hmac_sha256(digest_view(pair_key), bound));
  };
  const Bytes msg = to_bytes("READ-TS-REPLY nonce=9");
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(sa.mac(b, msg).value(), expect_tag(a, b, msg)) << round;
    EXPECT_EQ(sb.mac(a, msg).value(), expect_tag(b, a, msg)) << round;
    EXPECT_TRUE(ks_.mac_check(a, b, msg, expect_tag(a, b, msg))) << round;
    EXPECT_TRUE(ks_.mac_check(b, a, msg, expect_tag(b, a, msg))) << round;
    // The direction is bound: a reply tag never checks as a request tag.
    EXPECT_FALSE(ks_.mac_check(b, a, msg, expect_tag(a, b, msg))) << round;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SignatureTest,
                         ::testing::Values(SignatureScheme::kHmacSim,
                                           SignatureScheme::kRsa),
                         [](const auto& info) {
                           return info.param == SignatureScheme::kHmacSim
                                      ? "HmacSim"
                                      : "Rsa";
                         });

TEST(KeystoreTest, UnboundSignerFails) {
  Signer s;
  EXPECT_FALSE(s.valid());
  EXPECT_FALSE(s.sign(to_bytes("m")).is_ok());
}

TEST(KeystoreTest, DeterministicKeysForSeed) {
  Keystore a(SignatureScheme::kHmacSim, 42);
  Keystore b(SignatureScheme::kHmacSim, 42);
  Signer sa = a.register_principal(1);
  Signer sb = b.register_principal(1);
  auto siga = sa.sign(to_bytes("m"));
  auto sigb = sb.sign(to_bytes("m"));
  ASSERT_TRUE(siga.is_ok());
  ASSERT_TRUE(sigb.is_ok());
  EXPECT_EQ(siga.value(), sigb.value());
}

TEST(NonceTest, NoncesAreUniquePerClient) {
  NonceGenerator gen(5, Rng(1));
  Nonce a = gen.next();
  Nonce b = gen.next();
  EXPECT_NE(a, b);
  EXPECT_EQ(a.principal, 5u);
  EXPECT_EQ(b.counter, a.counter + 1);
}

TEST(NonceTest, NoncesDifferAcrossClients) {
  NonceGenerator g1(1, Rng(9)), g2(2, Rng(9));
  // Same rng seed but different principals → still distinct nonces.
  EXPECT_NE(g1.next(), g2.next());
}

TEST(NonceTest, EncodeDecodeRoundtrip) {
  NonceGenerator gen(77, Rng(3));
  const Nonce n = gen.next();
  Writer w;
  wire::put(w, n);
  Reader r(w.data());
  const Nonce back = wire::get<Nonce>(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(n, back);
}

}  // namespace
}  // namespace bftbc::crypto
