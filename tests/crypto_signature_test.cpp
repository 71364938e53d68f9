#include "crypto/signature.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

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

// ------------------------------------------------- batched signatures
//
// A kRsa statement signature: nonce[16] || index || depth || depth
// sibling digests || RSA-512 signature over the root (signature.h).

constexpr std::size_t kNonce = 16;
constexpr std::size_t kIndexAt = kNonce;
constexpr std::size_t kDepthAt = kNonce + 1;
constexpr std::size_t kSiblingsAt = kNonce + 2;
constexpr std::size_t kRsa512 = 64;

std::vector<Bytes> statements(std::size_t n, const std::string& tag) {
  std::vector<Bytes> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(to_bytes(tag + " statement " + std::to_string(i)));
  }
  return out;
}

class BatchSignatureTest : public ::testing::Test {
 protected:
  Keystore ks_{SignatureScheme::kRsa, /*seed=*/31, /*rsa_bits=*/512};
  Signer signer_ = ks_.register_principal(2);
};

TEST_F(BatchSignatureTest, RoundTripOneToNineStatements) {
  for (std::size_t n = 1; n <= 9; ++n) {
    const std::vector<Bytes> msgs = statements(n, "n=" + std::to_string(n));
    ks_.reset_counters();
    const std::vector<Bytes> sigs = signer_.sign_batch(msgs).value();
    ASSERT_EQ(sigs.size(), n);
    // One RSA signature per run of at most four statements.
    EXPECT_EQ(ks_.counters().get("sign"), (n + 3) / 4) << n;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t leaves = std::min<std::size_t>(4, n - i / 4 * 4);
      const std::size_t depth = leaves == 1 ? 0 : leaves == 2 ? 1 : 2;
      EXPECT_EQ(sigs[i][kIndexAt], i % 4) << n << "/" << i;
      EXPECT_EQ(sigs[i][kDepthAt], depth) << n << "/" << i;
      EXPECT_EQ(sigs[i].size(), kSiblingsAt + 32 * depth + kRsa512);
      EXPECT_TRUE(ks_.verify(2, msgs[i], sigs[i])) << n << "/" << i;
      EXPECT_TRUE(ks_.verify_cached(2, msgs[i], sigs[i])) << n << "/" << i;
      // A batch-mate's signature vouches only for its own statement.
      if (n > 1) {
        EXPECT_FALSE(ks_.verify(2, msgs[(i + 1) % n], sigs[i]));
      }
    }
  }
}

TEST_F(BatchSignatureTest, SignIsAOneLeafBatch) {
  const Bytes msg = to_bytes("WRITE-REPLY ts=<3,1>");
  const Bytes sig = signer_.sign(msg).value();
  EXPECT_EQ(sig, signer_.sign_batch(std::vector<Bytes>{msg}).value()[0]);
  EXPECT_EQ(sig.size(), ks_.signature_size());
  EXPECT_EQ(sig[kDepthAt], 0);
}

TEST_F(BatchSignatureTest, EveryTamperedByteIsRejected) {
  const std::vector<Bytes> msgs = statements(3, "tamper");
  const std::vector<Bytes> sigs = signer_.sign_batch(msgs).value();
  for (std::size_t leaf = 0; leaf < msgs.size(); ++leaf) {
    ASSERT_TRUE(ks_.verify(2, msgs[leaf], sigs[leaf]));
    // Nonce, index, depth, both siblings and the RSA signature.
    for (std::size_t at = 0; at < sigs[leaf].size(); ++at) {
      for (std::uint8_t flip : {0x01, 0x80}) {
        Bytes bad = sigs[leaf];
        bad[at] ^= flip;
        EXPECT_FALSE(ks_.verify(2, msgs[leaf], bad)) << leaf << "@" << at;
        EXPECT_FALSE(ks_.verify_cached(2, msgs[leaf], bad))
            << leaf << "@" << at;
      }
    }
    // Truncated or extended proofs do not parse.
    Bytes shorter(sigs[leaf].begin(), sigs[leaf].end() - 1);
    Bytes longer = sigs[leaf];
    longer.push_back(0);
    EXPECT_FALSE(ks_.verify(2, msgs[leaf], shorter));
    EXPECT_FALSE(ks_.verify(2, msgs[leaf], longer));
  }
}

TEST_F(BatchSignatureTest, OutOfRangeIndexOrDepthIsRejected) {
  for (std::size_t n : {1, 2, 4}) {
    const std::vector<Bytes> msgs = statements(n, "range");
    const Bytes sig = signer_.sign_batch(msgs).value()[0];
    const std::size_t depth = sig[kDepthAt];
    for (std::size_t index = std::size_t{1} << depth; index < 256; ++index) {
      Bytes bad = sig;
      bad[kIndexAt] = static_cast<std::uint8_t>(index);
      EXPECT_FALSE(ks_.verify(2, msgs[0], bad)) << n << " index " << index;
      EXPECT_FALSE(ks_.verify_cached(2, msgs[0], bad));
    }
    // A deeper claim, padded with sibling bytes so the length matches.
    for (std::size_t claimed = depth + 1; claimed < 256; ++claimed) {
      Bytes bad(sig.begin(), sig.begin() + kSiblingsAt);
      bad[kDepthAt] = static_cast<std::uint8_t>(claimed);
      bad.resize(kSiblingsAt + 32 * std::min<std::size_t>(claimed, 8), 0x33);
      append(bad, BytesView(sig).last(kRsa512));
      EXPECT_FALSE(ks_.verify(2, msgs[0], bad)) << n << " depth " << claimed;
    }
  }
}

TEST_F(BatchSignatureTest, ReleasedPathCannotVouchForASibling) {
  // A PREPARE-REPLY and the WRITE-REPLY presigned in the same flush. The
  // client holds the first's signature, whose sibling is the second's
  // leaf; without the second's nonce it cannot sign the second
  // statement, whatever nonce it tries.
  const std::vector<Bytes> msgs = {to_bytes("PREPARE-REPLY t=<4,2>"),
                                   to_bytes("WRITE-REPLY t=<4,2>")};
  const std::vector<Bytes> sigs = signer_.sign_batch(msgs).value();
  ASSERT_TRUE(ks_.verify(2, msgs[1], sigs[1]));
  const Bytes& released = sigs[0];
  // The released leaf, which the forger can compute.
  Sha256 h;
  const std::uint8_t leaf_tag = 0x00;
  h.update(BytesView(&leaf_tag, 1));
  h.update(BytesView(released).first(kNonce));
  h.update(msgs[0]);
  const Digest released_leaf = h.finish();

  EXPECT_FALSE(ks_.verify(2, msgs[1], released));
  Rng rng(99);
  std::vector<Bytes> nonces = {Bytes(kNonce, 0),
                               Bytes(released.begin(),
                                     released.begin() + kNonce)};
  for (int i = 0; i < 64; ++i) nonces.push_back(rng.bytes(kNonce));
  for (const Bytes& nonce : nonces) {
    Bytes forged = nonce;
    forged.push_back(1);  // the sibling's index
    forged.push_back(1);  // depth
    append(forged, digest_view(released_leaf));
    append(forged, BytesView(released).last(kRsa512));
    EXPECT_FALSE(ks_.verify(2, msgs[1], forged));
    EXPECT_FALSE(ks_.verify_cached(2, msgs[1], forged));
    // Nor under the released leaf's own index and path.
    Bytes reused = released;
    std::copy(nonce.begin(), nonce.end(), reused.begin());
    EXPECT_FALSE(ks_.verify(2, msgs[1], reused));
  }
}

TEST_F(BatchSignatureTest, VerifyCachedChecksEachRootOnce) {
  const std::vector<Bytes> msgs = statements(6, "cache");
  const std::vector<Bytes> sigs = signer_.sign_batch(msgs).value();
  ks_.reset_counters();
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    EXPECT_TRUE(ks_.verify_cached(2, msgs[i], sigs[i]));
  }
  // Two roots (4 + 2 statements): two RSA verifies, four hits.
  EXPECT_EQ(ks_.counters().get("verify"), 2u);
  EXPECT_EQ(ks_.counters().get("sig_cache_hit"), 4u);
  // A hit still checks the statement against the path.
  EXPECT_FALSE(ks_.verify_cached(2, msgs[0], sigs[1]));
}

TEST_F(BatchSignatureTest, NoncesLeaveKeyGenerationUnchanged) {
  // Signing draws nothing from the keystore's RNG: a principal registered
  // after a batch gets the key it gets without one.
  Keystore quiet(SignatureScheme::kRsa, /*seed=*/31, /*rsa_bits=*/512);
  (void)quiet.register_principal(2);
  (void)signer_.sign_batch(statements(5, "draw")).value();
  const Signer after_batch = ks_.register_principal(3);
  const Signer after_nothing = quiet.register_principal(3);
  const Bytes msg = to_bytes("statement");
  EXPECT_EQ(after_batch.sign(msg).value(), after_nothing.sign(msg).value());
}

TEST(HmacBatchSignatureTest, SignBatchEqualsPerStatementSign) {
  Keystore ks(SignatureScheme::kHmacSim, 8);
  const Signer s = ks.register_principal(4);
  const std::vector<Bytes> msgs = statements(9, "hmac");
  ks.reset_counters();
  const std::vector<Bytes> sigs = s.sign_batch(msgs).value();
  EXPECT_EQ(ks.counters().get("sign"), msgs.size());
  ASSERT_EQ(sigs.size(), msgs.size());
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    EXPECT_EQ(sigs[i], s.sign(msgs[i]).value());
  }
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
