#include "crypto/rsa.h"

#include <gtest/gtest.h>

#include "util/hex.h"

namespace bftbc::crypto {
namespace {

class RsaTest : public ::testing::Test {
 protected:
  // 512-bit keys keep keygen fast in tests; production uses 1024+.
  static RsaKeyPair& key() {
    static RsaKeyPair kp = [] {
      Rng rng(12345);
      return rsa_generate(rng, 512);
    }();
    return kp;
  }
};

TEST_F(RsaTest, SignVerifyRoundtrip) {
  const Bytes msg = to_bytes("prepare-reply ts=7 hash=abc");
  const Bytes sig = rsa_sign(key().priv, msg);
  EXPECT_EQ(sig.size(), key().pub.modulus_bytes());
  EXPECT_TRUE(rsa_verify(key().pub, msg, sig));
}

TEST_F(RsaTest, VerifyRejectsTamperedMessage) {
  const Bytes sig = rsa_sign(key().priv, to_bytes("value A"));
  EXPECT_FALSE(rsa_verify(key().pub, to_bytes("value B"), sig));
}

TEST_F(RsaTest, VerifyRejectsTamperedSignature) {
  const Bytes msg = to_bytes("hello");
  Bytes sig = rsa_sign(key().priv, msg);
  sig[sig.size() / 2] ^= 0x01;
  EXPECT_FALSE(rsa_verify(key().pub, msg, sig));
}

TEST_F(RsaTest, VerifyRejectsWrongLengthSignature) {
  const Bytes msg = to_bytes("hello");
  Bytes sig = rsa_sign(key().priv, msg);
  sig.pop_back();
  EXPECT_FALSE(rsa_verify(key().pub, msg, sig));
  sig.push_back(0);
  sig.push_back(0);
  EXPECT_FALSE(rsa_verify(key().pub, msg, sig));
}

TEST_F(RsaTest, VerifyRejectsSignatureGEModulus) {
  const Bytes msg = to_bytes("hello");
  const Bytes n_bytes = key().pub.n.to_bytes_padded(key().pub.modulus_bytes());
  EXPECT_FALSE(rsa_verify(key().pub, msg, n_bytes));
}

TEST_F(RsaTest, SignaturesFromDifferentKeysDontCross) {
  Rng rng(54321);
  const RsaKeyPair other = rsa_generate(rng, 512);
  const Bytes msg = to_bytes("certificate statement");
  const Bytes sig = rsa_sign(key().priv, msg);
  EXPECT_FALSE(rsa_verify(other.pub, msg, sig));
}

TEST_F(RsaTest, DeterministicSignature) {
  // PKCS#1 v1.5 is deterministic: same key+message → same signature.
  const Bytes msg = to_bytes("idempotent");
  EXPECT_EQ(rsa_sign(key().priv, msg), rsa_sign(key().priv, msg));
}

TEST_F(RsaTest, PublicKeyEncodeDecodeRoundtrip) {
  const Bytes enc = key().pub.encode();
  auto decoded = RsaPublicKey::decode(enc);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->n, key().pub.n);
  EXPECT_EQ(decoded->e, key().pub.e);
}

TEST_F(RsaTest, PublicKeyDecodeRejectsGarbage) {
  EXPECT_FALSE(RsaPublicKey::decode(to_bytes("not a key")).has_value());
  EXPECT_FALSE(RsaPublicKey::decode(Bytes{}).has_value());
}

TEST_F(RsaTest, PublicKeyDecodeRejectsEvenModulus) {
  const RsaPublicKey even{key().pub.n + BigInt(1), key().pub.e};
  EXPECT_FALSE(RsaPublicKey::decode(even.encode()).has_value());
}

TEST_F(RsaTest, PublicKeyDecodeRejectsModulusTooShortForEncoding) {
  // 19 bytes of DigestInfo, 32 of digest and 11 of padding: 62 bytes is
  // the shortest modulus the encoding fits in.
  auto odd_with_bytes = [](std::size_t bytes) {
    return BigInt(1).shifted_left(8 * bytes) - BigInt(1);
  };
  const RsaPublicKey short_key{odd_with_bytes(61), BigInt(65537)};
  EXPECT_FALSE(RsaPublicKey::decode(short_key.encode()).has_value());
  const RsaPublicKey shortest{odd_with_bytes(62), BigInt(65537)};
  EXPECT_TRUE(RsaPublicKey::decode(shortest.encode()).has_value());
}

TEST_F(RsaTest, VerifyRejectsModulusTooShortForEncoding) {
  // A hand-built 8-byte key: verify must refuse it before encoding the
  // message into 8 bytes, which would write outside the buffer.
  const RsaPublicKey tiny{BigInt::from_hex("c4f1d6a3b2e59f07"), BigInt(65537)};
  const Bytes msg = to_bytes("hello");
  const Bytes sig = BigInt::from_hex("0123456789abcdef").to_bytes_padded(8);
  EXPECT_FALSE(rsa_verify(tiny, msg, sig));
  const RsaContext ctx(tiny);
  EXPECT_FALSE(rsa_verify(tiny, ctx, msg, sig));
}

TEST_F(RsaTest, KeygenEnforcesMinimumSize) {
  Rng rng(777);
  // Request far too small; generator must round up so EMSA fits.
  const RsaKeyPair kp = rsa_generate(rng, 128);
  const Bytes msg = to_bytes("x");
  const Bytes sig = rsa_sign(kp.priv, msg);
  EXPECT_TRUE(rsa_verify(kp.pub, msg, sig));
}

TEST_F(RsaTest, EmptyMessageSigns) {
  const Bytes sig = rsa_sign(key().priv, Bytes{});
  EXPECT_TRUE(rsa_verify(key().pub, Bytes{}, sig));
}

TEST_F(RsaTest, CrtMatchesPlainModExp) {
  // The CRT fast path must produce the identical signature to the naive
  // s = m^d mod n computation.
  const Bytes msg = to_bytes("crt consistency check");
  const Bytes crt_sig = rsa_sign(key().priv, msg);

  // Recompute without CRT: the signature is m_enc^d mod n where m_enc is
  // recoverable by verifying: s^e mod n must equal the EMSA encoding.
  const BigInt s = BigInt::from_bytes(crt_sig);
  const BigInt m = BigInt::mod_exp(s, key().priv.e, key().priv.n);
  const BigInt s_plain = BigInt::mod_exp(m, key().priv.d, key().priv.n);
  EXPECT_EQ(s_plain, s);
}

TEST_F(RsaTest, KeyComponentsConsistent) {
  const auto& k = key().priv;
  EXPECT_EQ(k.p * k.q, k.n);
  // e*d ≡ 1 mod (p-1)(q-1)
  const BigInt phi = (k.p - BigInt(1)) * (k.q - BigInt(1));
  EXPECT_TRUE(((k.e * k.d) % phi).is_one());
  // CRT exponents and inverse.
  EXPECT_EQ(k.dp, k.d % (k.p - BigInt(1)));
  EXPECT_EQ(k.dq, k.d % (k.q - BigInt(1)));
  EXPECT_TRUE(((k.qinv * k.q) % k.p).is_one());
}

// Known answers: keygen (whose Miller-Rabin rounds run through
// Montgomery) and PKCS#1 v1.5 signing are deterministic, so a fixed seed
// pins the modulus and the signature bytes across changes to the
// modular-arithmetic engine.
TEST(RsaKnownAnswerTest, KeygenAndSignatureBytesArePinned) {
  struct Case {
    std::size_t bits;
    const char* modulus_prefix;
    const char* sig_sha256;
  };
  const Case cases[] = {
      {512, "b7b9246c54df2733",
       "08a550f662facc86111118451c5b257d7c0e813c1831d348ecb14238d0c034ad"},
      {1024, "832283541db9725a",
       "2aa67fb43dab822521c4887682b45f740fc38a6127f000343df08ad4cd76883d"},
  };
  const Bytes msg = to_bytes("bftbc known-answer");
  for (const Case& c : cases) {
    Rng rng(7);
    const RsaKeyPair kp = rsa_generate(rng, c.bits);
    EXPECT_EQ(kp.pub.n.to_hex().substr(0, 16), c.modulus_prefix) << c.bits;
    const RsaContext ctx(kp.priv);
    const Bytes sig = rsa_sign(kp.priv, ctx, msg);
    EXPECT_EQ(to_hex(digest_view(sha256(sig))), c.sig_sha256) << c.bits;
    EXPECT_TRUE(rsa_verify(kp.pub, RsaContext(kp.pub), msg, sig)) << c.bits;
  }
}

TEST_F(RsaTest, DistinctSeedsDistinctKeys) {
  Rng a(1), b(2);
  const RsaKeyPair ka = rsa_generate(a, 512);
  const RsaKeyPair kb = rsa_generate(b, 512);
  EXPECT_NE(ka.pub.n, kb.pub.n);
}

}  // namespace
}  // namespace bftbc::crypto
