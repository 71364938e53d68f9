#include "crypto/rsa.h"

#include "crypto/prime.h"
#include "util/codec.h"

namespace bftbc::crypto {

namespace {

// ASN.1 DigestInfo prefix for SHA-256 (RFC 8017 §9.2 note 1).
constexpr std::uint8_t kSha256DigestInfo[] = {
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01,
    0x65, 0x03, 0x04, 0x02, 0x01, 0x05, 0x00, 0x04, 0x20};

// The shortest modulus the encoding below fits in: DigestInfo, digest
// and 11 bytes of padding (RFC 8017 §9.2 step 3).
constexpr std::size_t kMinModulusBytes =
    sizeof(kSha256DigestInfo) + kDigestSize + 11;

// EMSA-PKCS1-v1_5 encoding: 0x00 0x01 FF..FF 0x00 DigestInfo || H(m).
Bytes emsa_encode(BytesView message, std::size_t em_len) {
  const Digest digest = sha256(message);
  const std::size_t t_len = sizeof(kSha256DigestInfo) + kDigestSize;
  // Callers guarantee em_len >= kMinModulusBytes: keygen's size floor
  // for signs, a length check for verifies.
  Bytes em(em_len, 0xff);
  em[0] = 0x00;
  em[1] = 0x01;
  em[em_len - t_len - 1] = 0x00;
  std::copy(std::begin(kSha256DigestInfo), std::end(kSha256DigestInfo),
            em.begin() + static_cast<std::ptrdiff_t>(em_len - t_len));
  std::copy(digest.begin(), digest.end(),
            em.end() - static_cast<std::ptrdiff_t>(kDigestSize));
  return em;
}

}  // namespace

Bytes RsaPublicKey::encode() const {
  Writer w;
  w.put_bytes(n.to_bytes());
  w.put_bytes(e.to_bytes());
  return std::move(w).take();
}

std::optional<RsaPublicKey> RsaPublicKey::decode(BytesView b) {
  Reader r(b);
  Bytes nb = r.get_bytes();
  Bytes eb = r.get_bytes();
  if (!r.done()) return std::nullopt;
  RsaPublicKey key{BigInt::from_bytes(nb), BigInt::from_bytes(eb)};
  // Montgomery reduction needs an odd modulus, emsa_encode a long one.
  if (!key.n.is_odd() || key.modulus_bytes() < kMinModulusBytes ||
      key.e.is_zero()) {
    return std::nullopt;
  }
  return key;
}

RsaKeyPair rsa_generate(Rng& rng, std::size_t bits) {
  const std::size_t min_bits = kMinModulusBytes * 8;
  if (bits < min_bits) bits = min_bits;

  const BigInt e(65537);
  for (;;) {
    BigInt p = generate_prime(rng, bits / 2);
    BigInt q = generate_prime(rng, bits - bits / 2);
    if (p == q) continue;
    if (p < q) std::swap(p, q);
    const BigInt n = p * q;
    if (n.bit_length() != bits) continue;
    const BigInt phi = (p - BigInt(1)) * (q - BigInt(1));
    if (!BigInt::gcd(e, phi).is_one()) continue;
    const BigInt d = BigInt::mod_inverse(e, phi);
    if (d.is_zero()) continue;

    RsaPrivateKey priv;
    priv.n = n;
    priv.e = e;
    priv.d = d;
    priv.p = p;
    priv.q = q;
    priv.dp = d % (p - BigInt(1));
    priv.dq = d % (q - BigInt(1));
    priv.qinv = BigInt::mod_inverse(q, p);
    return {priv, priv.public_key()};
  }
}

RsaContext::RsaContext(const RsaPublicKey& pub) : mont_n_(pub.n) {}

RsaContext::RsaContext(const RsaPrivateKey& priv)
    : mont_n_(priv.n), mont_p_(Montgomery(priv.p)), mont_q_(Montgomery(priv.q)) {}

namespace {

Bytes rsa_sign_with(const RsaPrivateKey& key, const Montgomery& mp,
                    const Montgomery& mq, BytesView message) {
  const std::size_t k = (key.n.bit_length() + 7) / 8;
  const BigInt m = BigInt::from_bytes(emsa_encode(message, k));

  // CRT: s = m^d mod n computed as two half-size exponentiations.
  const BigInt m1 = mp.mod_exp(m % key.p, key.dp);
  const BigInt m2 = mq.mod_exp(m % key.q, key.dq);
  // h = qinv * (m1 - m2) mod p (lift m1-m2 into non-negative range first)
  const BigInt m2p = m2 % key.p;
  const BigInt diff = m1 >= m2p ? m1 - m2p : (m1 + key.p) - m2p;
  const BigInt h = (key.qinv * diff) % key.p;
  const BigInt s = m2 + h * key.q;
  return s.to_bytes_padded(k);
}

bool rsa_verify_with(const RsaPublicKey& key, const Montgomery& mn,
                     BytesView message, BytesView signature) {
  const std::size_t k = key.modulus_bytes();
  if (k < kMinModulusBytes || signature.size() != k) return false;
  const BigInt s = BigInt::from_bytes(signature);
  if (s >= key.n) return false;
  const BigInt m = mn.mod_exp(s, key.e);
  const Bytes em = m.to_bytes_padded(k);
  const Bytes expect = emsa_encode(message, k);
  return constant_time_equal(em, expect);
}

}  // namespace

Bytes rsa_sign(const RsaPrivateKey& key, BytesView message) {
  return rsa_sign_with(key, Montgomery(key.p), Montgomery(key.q), message);
}

Bytes rsa_sign(const RsaPrivateKey& key, const RsaContext& ctx,
               BytesView message) {
  return rsa_sign_with(key, *ctx.mont_p(), *ctx.mont_q(), message);
}

bool rsa_verify(const RsaPublicKey& key, BytesView message,
                BytesView signature) {
  // Checked before the context is built: Montgomery needs an odd n.
  return key.n.is_odd() &&
         rsa_verify_with(key, Montgomery(key.n), message, signature);
}

bool rsa_verify(const RsaPublicKey& key, const RsaContext& ctx,
                BytesView message, BytesView signature) {
  return rsa_verify_with(key, ctx.mont_n(), message, signature);
}

}  // namespace bftbc::crypto
