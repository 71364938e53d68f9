// RSA signatures with PKCS#1 v1.5 padding over SHA-256, from scratch.
//
// The paper requires unforgeable digital signatures for the statements
// that travel inside certificates (phase-2 and phase-3 replies, §3.3.2):
// those are shown to third parties, so MACs do not suffice. This module
// provides the real public-key backend; signing uses CRT for the usual
// ~4x speedup.
#pragma once

#include <optional>

#include "crypto/bigint.h"
#include "crypto/sha256.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace bftbc::crypto {

struct RsaPublicKey {
  BigInt n;  // modulus
  BigInt e;  // public exponent (65537)

  std::size_t modulus_bytes() const { return (n.bit_length() + 7) / 8; }

  Bytes encode() const;
  // Rejects malformed bytes, e = 0, an even modulus and one shorter
  // than the 62 bytes the PKCS#1 v1.5 SHA-256 encoding needs.
  static std::optional<RsaPublicKey> decode(BytesView b);
};

struct RsaPrivateKey {
  BigInt n, e, d;
  // CRT components.
  BigInt p, q, dp, dq, qinv;

  RsaPublicKey public_key() const { return {n, e}; }
};

struct RsaKeyPair {
  RsaPrivateKey priv;
  RsaPublicKey pub;
};

// Generate an RSA key with a modulus of `bits` bits (deterministic for a
// fixed rng seed). bits must be >= 512 so the PKCS#1 v1.5 SHA-256
// DigestInfo (51 bytes) fits.
RsaKeyPair rsa_generate(Rng& rng, std::size_t bits = 1024);

// Cached Montgomery reduction contexts for one key. Building the
// contexts costs a few divisions; every sign/verify after that skips
// the per-operation precompute entirely. Immutable once constructed.
class RsaContext {
 public:
  explicit RsaContext(const RsaPublicKey& pub);
  explicit RsaContext(const RsaPrivateKey& priv);

  const Montgomery& mont_n() const { return mont_n_; }
  // Only present when built from a private key.
  const Montgomery* mont_p() const { return mont_p_ ? &*mont_p_ : nullptr; }
  const Montgomery* mont_q() const { return mont_q_ ? &*mont_q_ : nullptr; }

 private:
  Montgomery mont_n_;
  std::optional<Montgomery> mont_p_;
  std::optional<Montgomery> mont_q_;
};

// Sign message (hashes internally with SHA-256).
Bytes rsa_sign(const RsaPrivateKey& key, BytesView message);
// Context-cached variant; ctx must be built from `key`.
Bytes rsa_sign(const RsaPrivateKey& key, const RsaContext& ctx,
               BytesView message);

// Verify a signature over message. False for a key whose modulus is
// even or too short for the encoding.
[[nodiscard]] bool rsa_verify(const RsaPublicKey& key, BytesView message,
                              BytesView signature);
// Context-cached variant; ctx must be built from `key` (or its pair).
[[nodiscard]] bool rsa_verify(const RsaPublicKey& key, const RsaContext& ctx,
                              BytesView message, BytesView signature);

}  // namespace bftbc::crypto
