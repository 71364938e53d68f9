#include "crypto/signature.h"

#include <algorithm>
#include <array>

#include "crypto/hmac.h"

namespace bftbc::crypto {

namespace {

// The N low bytes of v, little-endian.
template <std::size_t N>
std::array<std::uint8_t, N> le_bytes(std::uint64_t v) {
  std::array<std::uint8_t, N> out;
  for (std::size_t i = 0; i < N; ++i) {
    out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  return out;
}

// LE32 p: binds a signature to its signer, so a signature by p over m
// never validates as one by p' over m.
std::array<std::uint8_t, 4> principal_prefix(PrincipalId p) {
  return le_bytes<4>(p);
}

// LE32 a || LE32 b, and the same bytes as one u64: a pair key's
// derivation input (min, max) and a MAC's direction (sender, receiver).
std::uint64_t pair_id(PrincipalId a, PrincipalId b) {
  return a | static_cast<std::uint64_t>(b) << 32;
}
std::array<std::uint8_t, 8> pair_prefix(PrincipalId a, PrincipalId b) {
  return le_bytes<8>(pair_id(a, b));
}

// Pair-key master secret: a function of the seed alone, NOT of the
// keystore's rng stream — same-seeded keystores agree on every session
// key, and the deterministic principal-key sequence is unchanged by MAC
// use.
Digest p2p_master(std::uint64_t seed) {
  Bytes seed_input = to_bytes("bftbc-p2p-master-v1:");
  const auto le_seed = le_bytes<8>(seed);
  seed_input.insert(seed_input.end(), le_seed.begin(), le_seed.end());
  return sha256(seed_input);
}

}  // namespace

Result<Bytes> Signer::sign(BytesView msg) const {
  if (keystore_ == nullptr)
    return unavailable("signer not bound to a keystore");
  return keystore_->sign_internal(principal_, msg);
}

Result<Bytes> Signer::mac(PrincipalId peer, BytesView msg) const {
  if (keystore_ == nullptr)
    return unavailable("signer not bound to a keystore");
  return keystore_->mac_internal(principal_, peer, msg);
}

Result<Bytes> Signer::mac_authenticator(const std::vector<PrincipalId>& peers,
                                        BytesView msg) const {
  if (keystore_ == nullptr)
    return unavailable("signer not bound to a keystore");
  Bytes out;
  out.reserve(peers.size() * Keystore::kMacSize);
  for (PrincipalId peer : peers) {
    auto tag = keystore_->mac_internal(principal_, peer, msg);
    if (!tag.is_ok()) return tag;
    append(out, std::move(tag).take());
  }
  return out;
}

Keystore::Keystore(SignatureScheme scheme, std::uint64_t seed,
                   std::size_t rsa_bits)
    : scheme_(scheme),
      rsa_bits_(rsa_bits),
      rng_(seed),
      p2p_master_(digest_view(p2p_master(seed))),
      // An HMAC-sim verify costs about what a cache key does (DESIGN §5).
      verify_cache_(scheme == SignatureScheme::kRsa
                        ? VerifyCache::kDefaultCapacity
                        : 0) {}

Signer Keystore::register_principal(PrincipalId p) {
  auto [it, inserted] = principals_.try_emplace(p);
  if (inserted) {
    if (scheme_ == SignatureScheme::kHmacSim) {
      it->second.hmac.emplace(rng_.bytes(32));
    } else {
      it->second.rsa = rsa_generate(rng_, rsa_bits_);
      it->second.rsa_ctx = std::make_shared<RsaContext>(it->second.rsa->priv);
    }
  }
  return Signer(this, p);
}

bool Keystore::is_registered(PrincipalId p) const {
  return principals_.count(p) != 0;
}

namespace {
// The signed bytes of an RSA signature: LE32 p || msg.
Bytes bind_principal(PrincipalId p, BytesView msg) {
  const auto prefix = principal_prefix(p);
  Bytes bound(prefix.begin(), prefix.end());
  append(bound, msg);
  return bound;
}
}  // namespace

Result<Bytes> Keystore::sign_internal(PrincipalId p, BytesView msg) {
  auto it = principals_.find(p);
  if (it == principals_.end()) return not_found("unknown principal");
  if (it->second.revoked)
    return unavailable("principal revoked (stopped)");
  counters_.inc("sign");
  if (scheme_ == SignatureScheme::kHmacSim) {
    return digest_bytes(it->second.hmac->mac(principal_prefix(p), msg));
  }
  return rsa_sign(it->second.rsa->priv, *it->second.rsa_ctx,
                  bind_principal(p, msg));
}

const HmacKey& Keystore::pair_key(PrincipalId a, PrincipalId b) const {
  const std::uint64_t pair = pair_id(std::min(a, b), std::max(a, b));
  auto it = pair_keys_.find(pair);
  if (it == pair_keys_.end()) {
    const Digest key = p2p_master_.mac(le_bytes<8>(pair));
    it = pair_keys_.emplace(pair, HmacKey(digest_view(key))).first;
  }
  return it->second;
}

Result<Bytes> Keystore::mac_internal(PrincipalId sender, PrincipalId receiver,
                                     BytesView msg) const {
  auto it = principals_.find(sender);
  if (it == principals_.end()) return not_found("unknown principal");
  if (it->second.revoked)
    return unavailable("principal revoked (stopped)");
  if (principals_.count(receiver) == 0)
    return not_found("unknown MAC peer");
  counters_.inc("mac_sign");
  return digest_bytes(
      pair_key(sender, receiver).mac(pair_prefix(sender, receiver), msg));
}

bool Keystore::mac_check(PrincipalId sender, PrincipalId receiver,
                         BytesView msg, BytesView tag) const {
  if (principals_.count(sender) == 0 || principals_.count(receiver) == 0)
    return false;
  counters_.inc("mac_verify");
  return pair_key(sender, receiver)
      .verify(pair_prefix(sender, receiver), msg, tag);
}

bool Keystore::verify(PrincipalId signer, BytesView msg, BytesView sig) const {
  auto it = principals_.find(signer);
  if (it == principals_.end()) return false;
  counters_.inc("verify");
  counters_.inc("sig_verify_calls");
  if (scheme_ == SignatureScheme::kHmacSim) {
    return it->second.hmac->verify(principal_prefix(signer), msg, sig);
  }
  return rsa_verify(it->second.rsa->pub, *it->second.rsa_ctx,
                    bind_principal(signer, msg), sig);
}

bool Keystore::verify_cached(PrincipalId signer, BytesView msg,
                             BytesView sig) const {
  // Unknown principals are rejected without caching: registering the
  // principal later must not be shadowed by a stale negative verdict.
  if (principals_.count(signer) == 0) return false;
  if (verify_cache_.capacity() == 0) {
    counters_.inc("sig_cache_miss");
    return verify(signer, msg, sig);
  }
  const VerifyCache::Key key = VerifyCache::make_key(signer, msg, sig);
  const int memo = verify_cache_.lookup(key);
  if (memo >= 0) {
    counters_.inc("sig_cache_hit");
    return memo == 1;
  }
  counters_.inc("sig_cache_miss");
  const bool valid = verify(signer, msg, sig);
  verify_cache_.insert(key, valid);
  return valid;
}

void Keystore::set_verify_cache_capacity(std::size_t entries) {
  verify_cache_.set_capacity(entries);
}

void Keystore::revoke(PrincipalId p) {
  auto it = principals_.find(p);
  if (it != principals_.end()) it->second.revoked = true;
  // Mandatory cache hygiene: a stopped principal's statements must not
  // keep validating straight from memoization.
  verify_cache_.purge_principal(p);
}

bool Keystore::is_revoked(PrincipalId p) const {
  auto it = principals_.find(p);
  return it != principals_.end() && it->second.revoked;
}

std::size_t Keystore::signature_size() const {
  if (scheme_ == SignatureScheme::kHmacSim) return kDigestSize;
  return (rsa_bits_ + 7) / 8;
}

}  // namespace bftbc::crypto
