#include "crypto/signature.h"

#include <algorithm>

#include "crypto/hmac.h"
#include "util/codec.h"

namespace bftbc::crypto {

namespace {
void append_principal(Bytes& out, PrincipalId p) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(p >> (8 * i)));
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
    : scheme_(scheme), rsa_bits_(rsa_bits), rng_(seed) {
  // Pair-key master secret: a function of the seed alone, NOT of rng_'s
  // stream — same-seeded keystores agree on every session key, and the
  // deterministic principal-key sequence is unchanged by MAC use.
  Bytes seed_input = to_bytes("bftbc-p2p-master-v1:");
  for (int i = 0; i < 8; ++i)
    seed_input.push_back(static_cast<std::uint8_t>(seed >> (8 * i)));
  p2p_master_ = digest_bytes(sha256(seed_input));
}

Signer Keystore::register_principal(PrincipalId p) {
  auto [it, inserted] = principals_.try_emplace(p);
  if (inserted) {
    if (scheme_ == SignatureScheme::kHmacSim) {
      it->second.hmac_secret = rng_.bytes(32);
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
// Domain-separate the signed bytes by principal so a signature by p over
// m can never validate as a signature by p' over m.
Bytes bind_principal(PrincipalId p, BytesView msg) {
  Bytes bound;
  bound.reserve(msg.size() + 4);
  for (int i = 0; i < 4; ++i)
    bound.push_back(static_cast<std::uint8_t>(p >> (8 * i)));
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
  const Bytes bound = bind_principal(p, msg);
  if (scheme_ == SignatureScheme::kHmacSim) {
    Digest tag = hmac_sha256(it->second.hmac_secret, bound);
    return digest_bytes(tag);
  }
  return rsa_sign(it->second.rsa->priv, *it->second.rsa_ctx, bound);
}

Bytes Keystore::pair_key(PrincipalId a, PrincipalId b) const {
  Bytes pair;
  pair.reserve(8);
  append_principal(pair, std::min(a, b));
  append_principal(pair, std::max(a, b));
  return digest_bytes(hmac_sha256(p2p_master_, pair));
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
  Bytes bound;
  bound.reserve(msg.size() + 8);
  append_principal(bound, sender);
  append_principal(bound, receiver);
  append(bound, msg);
  return digest_bytes(hmac_sha256(pair_key(sender, receiver), bound));
}

bool Keystore::mac_check(PrincipalId sender, PrincipalId receiver,
                         BytesView msg, BytesView tag) const {
  if (principals_.count(sender) == 0 || principals_.count(receiver) == 0)
    return false;
  counters_.inc("mac_verify");
  Bytes bound;
  bound.reserve(msg.size() + 8);
  append_principal(bound, sender);
  append_principal(bound, receiver);
  append(bound, msg);
  return hmac_verify(pair_key(sender, receiver), bound, tag);
}

bool Keystore::verify(PrincipalId signer, BytesView msg, BytesView sig) const {
  auto it = principals_.find(signer);
  if (it == principals_.end()) return false;
  counters_.inc("verify");
  counters_.inc("sig_verify_calls");
  const Bytes bound = bind_principal(signer, msg);
  if (scheme_ == SignatureScheme::kHmacSim) {
    return hmac_verify(it->second.hmac_secret, bound, sig);
  }
  return rsa_verify(it->second.rsa->pub, *it->second.rsa_ctx, bound, sig);
}

bool Keystore::verify_cached(PrincipalId signer, BytesView msg,
                             BytesView sig) const {
  // Unknown principals are rejected without caching: registering the
  // principal later must not be shadowed by a stale negative verdict.
  if (principals_.count(signer) == 0) return false;
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
