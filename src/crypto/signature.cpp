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

// ---------------------------------------------------- batched signatures
//
// Layout and hashes as in signature.h: nonce || index || depth ||
// siblings || rsa, leaves and inner nodes under their own prefix bytes,
// the RSA signature over the root under a third.
constexpr std::size_t kNonceSize = 16;
constexpr std::size_t kMaxDepth = 2;  // log2(Keystore::kMaxBatchLeaves)
static_assert(std::size_t{1} << kMaxDepth == Keystore::kMaxBatchLeaves);
constexpr std::size_t kProofHeader = kNonceSize + 2;
constexpr std::uint8_t kLeafTag = 0x00;
constexpr std::uint8_t kInnerTag = 0x01;
constexpr std::uint8_t kRootTag = 0x02;

using BatchNonce = std::array<std::uint8_t, kNonceSize>;

Digest leaf_hash(BytesView nonce, BytesView statement) {
  Sha256 h;
  h.update(BytesView(&kLeafTag, 1));
  h.update(nonce);
  h.update(statement);
  return h.finish();
}

Digest inner_hash(BytesView left, BytesView right) {
  Sha256 h;
  h.update(BytesView(&kInnerTag, 1));
  h.update(left);
  h.update(right);
  return h.finish();
}

// The bytes RSA signs for a root: 0x02 || LE32 p || root.
using RootMessage = std::array<std::uint8_t, 1 + 4 + kDigestSize>;
RootMessage root_message(PrincipalId p, const Digest& root) {
  RootMessage m;
  m[0] = kRootTag;
  const auto prefix = principal_prefix(p);
  std::copy(prefix.begin(), prefix.end(), m.begin() + 1);
  std::copy(root.begin(), root.end(), m.begin() + 5);
  return m;
}

// A parsed batched signature. Parsing rejects a depth above kMaxDepth,
// an index outside 2^depth and an RSA part that is not `rsa_size` bytes.
struct BatchProof {
  BytesView nonce;
  std::size_t index = 0;
  std::size_t depth = 0;
  BytesView siblings;  // depth digests, leaf level first
  BytesView rsa;

  static std::optional<BatchProof> parse(BytesView sig, std::size_t rsa_size) {
    if (sig.size() < kProofHeader) return std::nullopt;
    BatchProof p;
    p.nonce = sig.first(kNonceSize);
    p.index = sig[kNonceSize];
    p.depth = sig[kNonceSize + 1];
    if (p.depth > kMaxDepth || p.index >= (std::size_t{1} << p.depth) ||
        sig.size() != kProofHeader + p.depth * kDigestSize + rsa_size) {
      return std::nullopt;
    }
    p.siblings = sig.subspan(kProofHeader, p.depth * kDigestSize);
    p.rsa = sig.subspan(kProofHeader + p.depth * kDigestSize);
    return p;
  }

  // The root `statement` reaches along this path.
  Digest root(BytesView statement) const {
    Digest node = leaf_hash(nonce, statement);
    for (std::size_t level = 0; level < depth; ++level) {
      const BytesView sibling =
          siblings.subspan(level * kDigestSize, kDigestSize);
      node = (index >> level & 1) != 0 ? inner_hash(sibling, node)
                                       : inner_hash(node, sibling);
    }
    return node;
  }
};

}  // namespace

Result<Bytes> Signer::sign(BytesView msg) const {
  if (keystore_ == nullptr)
    return unavailable("signer not bound to a keystore");
  Bytes sig;
  const Status st = keystore_->sign_internal(principal_, {&msg, 1}, &sig);
  if (!st.is_ok()) return st;
  return sig;
}

Result<std::vector<Bytes>> Signer::sign_batch(
    std::span<const Bytes> msgs) const {
  if (keystore_ == nullptr)
    return unavailable("signer not bound to a keystore");
  std::vector<Bytes> sigs(msgs.size());
  std::array<BytesView, Keystore::kMaxBatchLeaves> group;
  for (std::size_t at = 0; at < msgs.size(); at += group.size()) {
    const std::size_t n = std::min(group.size(), msgs.size() - at);
    std::copy(msgs.begin() + at, msgs.begin() + at + n, group.begin());
    const Status st = keystore_->sign_internal(
        principal_, std::span(group).first(n), sigs.data() + at);
    if (!st.is_ok()) return st;
  }
  return sigs;
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
      // The nonce key comes from the private key, not from rng_: signing
      // never draws from rng_, so the keys generated after it do not
      // depend on what was signed.
      Bytes nonce_seed = to_bytes("bftbc-batch-nonce-v1:");
      append(nonce_seed, it->second.rsa->priv.d.to_bytes());
      it->second.nonce_key.emplace(digest_view(sha256(nonce_seed)));
    }
  }
  return Signer(this, p);
}

bool Keystore::is_registered(PrincipalId p) const {
  return principals_.count(p) != 0;
}

Status Keystore::sign_internal(PrincipalId p, std::span<const BytesView> msgs,
                               Bytes* out) {
  auto it = principals_.find(p);
  if (it == principals_.end()) return not_found("unknown principal");
  if (it->second.revoked)
    return unavailable("principal revoked (stopped)");
  if (scheme_ == SignatureScheme::kHmacSim) {
    for (BytesView msg : msgs) {
      counters_.inc("sign");
      *out++ = digest_bytes(it->second.hmac->mac(principal_prefix(p), msg));
    }
  } else {
    counters_.inc("sign");
    sign_root(p, it->second, msgs, out);
  }
  return Status::ok();
}

void Keystore::sign_root(PrincipalId p, const PrincipalEntry& entry,
                         std::span<const BytesView> msgs, Bytes* out) {
  std::size_t depth = 0;
  while (std::size_t{1} << depth < msgs.size()) ++depth;
  const std::size_t width = std::size_t{1} << depth;
  // tree[level][i]: level 0 holds the leaves, then zero-digest padding.
  std::array<std::array<Digest, kMaxBatchLeaves>, kMaxDepth + 1> tree{};
  std::array<BatchNonce, kMaxBatchLeaves> nonces;
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    const Digest prf = entry.nonce_key->mac(msgs[i]);
    std::copy(prf.begin(), prf.begin() + kNonceSize, nonces[i].begin());
    tree[0][i] = leaf_hash(nonces[i], msgs[i]);
  }
  for (std::size_t level = 1; level <= depth; ++level) {
    for (std::size_t i = 0; i < width >> level; ++i) {
      tree[level][i] =
          inner_hash(tree[level - 1][2 * i], tree[level - 1][2 * i + 1]);
    }
  }
  const Bytes rsa = rsa_sign(entry.rsa->priv, *entry.rsa_ctx,
                             root_message(p, tree[depth][0]));
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    Bytes& sig = out[i];
    sig.reserve(kProofHeader + depth * kDigestSize + rsa.size());
    sig.assign(nonces[i].begin(), nonces[i].end());
    sig.push_back(static_cast<std::uint8_t>(i));
    sig.push_back(static_cast<std::uint8_t>(depth));
    for (std::size_t level = 0; level < depth; ++level) {
      append(sig, digest_view(tree[level][(i >> level) ^ 1]));
    }
    append(sig, rsa);
  }
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

bool Keystore::verify_root(const PrincipalEntry& entry, BytesView root_msg,
                           BytesView rsa_sig) const {
  counters_.inc("verify");
  counters_.inc("sig_verify_calls");
  return rsa_verify(entry.rsa->pub, *entry.rsa_ctx, root_msg, rsa_sig);
}

bool Keystore::verify(PrincipalId signer, BytesView msg, BytesView sig) const {
  auto it = principals_.find(signer);
  if (it == principals_.end()) return false;
  if (scheme_ == SignatureScheme::kHmacSim) {
    counters_.inc("verify");
    counters_.inc("sig_verify_calls");
    return it->second.hmac->verify(principal_prefix(signer), msg, sig);
  }
  const auto proof =
      BatchProof::parse(sig, it->second.rsa->pub.modulus_bytes());
  if (!proof.has_value()) {
    counters_.inc("verify");
    counters_.inc("sig_verify_calls");
    return false;
  }
  return verify_root(it->second, root_message(signer, proof->root(msg)),
                     proof->rsa);
}

bool Keystore::verify_cached(PrincipalId signer, BytesView msg,
                             BytesView sig) const {
  // Unknown principals are rejected without caching: registering the
  // principal later must not be shadowed by a stale negative verdict.
  auto it = principals_.find(signer);
  if (it == principals_.end()) return false;
  if (verify_cache_.capacity() == 0) {
    counters_.inc("sig_cache_miss");
    return verify(signer, msg, sig);
  }
  // A batched signature is memoized per signed root, so the statements
  // of one batch share one RSA verify; anything else, a proof that does
  // not parse included, under the whole (msg, sig) pair.
  std::optional<BatchProof> proof;
  if (scheme_ == SignatureScheme::kRsa) {
    proof = BatchProof::parse(sig, it->second.rsa->pub.modulus_bytes());
  }
  RootMessage root_msg{};
  if (proof.has_value()) root_msg = root_message(signer, proof->root(msg));
  const VerifyCache::Key key =
      proof.has_value() ? VerifyCache::make_key(signer, root_msg, proof->rsa)
                        : VerifyCache::make_key(signer, msg, sig);
  const int memo = verify_cache_.lookup(key);
  if (memo >= 0) {
    counters_.inc("sig_cache_hit");
    return memo == 1;
  }
  counters_.inc("sig_cache_miss");
  const bool valid = proof.has_value()
                         ? verify_root(it->second, root_msg, proof->rsa)
                         : verify(signer, msg, sig);
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
  return kProofHeader + (rsa_bits_ + 7) / 8;
}

}  // namespace bftbc::crypto
