// Signing and verification abstraction.
//
// The paper's model: any node can sign messages with its own key; no node
// can produce 〈m〉σn without n's private key; signatures can be checked by
// anyone (they are proofs shown to third parties inside certificates).
//
// Two backends:
//  - kHmacSim : a simulation-grade scheme. A trusted Keystore holds one
//    secret per principal; sign = HMAC(secret_p, principal || msg). This
//    is unforgeable *within the simulation* because code only ever
//    receives a Signer handle for its own principal — exactly the paper's
//    assumption — while being ~1000x faster than RSA, which keeps big
//    adversarial sweeps cheap.
//  - kRsa     : real RSA PKCS#1 v1.5 / SHA-256 (self-implemented), for the
//    authentication-cost experiments (§3.3.2) and end-to-end realism.
//
// Keystore::revoke models the paper's "stop" event: an administrator
// removes the bad client's key, after which no NEW signatures by that
// principal can be created (old ones still verify — replays remain
// possible, as §4.1.1 requires).
//
// Batched signatures (kRsa, DESIGN §5): Signer::sign_batch signs one
// Merkle root per group of at most kMaxBatchLeaves statements, so a
// replica pays one RSA signature for every statement of a same-tick
// flush. Each statement still gets its own signature, an opaque Bytes:
//
//   nonce[16] || u8 index || u8 depth || depth x sibling[32] || rsa
//
// The statement's leaf is SHA-256(0x00 || nonce || statement), an inner
// node SHA-256(0x01 || left || right), and the tree has 2^depth leaf
// slots, unused ones the all-zero digest; `rsa` is the RSA signature
// over 0x02 || LE32 principal || root. The nonce is a PRF of the
// statement under a per-principal secret derived from the private key,
// so a leaf whose signature was not released cannot be recomputed from
// its siblings' proofs. sign() is a one-leaf batch; kHmacSim signs every
// statement alone.
//
// verify_cached memoizes verification verdicts in a bounded flat table
// with CLOCK eviction (see verify_cache.h): certificates are transferable
// proofs whose 2f+1 signatures get re-checked at every hop, so the
// protocol routes all certificate validation through this path. A kRsa
// verdict is keyed on the signed root, so every statement of one batch
// costs one RSA verify. Revoking a principal purges its cache entries, so
// post-stop checks always re-enter the keystore. The cache is on by
// default only for kRsa: a kHmacSim verify costs about what computing a
// cache key does, so an HMAC-sim keystore starts with capacity 0
// (DESIGN §5).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "crypto/hmac.h"
#include "crypto/rsa.h"
#include "crypto/verify_cache.h"
#include "util/bytes.h"
#include "util/id_table.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"

namespace bftbc::crypto {

using PrincipalId = std::uint32_t;

enum class SignatureScheme { kHmacSim, kRsa };

class Keystore;

// A signing capability bound to one principal. Handed to a node at
// creation; honest and Byzantine nodes alike can only sign as themselves.
class Signer {
 public:
  Signer() = default;

  PrincipalId principal() const { return principal_; }
  bool valid() const { return keystore_ != nullptr; }

  // Produces 〈msg〉σ_principal. Returns UNAVAILABLE after revocation
  // (the "stop" event) — a stopped client cannot mint new statements.
  [[nodiscard]] Result<Bytes> sign(BytesView msg) const;

  // Signs msgs[i] into element i. kRsa: one RSA signature per root over
  // each run of at most Keystore::kMaxBatchLeaves consecutive statements;
  // kHmacSim: sign() per statement. Revocation as for sign().
  [[nodiscard]] Result<std::vector<Bytes>> sign_batch(
      std::span<const Bytes> msgs) const;

  // Produces the point-to-point MAC tag μ_{principal,peer}(msg). Like
  // sign(), revoked principals get UNAVAILABLE — a stopped client
  // cannot authenticate new requests either.
  [[nodiscard]] Result<Bytes> mac(PrincipalId peer, BytesView msg) const;

  // Concatenated per-peer MAC tags (an "authenticator", PBFT-style):
  // peers.size() * kMacSize bytes, tag i authenticating msg toward
  // peers[i]. Receivers check only their own slice.
  [[nodiscard]] Result<Bytes> mac_authenticator(
      const std::vector<PrincipalId>& peers, BytesView msg) const;

  // A 128-bit secret of this principal for keying its own hash tables
  // (util/id_table.h), derived once from its private key at registration
  // and never sent. Zero for an unbound signer.
  HashKey hash_key() const;

 private:
  friend class Keystore;
  Signer(Keystore* ks, PrincipalId p) : keystore_(ks), principal_(p) {}

  Keystore* keystore_ = nullptr;
  PrincipalId principal_ = 0;
};

class Keystore {
 public:
  explicit Keystore(SignatureScheme scheme = SignatureScheme::kHmacSim,
                    std::uint64_t seed = 1, std::size_t rsa_bits = 1024);
  // Signers hold a Keystore*, so a copy would leave them bound to the
  // original.
  Keystore(const Keystore&) = delete;
  Keystore& operator=(const Keystore&) = delete;

  SignatureScheme scheme() const { return scheme_; }

  // Statements one kRsa root covers at most (see the header comment).
  static constexpr std::size_t kMaxBatchLeaves = 4;

  // Registers a principal (idempotent) and returns its signer handle.
  Signer register_principal(PrincipalId p);

  bool is_registered(PrincipalId p) const;

  // Public verification — usable by any node, any principal. Always
  // performs the underlying cryptographic check (counter: "verify" /
  // "sig_verify_calls"); a kRsa signature whose proof does not parse
  // counts as one failed check.
  [[nodiscard]] bool verify(PrincipalId signer, BytesView msg,
                            BytesView sig) const;

  // Memoized verification: consults the verify cache keyed on
  // (principal, one SHA-256 over principal, msg and sig) and only falls
  // back to the real cryptographic check on a miss. A kRsa signature
  // whose proof parses is keyed on its root message and RSA signature
  // instead, so the verdict serves every statement of its batch.
  // Semantically identical to verify() — both positive and negative
  // verdicts are cached, and a revocation purges the principal's
  // entries. With the cache off (capacity 0, the kHmacSim default) it
  // calls verify() without computing a key. Counters: "sig_cache_hit" /
  // "sig_cache_miss" (every call with the cache off is a miss).
  [[nodiscard]] bool verify_cached(PrincipalId signer, BytesView msg,
                                   BytesView sig) const;

  // --- Point-to-point MAC authentication (paper §3.3.2) ---
  //
  // Every pair of principals shares a symmetric session key derived
  // from the keystore seed: key(a,b) = HMAC(master, min(a,b)||max(a,b)),
  // with master = SHA-256("bftbc-p2p-master-v1:" || LE64 seed). Each
  // pair's key is derived, and prepared as an HmacKey, on first use.
  // Tags additionally bind the direction (sender||receiver||msg), so a
  // reply MAC can never be replayed as a request MAC on the same pair.
  // MACs authenticate only to the receiver — they are NOT transferable
  // proofs — so the protocol uses them strictly for point-to-point
  // replies/requests and keeps signatures for certificate statements.
  static constexpr std::size_t kMacSize = kDigestSize;

  // Checks the tag `sender` computed toward `receiver` over msg. Both
  // principals must be registered. Counter: "mac_verify". Revoked
  // senders still check (replay of old messages is allowed, same as
  // signatures; the stop event only blocks NEW tags via Signer::mac).
  [[nodiscard]] bool mac_check(PrincipalId sender, PrincipalId receiver,
                               BytesView msg, BytesView tag) const;

  // Bounds the verification cache; 0 disables memoization (every
  // verify_cached call then performs the real check). Starts at
  // VerifyCache::kDefaultCapacity for kRsa and at 0 for kHmacSim; any
  // scheme can turn it on here.
  void set_verify_cache_capacity(std::size_t entries);
  const VerifyCache& verify_cache() const { return verify_cache_; }

  // The "stop"/administrator action: principal can no longer create new
  // signatures. Existing signatures continue to verify (replay of old
  // messages is allowed by the model). Cached verdicts for the principal
  // are dropped so nothing keeps validating purely from memoization.
  void revoke(PrincipalId p);
  bool is_revoked(PrincipalId p) const;

  // Instrumentation: counts of sign/verify operations, for the message
  // and crypto-cost experiments.
  const Counters& counters() const { return counters_; }
  void reset_counters() { counters_.reset(); }

  // Bytes of a sign() signature: a digest for kHmacSim, a one-leaf
  // batched signature for kRsa.
  std::size_t signature_size() const;

 private:
  friend class Signer;
  struct PrincipalEntry;
  // Signs msgs[i] into out[i] (sign() passes one statement).
  Status sign_internal(PrincipalId p, std::span<const BytesView> msgs,
                       Bytes* out);
  // Signs one root over msgs (at most kMaxBatchLeaves of them).
  void sign_root(PrincipalId p, const PrincipalEntry& entry,
                 std::span<const BytesView> msgs, Bytes* out);
  // The RSA check of a root message, counted as one verify.
  bool verify_root(const PrincipalEntry& entry, BytesView root_msg,
                   BytesView rsa_sig) const;
  Result<Bytes> mac_internal(PrincipalId sender, PrincipalId receiver,
                             BytesView msg) const;
  // Symmetric session key for the unordered pair {a, b}, derived once.
  const HmacKey& pair_key(PrincipalId a, PrincipalId b) const;

  struct PrincipalEntry {
    std::optional<HmacKey> hmac;             // kHmacSim
    std::optional<RsaKeyPair> rsa;           // kRsa
    // Montgomery contexts for the RSA key, built once at registration
    // (setup-time) so the hot sign/verify paths skip the precompute.
    std::shared_ptr<const RsaContext> rsa_ctx;
    // The batch nonce PRF's key, derived from the private key (kRsa).
    std::optional<HmacKey> nonce_key;
    HashKey hash_key{};  // Signer::hash_key
    bool revoked = false;
  };

  SignatureScheme scheme_;
  std::size_t rsa_bits_;
  Rng rng_;
  // Master secret for pair-key derivation; a function of the seed only
  // (independent of rng_'s stream, so enabling MACs does not perturb
  // the deterministic key generation sequence).
  HmacKey p2p_master_;
  std::map<PrincipalId, PrincipalEntry> principals_;
  // Pair keys, keyed by min | max << 32, whose LE64 bytes are the
  // derivation input.
  mutable std::unordered_map<std::uint64_t, HmacKey> pair_keys_;
  mutable Counters counters_;
  mutable VerifyCache verify_cache_;
};

}  // namespace bftbc::crypto
