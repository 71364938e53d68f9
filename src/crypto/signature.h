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
// verify_cached memoizes verification verdicts in a bounded flat table
// with CLOCK eviction (see verify_cache.h): certificates are transferable
// proofs whose 2f+1 signatures get re-checked at every hop, so the
// protocol routes all certificate validation through this path. Revoking
// a principal purges its cache entries, so post-stop checks always
// re-enter the keystore.
// Threading contract: registration (register_principal) and scheme setup
// are single-threaded setup-time operations. After setup, verify /
// verify_cached / sign are safe to call from multiple threads: the
// principal table is read-only, and the shared mutable state — the
// verification cache and the op counters — is guarded by verify_mu_
// (see BFTBC_GUARDED_BY annotations). The underlying cryptographic check
// runs outside the lock, so concurrent verifies of distinct statements
// do not serialize on the RSA/HMAC work.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "crypto/rsa.h"
#include "crypto/verify_cache.h"
#include "util/bytes.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace bftbc::crypto {

class VerifyPool;

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

  // Produces the point-to-point MAC tag μ_{principal,peer}(msg). Like
  // sign(), revoked principals get UNAVAILABLE — a stopped client
  // cannot authenticate new requests either.
  [[nodiscard]] Result<Bytes> mac(PrincipalId peer, BytesView msg) const;

  // Concatenated per-peer MAC tags (an "authenticator", PBFT-style):
  // peers.size() * kMacSize bytes, tag i authenticating msg toward
  // peers[i]. Receivers check only their own slice.
  [[nodiscard]] Result<Bytes> mac_authenticator(
      const std::vector<PrincipalId>& peers, BytesView msg) const;

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

  SignatureScheme scheme() const { return scheme_; }

  // Registers a principal (idempotent) and returns its signer handle.
  Signer register_principal(PrincipalId p);

  bool is_registered(PrincipalId p) const;

  // Public verification — usable by any node, any principal. Always
  // performs the underlying cryptographic check (counter: "verify" /
  // "sig_verify_calls").
  [[nodiscard]] bool verify(PrincipalId signer, BytesView msg,
                            BytesView sig) const;

  // Memoized verification: consults the verify cache keyed on
  // (principal, one SHA-256 over principal, msg and sig) and only falls
  // back to the real cryptographic check on a miss. Semantically
  // identical to verify() — both positive and negative verdicts are
  // cached, and a revocation purges the principal's entries. Counters:
  // "sig_cache_hit" / "sig_cache_miss".
  [[nodiscard]] bool verify_cached(PrincipalId signer, BytesView msg,
                                   BytesView sig) const;

  // One signature check inside a batch; `valid` is the output slot.
  struct VerifyItem {
    PrincipalId principal = 0;
    Bytes statement;
    Bytes sig;
    bool valid = false;
  };

  // Batched memoized verification: resolves every item's verdict with
  // one cache pass. Items are grouped by (principal, statement,
  // signature) so each distinct triple costs one lookup and at most one
  // real cryptographic check regardless of how often the batch repeats
  // it; duplicates and cache hits count as "sig_cache_hit", distinct
  // misses as "sig_cache_miss" (semantics match per-item verify_cached).
  // Returns the number of real cryptographic checks performed.
  [[nodiscard]] std::size_t verify_batch(std::vector<VerifyItem>& items) const;

  // Optional worker pool for verify_batch's cryptographic pass. The
  // pool is borrowed, not owned, and must outlive the keystore's last
  // verification. nullptr (the default) keeps the pass inline.
  void set_verify_pool(VerifyPool* pool) { verify_pool_ = pool; }

  // --- Point-to-point MAC authentication (paper §3.3.2) ---
  //
  // Every pair of principals shares a symmetric session key derived
  // from the keystore seed: key(a,b) = HMAC(master, min(a,b)||max(a,b)).
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
  // verify_cached call then performs the real check).
  void set_verify_cache_capacity(std::size_t entries);
  // Unsynchronized inspection handle — only valid while no other thread
  // is concurrently verifying (tests / post-run reporting).
  const VerifyCache& verify_cache() const BFTBC_NO_THREAD_SAFETY_ANALYSIS {
    return verify_cache_;
  }

  // The "stop"/administrator action: principal can no longer create new
  // signatures. Existing signatures continue to verify (replay of old
  // messages is allowed by the model). Cached verdicts for the principal
  // are dropped so nothing keeps validating purely from memoization.
  void revoke(PrincipalId p);
  bool is_revoked(PrincipalId p) const;

  // Instrumentation: counts of sign/verify operations, for the message
  // and crypto-cost experiments. Snapshot-style reads: take them after
  // concurrent verification has quiesced.
  const Counters& counters() const BFTBC_NO_THREAD_SAFETY_ANALYSIS {
    return counters_;
  }
  void reset_counters() {
    std::lock_guard<std::mutex> lock(verify_mu_);
    counters_.reset();
  }

  std::size_t signature_size() const;

 private:
  friend class Signer;
  Result<Bytes> sign_internal(PrincipalId p, BytesView msg);
  Result<Bytes> mac_internal(PrincipalId sender, PrincipalId receiver,
                             BytesView msg) const;
  // Symmetric session key for the unordered pair {a, b}.
  Bytes pair_key(PrincipalId a, PrincipalId b) const;

  struct PrincipalEntry {
    Bytes hmac_secret;                       // kHmacSim
    std::optional<RsaKeyPair> rsa;           // kRsa
    // Montgomery contexts for the RSA key, built once at registration
    // (setup-time) so the hot sign/verify paths skip the precompute.
    std::shared_ptr<const RsaContext> rsa_ctx;
    bool revoked = false;
  };

  SignatureScheme scheme_;
  std::size_t rsa_bits_;
  Rng rng_;
  // Master secret for pair-key derivation; a function of the seed only
  // (independent of rng_'s stream, so enabling MACs does not perturb
  // the deterministic key generation sequence).
  Bytes p2p_master_;
  std::map<PrincipalId, PrincipalEntry> principals_;
  VerifyPool* verify_pool_ = nullptr;
  // Guards the two members every thread mutates on the verify path. The
  // principal table above is intentionally NOT guarded: it is read-only
  // after setup (register_principal is setup-time; revoke only flips a
  // per-entry flag and purges the cache under the lock).
  mutable std::mutex verify_mu_;
  mutable Counters counters_ BFTBC_GUARDED_BY(verify_mu_);
  mutable VerifyCache verify_cache_ BFTBC_GUARDED_BY(verify_mu_);
};

}  // namespace bftbc::crypto
