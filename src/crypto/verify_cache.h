// Bounded memo for public-key signature verification.
//
// Certificates are transferable proofs: the same 2f+1 signatures are
// re-checked by every replica that sees a PREPARE/WRITE, by every client
// that reads the certificate back in phase 1, and again on write-backs
// and retransmits. Each check is an RSA verification — the dominant cost
// of the protocol (§3.3.2). The result of verifying a fixed (principal,
// statement, signature) triple never changes, so it is safe to memoize.
//
// The cache key is (principal, digest) with
//   digest = SHA-256(LE32 principal || LE64 |statement| || statement ||
//                    signature).
// One hash keeps entries fixed-size, so a Byzantine node cannot blow up
// memory by shipping huge statements. The length prefix makes the split
// between statement and signature unambiguous, so two distinct triples
// share a key only if SHA-256 collides: a forged signature can never
// land on a cached valid verdict. Both positive and negative results are
// cached — a replayed garbage signature is rejected from cache just as
// cheaply as a valid one is accepted.
//
// Storage is one flat table, allocated at construction or in
// set_capacity and never per entry:
//  - an array of `capacity` fixed-size slots (principal, digest, verdict,
//    CLOCK bit), filled in insertion order;
//  - an open-addressed index of 32-bit slot numbers, a power of two at
//    least twice the capacity (so at most half full), probed linearly
//    from a home position taken from the digest's first eight bytes,
//    with backward-shift deletion.
// When the slots are full, a CLOCK hand picks the victim: a lookup sets
// the entry's bit, a new entry starts with it clear, and the hand clears
// set bits as it passes until it reaches a clear one.
//
// Every lookup and insert examines at most kProbeLimit index positions.
// A Byzantine sender chooses its statement bytes, so it can grind digests
// whose home positions share one neighbourhood; an insert whose window is
// full replaces an entry inside that window instead of probing further.
// Random keys stay well below the limit: simulated fills of the
// default-size index reached a longest displacement of 43 positions with
// every slot in use.
//
// Revocation hygiene: when a principal's key is revoked (the paper's
// "stop" event), all of its entries are purged so nothing keeps
// validating purely from cache; subsequent checks go back through the
// keystore, which decides what revocation means for old signatures.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/sha256.h"
#include "util/bytes.h"

namespace bftbc::crypto {

using PrincipalId = std::uint32_t;

class VerifyCache {
 public:
  static constexpr std::size_t kDefaultCapacity = 64 * 1024;
  // Index positions one lookup or insert may examine.
  static constexpr std::size_t kProbeLimit = 64;

  explicit VerifyCache(std::size_t capacity = kDefaultCapacity);

  struct Key {
    PrincipalId principal = 0;
    Digest digest{};  // see the header comment

    friend bool operator==(const Key& a, const Key& b) {
      return a.principal == b.principal && a.digest == b.digest;
    }
  };

  static Key make_key(PrincipalId principal, BytesView statement,
                      BytesView signature);

  // Returns the memoized verdict and sets the entry's CLOCK bit; -1 if
  // absent. (Not std::optional<bool> so a hot loop stays branchy-cheap;
  // callers compare against 0/1.)
  [[nodiscard]] int lookup(const Key& key);

  // Memoizes a verdict (re-inserting a key updates its verdict), evicting
  // the CLOCK hand's victim when every slot is in use. A capacity of zero
  // disables the cache entirely.
  void insert(const Key& key, bool valid);

  // Drops every entry for one principal (key revocation / "stop").
  void purge_principal(PrincipalId principal);

  void clear();

  // Shrinks/grows the bound, keeping the entries the CLOCK hand would
  // reach last; 0 disables and clears.
  void set_capacity(std::size_t capacity);

  std::size_t size() const { return slots_.size(); }
  std::size_t capacity() const { return capacity_; }

 private:
  struct Slot {
    PrincipalId principal;
    Digest digest;
    bool valid;
    bool referenced;  // CLOCK bit
  };

  std::size_t home(const Digest& digest) const;
  bool holds(std::uint32_t entry, const Key& key) const;
  // Index position whose entry is slot `slot`.
  std::size_t position_of(std::size_t slot) const;
  // Removes slot `slot` from the index.
  void unlink(std::size_t slot);
  // Advances the CLOCK hand to an entry whose bit is clear, unlinks it and
  // returns its slot.
  std::size_t evict();

  // Reserved to capacity_ at construction, so push_back never reallocates.
  std::vector<Slot> slots_;
  // Slot number + 1 per position; 0 marks an empty position.
  std::vector<std::uint32_t> index_;
  std::size_t capacity_ = 0;
  std::size_t window_ = 0;  // min(kProbeLimit, index_.size())
  std::size_t hand_ = 0;
};

}  // namespace bftbc::crypto
