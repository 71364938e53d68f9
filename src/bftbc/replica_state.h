// Per-object replica state and the Plist rules (paper §3.2, Figure 2).
//
// Factored out of the message-handling Replica so the state-machine rules
// — the part all of Lemma 1 rests on — are directly unit-testable:
//   - a replica never admits two different prepares for one client
//   - entries are garbage-collected only by write certificates
//   - write_ts only advances
//
// The same struct serves base, optimized and strong modes; optimized adds
// the second prepare list (optlist, §6.1).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "crypto/sha256.h"
#include "quorum/certificate.h"

namespace bftbc::core {

using quorum::ClientId;
using quorum::ObjectId;
using quorum::PrepareCertificate;
using quorum::Timestamp;
using quorum::WriteCertificate;

struct PlistEntry {
  Timestamp t;
  crypto::Digest h{};

  friend bool operator==(const PlistEntry& a, const PlistEntry& b) {
    return a.t == b.t && a.h == b.h;
  }
};

// One prepare list (Plist or optlist): at most one entry per client, in
// one vector sorted by client id, the order its encoding lists them in.
// Read like the std::map it replaced: size, empty, count, at, find, and
// range-for over (client, entry) pairs. Only ObjectState changes it.
class PrepareList {
 public:
  using value_type = std::pair<ClientId, PlistEntry>;
  using const_iterator = std::vector<value_type>::const_iterator;

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }

  const_iterator find(ClientId c) const {
    const auto it = lower_bound(c);
    return it != end() && it->first == c ? it : end();
  }
  std::size_t count(ClientId c) const { return find(c) != end() ? 1 : 0; }
  // Throws std::out_of_range when c has no entry, as std::map::at does.
  const PlistEntry& at(ClientId c) const;

 private:
  friend class ObjectState;

  const_iterator lower_bound(ClientId c) const;
  // Adds c's entry unless c already has one; true if added.
  bool emplace(ClientId c, const PlistEntry& entry);

  std::vector<value_type> entries_;
};

class ObjectState {
 public:
  explicit ObjectState(ObjectId object)
      : object_(object), pcert_(PrepareCertificate::genesis(object)) {}

  ObjectId object() const { return object_; }

  const Bytes& data() const { return data_; }
  const PrepareCertificate& pcert() const { return pcert_; }
  const Timestamp& write_ts() const { return write_ts_; }
  const PrepareList& plist() const { return plist_; }
  const PrepareList& optlist() const { return optlist_; }

  // Figure 2, phase 2, step 2: absorb a write certificate — bump
  // write_ts and garbage-collect both prepare lists. Returns the number
  // of list entries reclaimed (the replica's "gc_reclaimed" counter).
  std::size_t absorb_write_certificate(const Timestamp& wcert_ts);

  // Figure 2, phase 2, steps 3–4 for the NORMAL prepare list.
  // Returns false if the request must be discarded (conflicting entry for
  // this client); on true the entry was added if admissible (t > write_ts
  // and not already present) and the replica should send PREPARE-REPLY.
  [[nodiscard]] bool try_prepare(ClientId c, const Timestamp& t,
                                 const crypto::Digest& h);

  // Optimized protocol (§6.2 phase 1): attempt the prepare on the
  // client's behalf for the predicted timestamp succ(pcert.ts, c).
  // Fails (returns nullopt → caller sends a plain phase-1 reply) when the
  // client already has an entry in either list with a different (t, h).
  [[nodiscard]] std::optional<Timestamp> try_opt_prepare(
      ClientId c, const crypto::Digest& h);

  // Figure 2, phase 3, step 2 — plus the optimized tiebreak (§6.2
  // phase 3): equal timestamps resolve toward the larger hash.
  // Returns true if the state was overwritten.
  [[nodiscard]] bool apply_write(const Bytes& value,
                                 const PrepareCertificate& cert,
                                 bool optimized_tiebreak);

  // True if c currently occupies a slot in either prepare list.
  bool has_entry(ClientId c) const {
    return plist_.count(c) != 0 || optlist_.count(c) != 0;
  }

  // Approximate in-memory footprint, for the state-size experiment (E5).
  std::size_t state_bytes() const;

  // Releases slack capacity held by the value buffer (a prior larger
  // write leaves its allocation behind). Protocol-invisible.
  void compact();

  // Full-fidelity serialization for cold-object eviction: every field
  // the protocol can later consult — value, pcert, BOTH prepare lists,
  // write_ts — round-trips, so an evicted-and-reloaded object is
  // indistinguishable from a resident one (Lemma 1 needs the lists to
  // survive: a lurking prepare must not vanish with an eviction).
  void encode(Writer& w) const;
  static std::optional<ObjectState> decode(Reader& r);

  // Crash recovery (state transfer): rebuild one object's state from a
  // quorum of peer snapshots whose prepare certificates the CALLER has
  // already validated (cert verifies, object matches, hash covers the
  // value). The merge is Byzantine-tolerant by one-sidedness:
  //   - value + pcert: highest validated certificate wins — a faulty
  //     peer cannot fabricate a cert, only withhold a recent one, and
  //     withholding loses to any honest peer's higher cert.
  //   - prepare lists: UNION of all snapshots, first claim per client
  //     in `peers` order (pass snapshots in replica-index order for
  //     determinism). Lemma 1 only guarantees a certified prepare
  //     appears in ≥1 of any 2f+1 snapshots, so any threshold above 1
  //     forgets real prepares and breaks the lurking-write bound;
  //     fabricated entries merely make this replica refuse
  //     conservatively, which is safe.
  //   - write_ts: the (f+1)-th largest claim — at least one correct
  //     peer vouches for it, so the GC it triggers cannot erase a
  //     prepare that is still below the true completed-write frontier.
  static ObjectState recover(ObjectId object,
                             const std::vector<ObjectState>& peers,
                             std::uint32_t f);

 private:
  // Reads one list of an encoded state into `list` (empty on entry).
  static bool decode_list(Reader& r, PrepareList& list);

  // Shared step-3/4 logic for one list.
  enum class ListOutcome { kConflict, kAdmitted, kAlreadyPresent, kStale };
  ListOutcome admit(PrepareList& list, ClientId c, const Timestamp& t,
                    const crypto::Digest& h);

  ObjectId object_;
  Bytes data_;
  PrepareCertificate pcert_;
  PrepareList plist_;
  PrepareList optlist_;
  Timestamp write_ts_;
};

}  // namespace bftbc::core
