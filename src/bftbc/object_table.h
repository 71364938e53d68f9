// The replica's per-object table (DESIGN §13).
//
// One entry per object the replica has ever touched, in a util::IdTable,
// so an entry never moves and is never removed. An entry holds:
//  - the object's ObjectState while it is resident, or its encoded blob
//    once evicted (the stand-in for a real cold store: disk or a remote
//    KV), which ObjectState::decode turns back into the same state;
//  - the presigned WRITE-REPLY signatures for its timestamps, which
//    survive eviction;
//  - with a resident cap, its links in the recency list.
//
// Residency is exactly LRU: with max_resident set, touch() moves the
// object to the recent end, and a miss (a new or evicted object) then
// evicts from the cold end until at most max_resident states are left,
// never the object being touched. References from touch() stay valid
// until that object is evicted.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bftbc/replica_state.h"
#include "metrics/registry.h"
#include "util/id_table.h"
#include "util/stats.h"

namespace bftbc::core {

class ObjectTable {
 public:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  // A presigned WRITE-REPLY signature for (object, ts). One presigned in
  // the current replica flush holds its statement's batch slot until the
  // flush's signatures are in; then `sig` holds the bytes.
  struct WriteSig {
    Timestamp ts;
    Bytes sig;
    std::uint32_t slot = kNoSlot;
  };

  struct Entry {
    std::optional<ObjectState> state;  // resident
    Bytes cold;                        // the encoded state while evicted
    // Ascending by timestamp.
    std::vector<WriteSig> write_sigs;
    // Recency links (table slots), used only with a resident cap.
    std::uint32_t newer = kNoSlot;
    std::uint32_t older = kNoSlot;

    // The signature for ts, or null.
    WriteSig* find_write_sig(const Timestamp& ts);
    // The signature for ts, added empty if absent; `second` is true if
    // it was added.
    std::pair<WriteSig*, bool> add_write_sig(const Timestamp& ts);
    // Drops the signatures at or below ts; returns how many.
    std::size_t drop_write_sigs_through(const Timestamp& ts);
  };

  // `metrics` counts "objects_evicted" and "objects_reloaded".
  ObjectTable(std::size_t max_resident, const HashKey& key, Counters& metrics);

  // With a cap, `gauge` (may be null) reads the resident count after
  // every miss.
  void set_resident_gauge(metrics::Gauge* gauge) { resident_gauge_ = gauge; }

  // The object's entry, its state resident: created on first touch,
  // decoded back after an eviction.
  Entry& touch(ObjectId id);

  // Installs `state` as the object's resident state, replacing whatever
  // it held (state transfer), and touches it.
  void install(ObjectId id, ObjectState state);

  // The resident state, or null; never reloads or touches.
  const ObjectState* find_resident(ObjectId id) const;

  std::size_t resident() const { return resident_; }
  std::size_t evicted() const { return evicted_; }

  // Resident ids from the most to the least recently touched, with a cap
  // (tests).
  std::vector<ObjectId> recency() const;

  // The most index positions a lookup examines (tests).
  std::size_t max_probe_length() const { return table_.max_probe_length(); }

 private:
  bool capped() const { return max_resident_ != 0; }
  void unlink(std::uint32_t slot);
  void link_newest(std::uint32_t slot);
  // Moves the object to the recent end; on a miss, evicts to the cap.
  void note_touch(std::uint32_t slot, bool miss);
  void evict(std::uint32_t slot);

  std::size_t max_resident_;
  Counters& metrics_;
  metrics::Gauge* resident_gauge_ = nullptr;
  IdTable<Entry> table_;
  std::uint32_t newest_ = kNoSlot;
  std::uint32_t oldest_ = kNoSlot;
  std::size_t resident_ = 0;
  std::size_t evicted_ = 0;
};

}  // namespace bftbc::core
