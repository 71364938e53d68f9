#include "bftbc/object_table.h"

#include <algorithm>

namespace bftbc::core {

namespace {

auto ts_before(const ObjectTable::WriteSig& s, const Timestamp& ts) {
  return s.ts < ts;
}

}  // namespace

ObjectTable::WriteSig* ObjectTable::Entry::find_write_sig(
    const Timestamp& ts) {
  const auto it = std::lower_bound(write_sigs.begin(), write_sigs.end(), ts,
                                   ts_before);
  return it != write_sigs.end() && it->ts == ts ? &*it : nullptr;
}

std::pair<ObjectTable::WriteSig*, bool> ObjectTable::Entry::add_write_sig(
    const Timestamp& ts) {
  auto it = std::lower_bound(write_sigs.begin(), write_sigs.end(), ts,
                             ts_before);
  if (it != write_sigs.end() && it->ts == ts) return {&*it, false};
  it = write_sigs.insert(it, WriteSig{ts, {}, kNoSlot});
  return {&*it, true};
}

std::size_t ObjectTable::Entry::drop_write_sigs_through(const Timestamp& ts) {
  const auto end = std::upper_bound(
      write_sigs.begin(), write_sigs.end(), ts,
      [](const Timestamp& t, const WriteSig& s) { return t < s.ts; });
  const auto dropped = static_cast<std::size_t>(end - write_sigs.begin());
  write_sigs.erase(write_sigs.begin(), end);
  return dropped;
}

ObjectTable::ObjectTable(std::size_t max_resident, const HashKey& key,
                         Counters& metrics)
    : max_resident_(max_resident), metrics_(metrics), table_(key) {}

ObjectTable::Entry& ObjectTable::touch(ObjectId id) {
  const std::uint32_t slot = table_.insert(id).first;
  Entry& e = table_[slot];
  if (e.state.has_value()) {
    note_touch(slot, /*miss=*/false);
    return e;
  }
  if (!e.cold.empty()) {
    Reader r(e.cold);
    std::optional<ObjectState> state = ObjectState::decode(r);
    // The blob is one this table encoded, so a decode failure is a bug;
    // fall back to a fresh object rather than crash (the write
    // certificate chain re-establishes state via the protocol).
    if (state.has_value() && r.done()) {
      e.state = std::move(*state);
      metrics_.inc("objects_reloaded");
    }
    e.cold = Bytes{};
    --evicted_;
  }
  if (!e.state.has_value()) e.state.emplace(id);
  ++resident_;
  note_touch(slot, /*miss=*/true);
  return e;
}

void ObjectTable::install(ObjectId id, ObjectState state) {
  const std::uint32_t slot = table_.insert(id).first;
  Entry& e = table_[slot];
  if (!e.state.has_value()) ++resident_;
  if (!e.cold.empty()) {
    e.cold = Bytes{};
    --evicted_;
  }
  e.state = std::move(state);
  note_touch(slot, /*miss=*/true);
}

const ObjectState* ObjectTable::find_resident(ObjectId id) const {
  const std::uint32_t slot = table_.find(id);
  if (slot == IdTable<Entry>::kNone) return nullptr;
  const Entry& e = table_[slot];
  return e.state.has_value() ? &*e.state : nullptr;
}

std::vector<ObjectId> ObjectTable::recency() const {
  std::vector<ObjectId> out;
  for (std::uint32_t s = newest_; s != kNoSlot; s = table_[s].older) {
    out.push_back(table_.id(s));
  }
  return out;
}

void ObjectTable::unlink(std::uint32_t slot) {
  Entry& e = table_[slot];
  (e.newer == kNoSlot ? newest_ : table_[e.newer].older) = e.older;
  (e.older == kNoSlot ? oldest_ : table_[e.older].newer) = e.newer;
  e.newer = e.older = kNoSlot;
}

void ObjectTable::link_newest(std::uint32_t slot) {
  Entry& e = table_[slot];
  e.older = newest_;
  (newest_ == kNoSlot ? oldest_ : table_[newest_].newer) = slot;
  newest_ = slot;
}

void ObjectTable::note_touch(std::uint32_t slot, bool miss) {
  if (!capped()) return;
  if (newest_ != slot) {
    // Linked and not the newest means it has a newer neighbour.
    if (table_[slot].newer != kNoSlot) unlink(slot);
    link_newest(slot);
  }
  if (!miss) return;
  while (resident_ > max_resident_ && oldest_ != kNoSlot) {
    // Coldest first; never the object being touched.
    std::uint32_t victim = oldest_;
    if (victim == slot) {
      victim = table_[victim].newer;
      if (victim == kNoSlot) break;
    }
    evict(victim);
  }
  if (resident_gauge_ != nullptr) {
    resident_gauge_->set(static_cast<double>(resident_));
  }
}

void ObjectTable::evict(std::uint32_t slot) {
  Entry& e = table_[slot];
  Writer w;
  e.state->encode(w);
  e.cold = std::move(w).take();
  e.state.reset();
  --resident_;
  ++evicted_;
  metrics_.inc("objects_evicted");
  unlink(slot);
}

}  // namespace bftbc::core
