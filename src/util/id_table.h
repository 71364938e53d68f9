// IdTable<T>: one value per 64-bit id, in a flat, append-only table.
//
// Storage is two arrays:
//  - slots, numbered in insertion order and never moved or removed: slot
//    s lives in chunk k, and chunk k (k >= 1) holds as many slots as all
//    earlier chunks together, so the capacity doubles with each chunk and
//    a reference to a value stays valid for the table's lifetime;
//  - an open-addressed index of 32-bit slot numbers (slot + 1, 0 =
//    empty), a power of two at least twice the size (at most half full),
//    probed linearly from a home position. It doubles and is rebuilt
//    when an insert would pass half full.
// Nothing is ever erased, so the index needs no tombstones and no
// backward shift.
//
// Ids are hashed with SipHash-2-4 under a 128-bit key. Who picks the ids
// (a reader names any object it likes) cannot then pick them to share a
// home position unless it knows the key, so a lookup probes O(1)
// positions in expectation and O(log n) with high probability, whatever
// the ids. Owners key the table with a secret of their own principal
// (crypto::Signer::hash_key).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace bftbc {

using HashKey = std::array<std::uint64_t, 2>;

// SipHash-2-4 (Aumasson and Bernstein) of one little-endian 64-bit word.
constexpr std::uint64_t siphash24(const HashKey& key, std::uint64_t word) {
  std::uint64_t v0 = key[0] ^ 0x736f6d6570736575ULL;
  std::uint64_t v1 = key[1] ^ 0x646f72616e646f6dULL;
  std::uint64_t v2 = key[0] ^ 0x6c7967656e657261ULL;
  std::uint64_t v3 = key[1] ^ 0x7465646279746573ULL;
  auto round = [&] {
    v0 += v1;
    v1 = std::rotl(v1, 13) ^ v0;
    v0 = std::rotl(v0, 32);
    v2 += v3;
    v3 = std::rotl(v3, 16) ^ v2;
    v0 += v3;
    v3 = std::rotl(v3, 21) ^ v0;
    v2 += v1;
    v1 = std::rotl(v1, 17) ^ v2;
    v2 = std::rotl(v2, 32);
  };
  auto compress = [&](std::uint64_t m) {
    v3 ^= m;
    round();
    round();
    v0 ^= m;
  };
  compress(word);
  compress(std::uint64_t{8} << 56);  // the length byte; no tail bytes
  v2 ^= 0xff;
  for (int i = 0; i < 4; ++i) round();
  return v0 ^ v1 ^ v2 ^ v3;
}

template <typename T>
class IdTable {
 public:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  explicit IdTable(const HashKey& key = {}) : key_(key) {}
  ~IdTable() {
    for (std::uint32_t s = 0; s < size_; ++s) at(s).~Slot();
    for (std::size_t k = 0; k < chunks_.size(); ++k) {
      std::allocator<Slot>().deallocate(chunks_[k], chunk_slots(k));
    }
  }
  IdTable(const IdTable&) = delete;
  IdTable& operator=(const IdTable&) = delete;

  std::size_t size() const { return size_; }

  // The slot holding id's value, or kNone.
  std::uint32_t find(std::uint64_t id) const {
    if (index_.empty()) return kNone;
    const std::size_t mask = index_.size() - 1;
    for (std::size_t pos = home(id);; pos = (pos + 1) & mask) {
      const std::uint32_t entry = index_[pos];
      if (entry == 0) return kNone;
      if (at(entry - 1).id == id) return entry - 1;
    }
  }

  // The slot holding id's value, appending a default-constructed one if
  // there is none; `second` is true if it was appended.
  std::pair<std::uint32_t, bool> insert(std::uint64_t id) {
    if (2 * (size_ + 1) > index_.size()) grow_index();
    const std::size_t mask = index_.size() - 1;
    std::size_t pos = home(id);
    for (; index_[pos] != 0; pos = (pos + 1) & mask) {
      if (at(index_[pos] - 1).id == id) return {index_[pos] - 1, false};
    }
    const std::uint32_t slot = size_;
    if (chunks_.size() == chunk_of(slot)) {
      chunks_.push_back(
          std::allocator<Slot>().allocate(chunk_slots(chunks_.size())));
    }
    new (&at(slot)) Slot{id, T{}};
    ++size_;
    index_[pos] = slot + 1;
    return {slot, true};
  }

  T& operator[](std::uint32_t slot) { return at(slot).value; }
  const T& operator[](std::uint32_t slot) const { return at(slot).value; }
  std::uint64_t id(std::uint32_t slot) const { return at(slot).id; }

  // The most index positions any present id's lookup examines.
  std::size_t max_probe_length() const {
    const std::size_t mask = index_.size() - 1;
    std::size_t longest = 0;
    for (std::size_t pos = 0; pos < index_.size(); ++pos) {
      if (index_[pos] == 0) continue;
      const std::size_t home_pos = home(at(index_[pos] - 1).id);
      longest = std::max(longest, ((pos - home_pos) & mask) + 1);
    }
    return longest;
  }

 private:
  struct Slot {
    std::uint64_t id;
    T value;
  };
  static constexpr std::uint32_t kFirstChunk = 16;

  static std::size_t chunk_of(std::uint32_t slot) {
    return slot < kFirstChunk ? 0 : std::bit_width(slot) - 4;
  }
  static std::size_t chunk_slots(std::size_t k) {
    return k == 0 ? kFirstChunk : std::size_t{8} << k;
  }
  Slot* slot_ptr(std::uint32_t slot) const {
    if (slot < kFirstChunk) return chunks_[0] + slot;
    const int width = std::bit_width(slot);
    return chunks_[width - 4] + (slot - (std::uint32_t{1} << (width - 1)));
  }
  Slot& at(std::uint32_t slot) { return *slot_ptr(slot); }
  const Slot& at(std::uint32_t slot) const { return *slot_ptr(slot); }

  std::size_t home(std::uint64_t id) const {
    return static_cast<std::size_t>(siphash24(key_, id)) & (index_.size() - 1);
  }

  void grow_index() {
    index_.assign(index_.empty() ? 2 * kFirstChunk : 2 * index_.size(), 0);
    const std::size_t mask = index_.size() - 1;
    for (std::uint32_t s = 0; s < size_; ++s) {
      std::size_t pos = home(at(s).id);
      while (index_[pos] != 0) pos = (pos + 1) & mask;
      index_[pos] = s + 1;
    }
  }

  HashKey key_;
  std::vector<Slot*> chunks_;
  std::vector<std::uint32_t> index_;
  std::uint32_t size_ = 0;
};

}  // namespace bftbc
