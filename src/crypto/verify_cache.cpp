#include "crypto/verify_cache.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace bftbc::crypto {

VerifyCache::VerifyCache(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ == 0) return;
  slots_.reserve(capacity_);
  index_.assign(std::bit_ceil(2 * capacity_), 0);
  window_ = std::min(kProbeLimit, index_.size());
}

VerifyCache::Key VerifyCache::make_key(PrincipalId principal,
                                       BytesView statement,
                                       BytesView signature) {
  std::uint8_t prefix[12] = {};
  const std::uint64_t length = statement.size();
  for (int i = 0; i < 4; ++i)
    prefix[i] = static_cast<std::uint8_t>(principal >> (8 * i));
  for (int i = 0; i < 8; ++i)
    prefix[4 + i] = static_cast<std::uint8_t>(length >> (8 * i));
  Sha256 h;
  h.update(BytesView(prefix, sizeof prefix));
  h.update(statement);
  h.update(signature);
  return Key{principal, h.finish()};
}

std::size_t VerifyCache::home(const Digest& digest) const {
  std::uint64_t bits = 0;
  std::memcpy(&bits, digest.data(), sizeof bits);
  return static_cast<std::size_t>(bits) & (index_.size() - 1);
}

bool VerifyCache::holds(std::uint32_t entry, const Key& key) const {
  const Slot& slot = slots_[entry - 1];
  return slot.digest == key.digest && slot.principal == key.principal;
}

int VerifyCache::lookup(const Key& key) {
  if (capacity_ == 0) return -1;
  const std::size_t mask = index_.size() - 1;
  std::size_t pos = home(key.digest);
  for (std::size_t i = 0; i < window_; ++i, pos = (pos + 1) & mask) {
    const std::uint32_t entry = index_[pos];
    if (entry == 0) return -1;
    if (holds(entry, key)) {
      Slot& slot = slots_[entry - 1];
      slot.referenced = true;
      return slot.valid ? 1 : 0;
    }
  }
  return -1;
}

void VerifyCache::insert(const Key& key, bool valid) {
  if (capacity_ == 0) return;
  const std::size_t mask = index_.size() - 1;
  const std::size_t start = home(key.digest);
  std::size_t pos = start;
  std::size_t probes = 0;
  for (; probes < window_; ++probes, pos = (pos + 1) & mask) {
    const std::uint32_t entry = index_[pos];
    if (entry == 0) break;
    if (holds(entry, key)) {
      slots_[entry - 1].valid = valid;
      return;
    }
  }
  const Slot fresh{key.principal, key.digest, valid, false};
  if (probes == window_) {
    // Every position the key may occupy is taken: overwrite the first
    // entry there whose CLOCK bit is clear, or the home entry. The key
    // takes over that entry's index position, so nothing moves.
    std::size_t victim = start;
    for (std::size_t i = 0, p = start; i < window_; ++i, p = (p + 1) & mask) {
      if (!slots_[index_[p] - 1].referenced) {
        victim = p;
        break;
      }
    }
    slots_[index_[victim] - 1] = fresh;
    return;
  }
  std::size_t slot = slots_.size();
  if (slot < capacity_) {
    slots_.push_back(fresh);
  } else {
    slot = evict();
    slots_[slot] = fresh;
    // Unlinking the victim may have shifted entries of this key's run
    // back by one; the first empty position is at or before `pos`.
    pos = start;
    while (index_[pos] != 0) pos = (pos + 1) & mask;
  }
  index_[pos] = static_cast<std::uint32_t>(slot + 1);
}

std::size_t VerifyCache::position_of(std::size_t slot) const {
  const std::size_t mask = index_.size() - 1;
  std::size_t pos = home(slots_[slot].digest);
  while (index_[pos] != slot + 1) pos = (pos + 1) & mask;
  return pos;
}

void VerifyCache::unlink(std::size_t slot) {
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = position_of(slot);
  // Backward-shift deletion: pull each later entry of the run into the
  // hole when the hole lies between its home and its position, so no
  // probe stops early at the hole and no entry moves away from its home.
  for (std::size_t pos = (hole + 1) & mask; index_[pos] != 0;
       pos = (pos + 1) & mask) {
    const std::size_t displacement =
        (pos - home(slots_[index_[pos] - 1].digest)) & mask;
    if (displacement >= ((pos - hole) & mask)) {
      index_[hole] = index_[pos];
      hole = pos;
    }
  }
  index_[hole] = 0;
}

std::size_t VerifyCache::evict() {
  for (;;) {
    const std::size_t slot = hand_;
    if (++hand_ == slots_.size()) hand_ = 0;
    if (!slots_[slot].referenced) {
      unlink(slot);
      return slot;
    }
    slots_[slot].referenced = false;
  }
}

void VerifyCache::purge_principal(PrincipalId principal) {
  // Each of the principal's slots is refilled from the last slot, so the
  // array stays dense and later inserts keep appending.
  for (std::size_t slot = 0; slot < slots_.size();) {
    if (slots_[slot].principal != principal) {
      ++slot;
      continue;
    }
    unlink(slot);
    const std::size_t last = slots_.size() - 1;
    if (slot != last) {
      index_[position_of(last)] = static_cast<std::uint32_t>(slot + 1);
      slots_[slot] = slots_[last];
    }
    slots_.pop_back();
  }
}

void VerifyCache::clear() {
  slots_.clear();
  std::fill(index_.begin(), index_.end(), 0);
  hand_ = 0;
}

void VerifyCache::set_capacity(std::size_t capacity) {
  if (capacity == capacity_) return;
  VerifyCache next(capacity);
  // Re-insert in the order the hand would reach the entries, skipping
  // the ones it would reach first.
  const std::size_t n = slots_.size();
  for (std::size_t i = n - std::min(n, capacity); i < n; ++i) {
    const Slot& slot = slots_[(hand_ + i) % n];
    next.insert(Key{slot.principal, slot.digest}, slot.valid);
  }
  *this = std::move(next);
}

}  // namespace bftbc::crypto
