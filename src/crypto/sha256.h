// SHA-256 (FIPS 180-4), implemented from scratch.
//
// This is the collision-resistant hash `h` the paper assumes: clients send
// h(val) in PREPARE requests, replicas bind prepare certificates to the
// digest, and the optimized protocol breaks timestamp ties by comparing
// digests numerically.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace bftbc::crypto {

inline constexpr std::size_t kDigestSize = 32;

using Digest = std::array<std::uint8_t, kDigestSize>;

// Incremental hashing context.
class Sha256 {
 public:
  Sha256() { reset(); }

  void reset();
  void update(BytesView data);
  // Finalizes and returns the digest. The context must be reset() before
  // reuse.
  Digest finish();

 private:
  // Compresses `n` whole 64-byte blocks through the kernel this process
  // picked (sha256_kernel.h).
  void process_blocks(const std::uint8_t* blocks, std::size_t n);

  std::uint32_t h_[8];
  std::uint8_t buf_[64];
  std::size_t buf_len_;
  std::uint64_t total_len_;
};

// One-shot convenience.
Digest sha256(BytesView data);

// Digest helpers ------------------------------------------------------

inline BytesView digest_view(const Digest& d) {
  return BytesView(d.data(), d.size());
}

inline Bytes digest_bytes(const Digest& d) {
  return Bytes(d.begin(), d.end());
}

// Lexicographic (== numeric big-endian) comparison; the optimized
// protocol's deterministic tiebreak between two values prepared for the
// same timestamp (§6.1: "order ... by the numeric order on their hashes").
int compare_digests(const Digest& a, const Digest& b);

}  // namespace bftbc::crypto
