#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>

#include "crypto/sha256_kernel.h"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace bftbc::crypto {

namespace {

// 16-byte aligned: the SHA-extension kernel reads it four words at a time
// with aligned loads.
alignas(16) constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

#if defined(__x86_64__)

// CPUID leaf 1 ECX and leaf 7 (subleaf 0) EBX feature bits.
constexpr unsigned kLeaf1EcxSsse3 = 1u << 9;
constexpr unsigned kLeaf1EcxSse41 = 1u << 19;
constexpr unsigned kLeaf7EbxSha = 1u << 29;

bool cpu_has_sha_ni() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  constexpr unsigned kLeaf1 = kLeaf1EcxSsse3 | kLeaf1EcxSse41;
  if ((ecx & kLeaf1) != kLeaf1) return false;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ebx & kLeaf7EbxSha) != 0;
}

// SHA-256 with the x86 SHA extensions. sha256rnds2 runs two rounds and
// wants the state split as ABEF and CDGH (naming lanes high to low), so the
// state is rearranged once on entry and once on exit and stays in those two
// registers across all `n` blocks. Each of the 16 steps runs four rounds on
// W[4i..4i+3] + K[4i..4i+3] while msg1/msg2 extend the schedule; w[i % 4]
// holds the four schedule words of step i.
__attribute__((target("sha,ssse3,sse4.1"))) void compress_sha_ni(
    std::uint32_t state[8], const std::uint8_t* blocks, std::size_t n) {
  // Byte-swaps each 32-bit lane: message words are big-endian.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  const __m128i hgfe =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; n > 0; --n, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    const auto* in = reinterpret_cast<const __m128i*>(blocks);
    __m128i w[4] = {_mm_shuffle_epi8(_mm_loadu_si128(in), bswap),
                    _mm_shuffle_epi8(_mm_loadu_si128(in + 1), bswap),
                    _mm_shuffle_epi8(_mm_loadu_si128(in + 2), bswap),
                    _mm_shuffle_epi8(_mm_loadu_si128(in + 3), bswap)};
#pragma GCC unroll 16
    for (std::size_t i = 0; i < 16; ++i) {
      const __m128i cur = w[i % 4];
      const __m128i wk = _mm_add_epi32(
          cur, _mm_load_si128(reinterpret_cast<const __m128i*>(kK + 4 * i)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      if (i >= 3 && i < 15) {
        // W[4i+4..4i+7] = msg2(msg1 part + W[4i-3..4i], W[4i..4i+3]).
        __m128i& next = w[(i + 1) % 4];
        next = _mm_sha256msg2_epu32(
            _mm_add_epi32(next, _mm_alignr_epi8(cur, w[(i + 3) % 4], 4)), cur);
      }
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
      if (i >= 1 && i < 13) {
        // First half of W[4i+12..4i+15], from W[4i-4..4i].
        __m128i& prev = w[(i + 3) % 4];
        prev = _mm_sha256msg1_epu32(prev, cur);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#endif  // __x86_64__

struct Kernel {
  sha256_kernel::CompressFn compress;
  const char* name;
};

// Picked once per process, from what the CPU reports.
const Kernel& chosen_kernel() {
  static const Kernel kernel = [] {
    if (const sha256_kernel::CompressFn fast = sha256_kernel::sha_ni()) {
      return Kernel{fast, "sha-ni"};
    }
    return Kernel{sha256_kernel::compress_portable, "portable"};
  }();
  return kernel;
}

}  // namespace

namespace sha256_kernel {

void compress_portable(std::uint32_t state[8], const std::uint8_t* blocks,
                       std::size_t n) {
  for (; n > 0; --n, blocks += 64) {
    const std::uint8_t* block = blocks;
    std::uint32_t w[64];
    for (int t = 0; t < 16; ++t) {
      w[t] = static_cast<std::uint32_t>(block[4 * t]) << 24 |
             static_cast<std::uint32_t>(block[4 * t + 1]) << 16 |
             static_cast<std::uint32_t>(block[4 * t + 2]) << 8 |
             static_cast<std::uint32_t>(block[4 * t + 3]);
    }
    for (int t = 16; t < 64; ++t) {
      const std::uint32_t s0 =
          rotr(w[t - 15], 7) ^ rotr(w[t - 15], 18) ^ (w[t - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[t - 2], 17) ^ rotr(w[t - 2], 19) ^ (w[t - 2] >> 10);
      w[t] = w[t - 16] + s0 + w[t - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int t = 0; t < 64; ++t) {
      const std::uint32_t S1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + S1 + ch + kK[t] + w[t];
      const std::uint32_t S0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = S0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

CompressFn sha_ni() {
#if defined(__x86_64__)
  return cpu_has_sha_ni() ? compress_sha_ni : nullptr;
#else
  return nullptr;
#endif
}

const char* active_name() { return chosen_kernel().name; }

}  // namespace sha256_kernel

void Sha256::reset() {
  h_[0] = 0x6a09e667;
  h_[1] = 0xbb67ae85;
  h_[2] = 0x3c6ef372;
  h_[3] = 0xa54ff53a;
  h_[4] = 0x510e527f;
  h_[5] = 0x9b05688c;
  h_[6] = 0x1f83d9ab;
  h_[7] = 0x5be0cd19;
  buf_len_ = 0;
  total_len_ = 0;
}

void Sha256::update(BytesView data) {
  total_len_ += data.size();
  const std::uint8_t* p = data.data();
  std::size_t left = data.size();
  if (buf_len_ > 0 && left > 0) {
    const std::size_t take = std::min<std::size_t>(64 - buf_len_, left);
    std::memcpy(buf_ + buf_len_, p, take);
    buf_len_ += take;
    p += take;
    left -= take;
    if (buf_len_ < 64) return;
    process_blocks(buf_, 1);
    buf_len_ = 0;
  }
  if (left >= 64) {
    process_blocks(p, left / 64);
    p += left - left % 64;
    left %= 64;
  }
  if (left > 0) {
    std::memcpy(buf_, p, left);
    buf_len_ = left;
  }
}

Digest Sha256::finish() {
  // Append 0x80, pad with zeros to 56 mod 64, append the bit length.
  const std::uint64_t bit_len = total_len_ * 8;
  buf_[buf_len_++] = 0x80;
  if (buf_len_ > 56) {
    std::memset(buf_ + buf_len_, 0, 64 - buf_len_);
    process_blocks(buf_, 1);
    buf_len_ = 0;
  }
  std::memset(buf_ + buf_len_, 0, 56 - buf_len_);
  for (int i = 0; i < 8; ++i) {
    buf_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  process_blocks(buf_, 1);

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i + 0] = static_cast<std::uint8_t>(h_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(h_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(h_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(h_[i]);
  }
  return out;
}

void Sha256::process_blocks(const std::uint8_t* blocks, std::size_t n) {
  chosen_kernel().compress(h_, blocks, n);
}

Digest sha256(BytesView data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finish();
}

int compare_digests(const Digest& a, const Digest& b) {
  return std::memcmp(a.data(), b.data(), kDigestSize);
}

}  // namespace bftbc::crypto
