// Core-speed probe: how fast is this vCPU running right now?
//
// On a shared host the core this benchmark runs on slows by up to 1.8x for
// seconds or minutes at a time (other tenants on the same physical core),
// and every part of the protocol stack slows with it. The probe times a
// fixed compute kernel every kPeriod seconds from the benchmark's own
// thread. Its time divided by kRefUs is the slowdown at that moment, which
// the end-to-end figures divide out (see README.md).
//
// The kernel is a SHA-256 compression loop, because hashing (HMAC-sim
// signatures, digests of every statement and value) is what this stack
// does most. It is this file's own code, not crypto::sha256, so a change
// to the crypto library can never move the yardstick it is measured by.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "span_trace.h"

namespace livebench {

class SpeedProbe {
 public:
  // Probe time at the reference speed: an uncontended 2 GHz Xeon vCPU.
  static constexpr double kRefUs = 350.0;
  static constexpr double kPeriod = 0.1;  // seconds between samples

  struct Sample {
    double at = 0;  // wall seconds
    double us = 0;  // kernel time
  };

  bool due() const {
    return samples_.empty() ||
           static_cast<double>(mono_ns()) * 1e-9 - samples_.back().at >= kPeriod;
  }
  void maybe_sample() {
    if (due()) sample();
  }

  void sample() {
    const std::uint64_t t0 = mono_ns();
    run_kernel();
    const std::uint64_t t1 = mono_ns();
    samples_.push_back({static_cast<double>(t1) * 1e-9,
                        static_cast<double>(t1 - t0) / 1e3});
  }

  // Number of samples taken so far; operations in flight across a sample
  // were paused by it.
  std::size_t epoch() const { return samples_.size(); }

  // Median slowdown (probe time / kRefUs) of the samples taken in
  // [from, to]; the nearest sample when none falls inside.
  double slowdown(double from, double to) const {
    std::vector<double> in;
    for (const Sample& s : samples_) {
      if (s.at >= from && s.at <= to) in.push_back(s.us);
    }
    if (in.empty()) {
      if (samples_.empty()) return 1.0;
      const auto nearest = std::min_element(
          samples_.begin(), samples_.end(), [from](const Sample& a, const Sample& b) {
            return std::abs(a.at - from) < std::abs(b.at - from);
          });
      return nearest->us / kRefUs;
    }
    std::nth_element(in.begin(), in.begin() + in.size() / 2, in.end());
    return in[in.size() / 2] / kRefUs;
  }

 private:
  static constexpr std::array<std::uint32_t, 64> kK = {
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

  static std::uint32_t rotr(std::uint32_t x, int n) {
    return (x >> n) | (x << (32 - n));
  }

  // One SHA-256 compression of `block` into `h`.
  static void compress(std::array<std::uint32_t, 8>& h,
                       const std::array<std::uint32_t, 16>& block) {
    std::array<std::uint32_t, 64> w{};
    std::copy(block.begin(), block.end(), w.begin());
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::array<std::uint32_t, 8> v = h;
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(v[4], 6) ^ rotr(v[4], 11) ^ rotr(v[4], 25);
      const std::uint32_t ch = (v[4] & v[5]) ^ (~v[4] & v[6]);
      const std::uint32_t t1 = v[7] + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(v[0], 2) ^ rotr(v[0], 13) ^ rotr(v[0], 22);
      const std::uint32_t maj = (v[0] & v[1]) ^ (v[0] & v[2]) ^ (v[1] & v[2]);
      v = {t1 + s0 + maj, v[0], v[1], v[2], v[3] + t1, v[4], v[5], v[6]};
    }
    for (int i = 0; i < 8; ++i) h[i] += v[i];
  }

  // Hashes 64 KiB (1,024 blocks); the result feeds the next run so the
  // work cannot be optimized away.
  void run_kernel() {
    std::array<std::uint32_t, 16> block{};
    for (int b = 0; b < 1024; ++b) {
      block[b & 15] ^= static_cast<std::uint32_t>(b);
      compress(state_, block);
    }
  }

  std::array<std::uint32_t, 8> state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                         0xa54ff53a, 0x510e527f, 0x9b05688c,
                                         0x1f83d9ab, 0x5be0cd19};
  std::vector<Sample> samples_;
};

}  // namespace livebench
