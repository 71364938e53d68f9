// Arbitrary-precision unsigned integers for RSA.
//
// Little-endian vector of 32-bit limbs, always normalized (no high zero
// limbs; zero is an empty vector). Division is Knuth's Algorithm D.
// Modular exponentiation for odd moduli (every RSA modulus and prime)
// runs over a Montgomery domain held by a reusable `Montgomery` context,
// whose kernels work on 64-bit words, so per-key state can be cached.
// The legacy divmod-per-step ladder survives as `mod_exp_schoolbook` for
// even moduli and as the differential-fuzz reference.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/bytes.h"
#include "util/rng.h"

namespace bftbc::crypto {

class BigInt {
 public:
  BigInt() = default;
  explicit BigInt(std::uint64_t v);

  // Big-endian byte import/export (the natural wire format).
  static BigInt from_bytes(BytesView be);
  Bytes to_bytes() const;
  // Export padded/truncated to exactly n bytes big-endian.
  Bytes to_bytes_padded(std::size_t n) const;

  static BigInt from_hex(std::string_view hex);
  std::string to_hex() const;

  // Uniform random integer with exactly `bits` bits (top bit set).
  static BigInt random_with_bits(Rng& rng, std::size_t bits);
  // Uniform random integer in [0, bound).
  static BigInt random_below(Rng& rng, const BigInt& bound);

  bool is_zero() const { return limbs_.empty(); }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  bool is_one() const { return limbs_.size() == 1 && limbs_[0] == 1; }
  std::size_t bit_length() const;
  bool bit(std::size_t i) const;
  std::uint64_t to_u64() const;  // low 64 bits

  // Comparison: -1, 0, +1.
  static int compare(const BigInt& a, const BigInt& b);
  friend bool operator==(const BigInt& a, const BigInt& b) {
    return compare(a, b) == 0;
  }
  friend bool operator!=(const BigInt& a, const BigInt& b) {
    return compare(a, b) != 0;
  }
  friend bool operator<(const BigInt& a, const BigInt& b) {
    return compare(a, b) < 0;
  }
  friend bool operator<=(const BigInt& a, const BigInt& b) {
    return compare(a, b) <= 0;
  }
  friend bool operator>(const BigInt& a, const BigInt& b) {
    return compare(a, b) > 0;
  }
  friend bool operator>=(const BigInt& a, const BigInt& b) {
    return compare(a, b) >= 0;
  }

  friend BigInt operator+(const BigInt& a, const BigInt& b);
  // Requires a >= b (unsigned arithmetic).
  friend BigInt operator-(const BigInt& a, const BigInt& b);
  friend BigInt operator*(const BigInt& a, const BigInt& b);

  BigInt shifted_left(std::size_t bits) const;
  BigInt shifted_right(std::size_t bits) const;

  // quotient/remainder; divisor must be non-zero.
  struct DivResult;
  static DivResult divmod(const BigInt& a, const BigInt& b);
  friend BigInt operator/(const BigInt& a, const BigInt& b);
  friend BigInt operator%(const BigInt& a, const BigInt& b);

  // (base ^ exp) mod m ; m must be > 1. Dispatches to a Montgomery
  // ladder when m is odd, falling back to the schoolbook ladder for
  // even moduli.
  static BigInt mod_exp(const BigInt& base, const BigInt& exp, const BigInt& m);
  // Square-and-multiply with a full division per step. Kept public as
  // the reference implementation the nightly differential fuzz checks
  // Montgomery against; also the only path for even moduli.
  static BigInt mod_exp_schoolbook(const BigInt& base, const BigInt& exp,
                                   const BigInt& m);

  static BigInt gcd(BigInt a, BigInt b);
  // Multiplicative inverse of a mod m, if gcd(a, m) == 1; returns zero
  // BigInt otherwise.
  static BigInt mod_inverse(const BigInt& a, const BigInt& m);

 private:
  friend class Montgomery;

  void normalize();
  static BigInt from_limbs(std::vector<std::uint32_t> limbs);

  std::vector<std::uint32_t> limbs_;
};

// Reusable reduction context for a fixed odd modulus m > 1.
//
// The context stores m, -m^-1 mod 2^64 and R^2 mod m as little-endian
// 64-bit words (k = word count of m, R = 2^(64k)); construction costs
// one Knuth division. mod_exp converts the base into the domain and the
// result out of it once, and runs the exponent loop in place in one
// per-call workspace, so the kernels themselves never allocate. RSA
// callers cache one context per key component (n, p, q). The context
// is immutable after construction and holds no scratch.
//
// The modulus width alone picks the kernels: at k = 4 (RSA-512's CRT
// halves, 256-bit primality candidates) and k = 8 (RSA-512 moduli,
// RSA-1024's CRT halves) the multiply is compiled for that k and mod_exp
// squares with a dedicated squaring; every other k runs one generic
// loop, squaring by multiplying.
class Montgomery {
 public:
  explicit Montgomery(const BigInt& m);

  const BigInt& modulus() const { return m_; }

  // (base ^ exp) mod m. Exponents of at most 32 bits (RSA's e = 65537)
  // use plain square-and-multiply; longer ones a 4-bit fixed window,
  // whose 16-entry table only pays off once the exponent is long.
  BigInt mod_exp(const BigInt& base, const BigInt& exp) const;

  // (a * b * R^-1) mod m for a, b already in the Montgomery domain.
  // Exposed for the differential fuzz; protocol code uses mod_exp.
  BigInt mont_mul(const BigInt& a, const BigInt& b) const;
  BigInt to_mont(const BigInt& a) const;    // a*R mod m
  BigInt from_mont(const BigInt& a) const;  // a*R^-1 mod m

 private:
  // out = a*b*R^-1 mod m over k-word operands below m. t is k+2 words
  // of scratch for the generic loop; the 4- and 8-word kernels keep
  // their accumulator on the stack. out may alias a or b.
  void mul(std::uint64_t* out, const std::uint64_t* a, const std::uint64_t* b,
           std::uint64_t* t) const;
  // out = a*a*R^-1 mod m, as mul(out, a, a, t).
  void sqr(std::uint64_t* out, const std::uint64_t* a, std::uint64_t* t) const;
  // a (at most k words long) as k words, and k words back as a BigInt.
  void to_words(const BigInt& a, std::uint64_t* out) const;
  BigInt from_words(const std::uint64_t* w) const;

  BigInt m_;
  std::size_t k_ = 0;              // 64-bit word count of m_
  std::uint64_t n0_ = 0;           // -m^-1 mod 2^64
  std::vector<std::uint64_t> mw_;  // m_ as k_ words
  std::vector<std::uint64_t> rr_;  // R^2 mod m as k_ words
};

struct BigInt::DivResult {
  BigInt quotient;
  BigInt remainder;
};

inline BigInt operator/(const BigInt& a, const BigInt& b) {
  return BigInt::divmod(a, b).quotient;
}
inline BigInt operator%(const BigInt& a, const BigInt& b) {
  return BigInt::divmod(a, b).remainder;
}

}  // namespace bftbc::crypto
