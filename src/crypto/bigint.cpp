#include "crypto/bigint.h"

#include <algorithm>
#include <cassert>

#include "util/hex.h"

namespace bftbc::crypto {

namespace {
using u32 = std::uint32_t;
using u64 = std::uint64_t;
// GCC and Clang both provide a 128-bit unsigned type; __extension__
// keeps -Wpedantic quiet about it.
__extension__ typedef unsigned __int128 u128;

// Exponents up to this many bits use square-and-multiply: a 4-bit
// window's table costs 14 multiplies, while e = 65537 needs only 17 in
// total.
constexpr std::size_t kPlainExpBits = 32;
}  // namespace

BigInt::BigInt(u64 v) {
  if (v != 0) limbs_.push_back(static_cast<u32>(v));
  if (v >> 32) limbs_.push_back(static_cast<u32>(v >> 32));
}

void BigInt::normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigInt BigInt::from_limbs(std::vector<u32> limbs) {
  BigInt r;
  r.limbs_ = std::move(limbs);
  r.normalize();
  return r;
}

BigInt BigInt::from_bytes(BytesView be) {
  BigInt r;
  r.limbs_.assign((be.size() + 3) / 4, 0);
  for (std::size_t i = 0; i < be.size(); ++i) {
    // byte i counted from the end is byte (be.size()-1-i) of the buffer
    const std::size_t pos = be.size() - 1 - i;
    r.limbs_[i / 4] |= static_cast<u32>(be[pos]) << (8 * (i % 4));
  }
  r.normalize();
  return r;
}

Bytes BigInt::to_bytes() const {
  if (is_zero()) return {};
  const std::size_t bytes = (bit_length() + 7) / 8;
  return to_bytes_padded(bytes);
}

Bytes BigInt::to_bytes_padded(std::size_t n) const {
  Bytes out(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t limb = i / 4;
    if (limb >= limbs_.size()) break;
    out[n - 1 - i] = static_cast<std::uint8_t>(limbs_[limb] >> (8 * (i % 4)));
  }
  return out;
}

BigInt BigInt::from_hex(std::string_view hex) {
  std::string padded(hex);
  if (padded.size() % 2 != 0) padded.insert(padded.begin(), '0');
  auto bytes = bftbc::from_hex(padded);
  assert(bytes.has_value() && "invalid hex in BigInt::from_hex");
  return from_bytes(*bytes);
}

std::string BigInt::to_hex() const {
  if (is_zero()) return "0";
  std::string h = bftbc::to_hex(to_bytes());
  // strip leading zero nibble
  std::size_t i = 0;
  while (i + 1 < h.size() && h[i] == '0') ++i;
  return h.substr(i);
}

BigInt BigInt::random_with_bits(Rng& rng, std::size_t bits) {
  assert(bits > 0);
  const std::size_t nlimbs = (bits + 31) / 32;
  std::vector<u32> limbs(nlimbs);
  for (auto& l : limbs) l = rng.next_u32();
  const std::size_t top_bit = (bits - 1) % 32;
  // Force exact bit length and clear anything above it.
  limbs.back() &= (top_bit == 31) ? ~u32{0} : ((u32{1} << (top_bit + 1)) - 1);
  limbs.back() |= u32{1} << top_bit;
  return from_limbs(std::move(limbs));
}

BigInt BigInt::random_below(Rng& rng, const BigInt& bound) {
  assert(!bound.is_zero());
  const std::size_t bits = bound.bit_length();
  // Rejection sampling; each attempt succeeds with probability > 1/2.
  for (;;) {
    BigInt candidate;
    const std::size_t nlimbs = (bits + 31) / 32;
    std::vector<u32> limbs(nlimbs);
    for (auto& l : limbs) l = rng.next_u32();
    const std::size_t top_bit = (bits - 1) % 32;
    limbs.back() &= (top_bit == 31) ? ~u32{0} : ((u32{1} << (top_bit + 1)) - 1);
    candidate = from_limbs(std::move(limbs));
    if (candidate < bound) return candidate;
  }
}

std::size_t BigInt::bit_length() const {
  if (limbs_.empty()) return 0;
  u32 top = limbs_.back();
  std::size_t bits = (limbs_.size() - 1) * 32;
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigInt::bit(std::size_t i) const {
  const std::size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1;
}

u64 BigInt::to_u64() const {
  u64 v = 0;
  if (!limbs_.empty()) v = limbs_[0];
  if (limbs_.size() > 1) v |= static_cast<u64>(limbs_[1]) << 32;
  return v;
}

int BigInt::compare(const BigInt& a, const BigInt& b) {
  if (a.limbs_.size() != b.limbs_.size())
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  for (std::size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
  }
  return 0;
}

BigInt operator+(const BigInt& a, const BigInt& b) {
  const auto& x = a.limbs_;
  const auto& y = b.limbs_;
  std::vector<u32> out(std::max(x.size(), y.size()) + 1, 0);
  u64 carry = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    u64 sum = carry;
    if (i < x.size()) sum += x[i];
    if (i < y.size()) sum += y[i];
    out[i] = static_cast<u32>(sum);
    carry = sum >> 32;
  }
  return BigInt::from_limbs(std::move(out));
}

BigInt operator-(const BigInt& a, const BigInt& b) {
  assert(a >= b && "BigInt subtraction underflow");
  std::vector<u32> out(a.limbs_.size(), 0);
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    std::int64_t diff = static_cast<std::int64_t>(a.limbs_[i]) - borrow -
                        (i < b.limbs_.size() ? b.limbs_[i] : 0);
    if (diff < 0) {
      diff += (std::int64_t{1} << 32);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out[i] = static_cast<u32>(diff);
  }
  return BigInt::from_limbs(std::move(out));
}

BigInt operator*(const BigInt& a, const BigInt& b) {
  if (a.is_zero() || b.is_zero()) return BigInt();
  std::vector<u32> out(a.limbs_.size() + b.limbs_.size(), 0);
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    u64 carry = 0;
    const u64 ai = a.limbs_[i];
    for (std::size_t j = 0; j < b.limbs_.size(); ++j) {
      u64 cur = out[i + j] + ai * b.limbs_[j] + carry;
      out[i + j] = static_cast<u32>(cur);
      carry = cur >> 32;
    }
    out[i + b.limbs_.size()] += static_cast<u32>(carry);
  }
  return BigInt::from_limbs(std::move(out));
}

BigInt BigInt::shifted_left(std::size_t bits) const {
  if (is_zero() || bits == 0) {
    BigInt copy = *this;
    return copy;
  }
  const std::size_t limb_shift = bits / 32;
  const std::size_t bit_shift = bits % 32;
  std::vector<u32> out(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const u64 v = static_cast<u64>(limbs_[i]) << bit_shift;
    out[i + limb_shift] |= static_cast<u32>(v);
    out[i + limb_shift + 1] |= static_cast<u32>(v >> 32);
  }
  return from_limbs(std::move(out));
}

BigInt BigInt::shifted_right(std::size_t bits) const {
  const std::size_t limb_shift = bits / 32;
  const std::size_t bit_shift = bits % 32;
  if (limb_shift >= limbs_.size()) return BigInt();
  std::vector<u32> out(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    u64 v = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size())
      v |= static_cast<u64>(limbs_[i + limb_shift + 1]) << (32 - bit_shift);
    out[i] = static_cast<u32>(v);
  }
  return from_limbs(std::move(out));
}

BigInt::DivResult BigInt::divmod(const BigInt& a, const BigInt& b) {
  assert(!b.is_zero() && "BigInt division by zero");
  if (compare(a, b) < 0) return {BigInt(), a};
  if (b.limbs_.size() == 1) {
    // Fast path: single-limb divisor.
    const u64 d = b.limbs_[0];
    std::vector<u32> q(a.limbs_.size(), 0);
    u64 rem = 0;
    for (std::size_t i = a.limbs_.size(); i-- > 0;) {
      const u64 cur = (rem << 32) | a.limbs_[i];
      q[i] = static_cast<u32>(cur / d);
      rem = cur % d;
    }
    return {from_limbs(std::move(q)), BigInt(rem)};
  }

  // Knuth TAOCP vol. 2, Algorithm D.
  // D1: normalize so the divisor's top limb has its high bit set.
  const std::size_t shift = 32 - (b.bit_length() % 32 == 0
                                      ? 32
                                      : b.bit_length() % 32);
  const BigInt un = a.shifted_left(shift);
  const BigInt vn = b.shifted_left(shift);
  const std::size_t n = vn.limbs_.size();
  const std::size_t m = un.limbs_.size() >= n ? un.limbs_.size() - n : 0;

  std::vector<u32> u(un.limbs_);
  u.resize(un.limbs_.size() + 1, 0);  // extra high limb for D4 borrows
  const std::vector<u32>& v = vn.limbs_;

  std::vector<u32> q(m + 1, 0);

  for (std::size_t j = m + 1; j-- > 0;) {
    // D3: estimate q̂ from the top two limbs.
    const u64 top = (static_cast<u64>(u[j + n]) << 32) | u[j + n - 1];
    u64 qhat = top / v[n - 1];
    u64 rhat = top % v[n - 1];
    while (qhat >= (u64{1} << 32) ||
           qhat * v[n - 2] > ((rhat << 32) | u[j + n - 2])) {
      --qhat;
      rhat += v[n - 1];
      if (rhat >= (u64{1} << 32)) break;
    }

    // D4: multiply and subtract u[j..j+n] -= qhat * v.
    std::int64_t borrow = 0;
    u64 carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const u64 p = qhat * v[i] + carry;
      carry = p >> 32;
      std::int64_t diff = static_cast<std::int64_t>(u[i + j]) -
                          static_cast<std::int64_t>(p & 0xffffffffULL) - borrow;
      if (diff < 0) {
        diff += (std::int64_t{1} << 32);
        borrow = 1;
      } else {
        borrow = 0;
      }
      u[i + j] = static_cast<u32>(diff);
    }
    std::int64_t diff = static_cast<std::int64_t>(u[j + n]) -
                        static_cast<std::int64_t>(carry) - borrow;
    bool negative = diff < 0;
    u[j + n] = static_cast<u32>(diff);

    // D5/D6: q̂ was one too large — add back.
    if (negative) {
      --qhat;
      u64 c = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const u64 sum = static_cast<u64>(u[i + j]) + v[i] + c;
        u[i + j] = static_cast<u32>(sum);
        c = sum >> 32;
      }
      u[j + n] = static_cast<u32>(u[j + n] + c);
    }
    q[j] = static_cast<u32>(qhat);
  }

  // D8: denormalize the remainder.
  u.resize(n);
  BigInt rem = from_limbs(std::move(u)).shifted_right(shift);
  return {from_limbs(std::move(q)), std::move(rem)};
}

BigInt BigInt::mod_exp(const BigInt& base, const BigInt& exp, const BigInt& m) {
  assert(compare(m, BigInt(1)) > 0);
  if (m.is_odd()) return Montgomery(m).mod_exp(base, exp);
  return mod_exp_schoolbook(base, exp, m);
}

BigInt BigInt::mod_exp_schoolbook(const BigInt& base, const BigInt& exp,
                                  const BigInt& m) {
  assert(compare(m, BigInt(1)) > 0);
  BigInt result(1);
  BigInt b = base % m;
  const std::size_t bits = exp.bit_length();
  for (std::size_t i = bits; i-- > 0;) {
    result = (result * result) % m;
    if (exp.bit(i)) result = (result * b) % m;
  }
  return result;
}

// ------------------------------------------------------------ Montgomery

Montgomery::Montgomery(const BigInt& m) : m_(m) {
  assert(m.is_odd() && "Montgomery requires an odd modulus");
  assert(BigInt::compare(m, BigInt(1)) > 0);
  k_ = (m_.limbs_.size() + 1) / 2;
  mw_.resize(k_);
  to_words(m_, mw_.data());
  // n0_ = -m^-1 mod 2^64 by Newton iteration: for odd m0, x = m0 is an
  // inverse mod 2^3; each x *= 2 - m0*x step doubles the valid bits.
  const u64 m0 = mw_[0];
  u64 x = m0;
  for (int i = 0; i < 5; ++i) x *= 2 - m0 * x;
  n0_ = ~x + 1;  // negate mod 2^64
  rr_.resize(k_);
  to_words(BigInt(1).shifted_left(128 * k_) % m_, rr_.data());
}

void Montgomery::to_words(const BigInt& a, u64* out) const {
  const std::vector<u32>& l = a.limbs_;
  for (std::size_t i = 0; i < k_; ++i) {
    const u64 lo = 2 * i < l.size() ? l[2 * i] : 0;
    const u64 hi = 2 * i + 1 < l.size() ? l[2 * i + 1] : 0;
    out[i] = lo | hi << 32;
  }
}

BigInt Montgomery::from_words(const u64* w) const {
  std::vector<u32> limbs(2 * k_);
  for (std::size_t i = 0; i < k_; ++i) {
    limbs[2 * i] = static_cast<u32>(w[i]);
    limbs[2 * i + 1] = static_cast<u32>(w[i] >> 32);
  }
  return BigInt::from_limbs(std::move(limbs));
}

namespace {

// Full unrolling for the fixed-width kernels' loops, so their
// accumulators live in registers. Each compiler has its own spelling,
// and -Wall warns on the other's.
#if defined(__clang__)
#define BFTBC_UNROLL _Pragma("unroll")
#else
#define BFTBC_UNROLL _Pragma("GCC unroll 16")
#endif

// out = t - m when `top` is set or t >= m, else t, for K-word t < 2m.
// Both values are computed and one is picked by mask, so the choice
// costs no branch.
template <std::size_t K>
inline void subtract_if_ge(u64* out, const u64* t, bool top, const u64* m) {
  u64 d[K];
  u64 borrow = 0;
  BFTBC_UNROLL
  for (std::size_t i = 0; i < K; ++i) {
    const u128 diff = static_cast<u128>(t[i]) - m[i] - borrow;
    d[i] = static_cast<u64>(diff);
    borrow = static_cast<u64>(diff >> 64) & 1;
  }
  const u64 keep_d = 0 - static_cast<u64>(top || borrow == 0);
  BFTBC_UNROLL
  for (std::size_t i = 0; i < K; ++i)
    out[i] = (d[i] & keep_d) | (t[i] & ~keep_d);
}

// Montgomery::mul's CIOS loop at a word count K known at compile time:
// the K+2-word accumulator is a local array, which the unrolled loops
// keep in registers.
template <std::size_t K>
void mul_fixed(u64* out, const u64* a, const u64* b, const u64* m, u64 n0) {
  u64 t[K + 2] = {};
  BFTBC_UNROLL
  for (std::size_t i = 0; i < K; ++i) {
    const u64 ai = a[i];
    u64 carry = 0;
    BFTBC_UNROLL
    for (std::size_t j = 0; j < K; ++j) {
      const u128 cur = static_cast<u128>(ai) * b[j] + t[j] + carry;
      t[j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    u128 cur = static_cast<u128>(t[K]) + carry;
    t[K] = static_cast<u64>(cur);
    t[K + 1] = static_cast<u64>(cur >> 64);

    const u64 mfac = t[0] * n0;
    cur = static_cast<u128>(mfac) * m[0] + t[0];
    carry = static_cast<u64>(cur >> 64);
    BFTBC_UNROLL
    for (std::size_t j = 1; j < K; ++j) {
      cur = static_cast<u128>(mfac) * m[j] + t[j] + carry;
      t[j - 1] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    cur = static_cast<u128>(t[K]) + carry;
    t[K - 1] = static_cast<u64>(cur);
    t[K] = t[K + 1] + static_cast<u64>(cur >> 64);
  }
  subtract_if_ge<K>(out, t, t[K] != 0, m);
}

// Montgomery squaring at a fixed word count K. The product forms each
// cross product a[i]*a[j] (i < j) once, doubles their 2K-word sum and
// adds the diagonal squares: K(K+1)/2 word products where a multiply
// forms K^2. A separate pass then reduces the 2K words (round i adds
// (t[i]*n0)*m at word i, zeroing it), and one conditional subtraction
// finishes.
template <std::size_t K>
void sqr_fixed(u64* out, const u64* a, const u64* m, u64 n0) {
  u64 t[2 * K] = {};
  // Row i adds a[i]*a[i+1..K-1] from word 2i+1 and ends at word i+K,
  // which no earlier row reached.
  BFTBC_UNROLL
  for (std::size_t i = 0; i + 1 < K; ++i) {
    u64 carry = 0;
    BFTBC_UNROLL
    for (std::size_t j = i + 1; j < K; ++j) {
      const u128 cur = static_cast<u128>(a[i]) * a[j] + t[i + j] + carry;
      t[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    t[i + K] = carry;
  }
  // Twice the cross sum plus the squares is a^2 < 2^(128K): neither the
  // doubling nor the adding carries out of word 2K-1.
  BFTBC_UNROLL
  for (std::size_t i = 2 * K - 1; i > 0; --i)
    t[i] = t[i] << 1 | t[i - 1] >> 63;
  t[0] <<= 1;
  u64 carry = 0;
  BFTBC_UNROLL
  for (std::size_t i = 0; i < K; ++i) {
    const u128 sq = static_cast<u128>(a[i]) * a[i];
    u128 cur = static_cast<u128>(t[2 * i]) + static_cast<u64>(sq) + carry;
    t[2 * i] = static_cast<u64>(cur);
    cur = static_cast<u128>(t[2 * i + 1]) + static_cast<u64>(sq >> 64) +
          static_cast<u64>(cur >> 64);
    t[2 * i + 1] = static_cast<u64>(cur);
    carry = static_cast<u64>(cur >> 64);
  }

  // `top` is the carry out of word i+K, owed to word i+K+1: the next
  // round's top word, or past word 2K-1 after the last round.
  u64 top = 0;
  BFTBC_UNROLL
  for (std::size_t i = 0; i < K; ++i) {
    const u64 mfac = t[i] * n0;
    u128 cur = static_cast<u128>(mfac) * m[0] + t[i];
    carry = static_cast<u64>(cur >> 64);  // low word is zero by construction
    BFTBC_UNROLL
    for (std::size_t j = 1; j < K; ++j) {
      cur = static_cast<u128>(mfac) * m[j] + t[i + j] + carry;
      t[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    cur = static_cast<u128>(t[i + K]) + carry + top;
    t[i + K] = static_cast<u64>(cur);
    top = static_cast<u64>(cur >> 64);
  }
  // (a^2 + (sum of the rounds' multiples of m)) / R < 2m.
  subtract_if_ge<K>(out, t + K, top != 0, m);
}

}  // namespace

// CIOS multiplication+reduction (Koç et al., "Analyzing and Comparing
// Montgomery Multiplication Algorithms"): interleaves the schoolbook
// product with the reduction so the accumulator never exceeds k+2
// words. Every product-plus-two-words sum fits in 128 bits. The 4- and
// 8-word moduli take the fixed-width copy above; this loop serves every
// other width.
void Montgomery::mul(u64* out, const u64* a, const u64* b, u64* t) const {
  if (k_ == 4) {
    mul_fixed<4>(out, a, b, mw_.data(), n0_);
    return;
  }
  if (k_ == 8) {
    mul_fixed<8>(out, a, b, mw_.data(), n0_);
    return;
  }
  const std::size_t k = k_;
  const u64* m = mw_.data();
  std::fill(t, t + k + 2, 0);
  for (std::size_t i = 0; i < k; ++i) {
    const u64 ai = a[i];
    u64 carry = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const u128 cur = static_cast<u128>(ai) * b[j] + t[j] + carry;
      t[j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    u128 cur = static_cast<u128>(t[k]) + carry;
    t[k] = static_cast<u64>(cur);
    t[k + 1] = static_cast<u64>(cur >> 64);

    const u64 mfac = t[0] * n0_;
    cur = static_cast<u128>(mfac) * m[0] + t[0];
    carry = static_cast<u64>(cur >> 64);  // low word is zero by construction
    for (std::size_t j = 1; j < k; ++j) {
      cur = static_cast<u128>(mfac) * m[j] + t[j] + carry;
      t[j - 1] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    cur = static_cast<u128>(t[k]) + carry;
    t[k - 1] = static_cast<u64>(cur);
    t[k] = t[k + 1] + static_cast<u64>(cur >> 64);  // <= 1
  }

  // Conditional final subtraction: the CIOS invariant keeps the result
  // below 2m, so at most one subtract of m is needed.
  bool ge = t[k] != 0;
  if (!ge) {
    ge = true;
    for (std::size_t i = k; i-- > 0;) {
      if (t[i] != m[i]) {
        ge = t[i] > m[i];
        break;
      }
    }
  }
  if (!ge) {
    std::copy(t, t + k, out);
    return;
  }
  u64 borrow = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const u128 diff = static_cast<u128>(t[i]) - m[i] - borrow;
    out[i] = static_cast<u64>(diff);
    borrow = static_cast<u64>(diff >> 64) & 1;
  }
}

void Montgomery::sqr(u64* out, const u64* a, u64* t) const {
  if (k_ == 4) {
    sqr_fixed<4>(out, a, mw_.data(), n0_);
  } else if (k_ == 8) {
    sqr_fixed<8>(out, a, mw_.data(), n0_);
  } else {
    mul(out, a, a, t);
  }
}

BigInt Montgomery::mont_mul(const BigInt& a, const BigInt& b) const {
  assert(a < m_ && b < m_);
  std::vector<u64> ws(4 * k_ + 2);
  u64* aw = ws.data();
  u64* bw = aw + k_;
  u64* out = bw + k_;
  to_words(a, aw);
  to_words(b, bw);
  mul(out, aw, bw, out + k_);
  return from_words(out);
}

BigInt Montgomery::to_mont(const BigInt& a) const {
  const BigInt reduced = a < m_ ? a : a % m_;
  return mont_mul(reduced, from_words(rr_.data()));
}

BigInt Montgomery::from_mont(const BigInt& a) const {
  return mont_mul(a, BigInt(1));
}

BigInt Montgomery::mod_exp(const BigInt& base, const BigInt& exp) const {
  const std::size_t bits = exp.bit_length();
  if (bits == 0) return BigInt(1) % m_;
  const std::size_t k = k_;
  const bool windowed = bits > kPlainExpBits;

  // One zeroed workspace per call (the context holds no scratch): the
  // CIOS accumulator, the running power, and a table of k-word entries
  // whose entry w is base^w in the domain — 16 entries for the window,
  // 2 for square-and-multiply. Entry 0 instead holds a plain 1 for
  // leaving the domain: no window reads it, because a window of zeros
  // skips its multiply and the first window holds the exponent's top
  // bit.
  std::vector<u64> ws(k + 2 + k + (windowed ? 16 : 2) * k);
  u64* t = ws.data();
  u64* acc = t + k + 2;
  u64* table = acc + k;
  u64* pow1 = table + k;
  table[0] = 1;

  if (base < m_) {
    to_words(base, pow1);
  } else {
    to_words(base % m_, pow1);
  }
  mul(pow1, pow1, rr_.data(), t);

  if (!windowed) {
    std::copy(pow1, pow1 + k, acc);
    for (std::size_t i = bits - 1; i-- > 0;) {
      sqr(acc, acc, t);
      if (exp.bit(i)) mul(acc, acc, pow1, t);
    }
  } else {
    for (std::size_t w = 2; w < 16; ++w)
      mul(table + w * k, table + (w - 1) * k, pow1, t);
    // The 4 exponent bits from bit `lo` up; lo is a multiple of 4, so a
    // window never straddles a 32-bit limb.
    const std::vector<u32>& e = exp.limbs_;
    auto window_at = [&e](std::size_t lo) -> std::size_t {
      return lo / 32 < e.size() ? (e[lo / 32] >> (lo % 32)) & 0xf : 0;
    };
    std::size_t lo = (bits - 1) / 4 * 4;
    const u64* first = table + window_at(lo) * k;
    std::copy(first, first + k, acc);
    while (lo >= 4) {
      lo -= 4;
      sqr(acc, acc, t);
      sqr(acc, acc, t);
      sqr(acc, acc, t);
      sqr(acc, acc, t);
      const std::size_t w = window_at(lo);
      if (w != 0) mul(acc, acc, table + w * k, t);
    }
  }

  mul(acc, acc, table, t);  // times plain 1: out of the domain
  return from_words(acc);
}

BigInt BigInt::gcd(BigInt a, BigInt b) {
  while (!b.is_zero()) {
    BigInt r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

BigInt BigInt::mod_inverse(const BigInt& a, const BigInt& m) {
  // Extended Euclid tracking coefficients for `a` only, with signs
  // handled by keeping values reduced mod m.
  if (m.is_zero() || a.is_zero()) return BigInt();
  BigInt r0 = m, r1 = a % m;
  // t coefficients with explicit sign flags (unsigned BigInt).
  BigInt t0(0), t1(1);
  bool t0_neg = false, t1_neg = false;
  while (!r1.is_zero()) {
    const DivResult d = divmod(r0, r1);
    // (r0, r1) = (r1, r0 - q*r1)
    BigInt r2 = d.remainder;
    // t2 = t0 - q*t1 with sign tracking
    BigInt qt1 = d.quotient * t1;
    BigInt t2;
    bool t2_neg;
    if (t0_neg == t1_neg) {
      if (t0 >= qt1) {
        t2 = t0 - qt1;
        t2_neg = t0_neg;
      } else {
        t2 = qt1 - t0;
        t2_neg = !t0_neg;
      }
    } else {
      t2 = t0 + qt1;
      t2_neg = t0_neg;
    }
    r0 = std::move(r1);
    r1 = std::move(r2);
    t0 = std::move(t1);
    t0_neg = t1_neg;
    t1 = std::move(t2);
    t1_neg = t2_neg;
  }
  if (!r0.is_one()) return BigInt();  // not coprime
  BigInt inv = t0 % m;
  if (t0_neg && !inv.is_zero()) inv = m - inv;
  return inv;
}

}  // namespace bftbc::crypto
