// Differential fuzzing of the Montgomery modexp engine.
//
// The schoolbook divmod ladder is slow but simple enough to trust; the
// Montgomery CIOS path and the CRT recombination in rsa_sign are the
// fast, tricky replacements. The Montgomery kernels work on 64-bit
// words, so the widths include odd 32-bit limb counts (a half-empty top
// word) and moduli just below a power of two (an all-ones top word,
// which drives the carry word and the final subtraction). 4- and 8-word
// moduli run their own multiply and squaring, so the widths cover each
// and its neighbours: 3, 4, 5, 7, 8 and 9 words. Each seed drives:
//   - mod_exp (Montgomery for odd moduli) vs mod_exp_schoolbook on
//     random (base, exp, modulus) triples across widths, and on
//     exponents either side of the 32-bit square-and-multiply limit;
//   - single squarings (exponents 2 and 3) at 4 and 8 words on edge
//     bases;
//   - Montgomery domain round-trips and mont_mul against plain a*b%m;
//   - CRT recombination identity against the direct m^d mod n, plus a
//     full RSA sign/verify round-trip with tamper rejection.
//
// Nightly CI sweeps a seed range; a failure names the seed so
//   bigint_diff_fuzz_test --seed N
// reproduces it exactly.
#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "crypto/bigint.h"
#include "crypto/rsa.h"
#include "util/bytes.h"
#include "util/flags.h"
#include "util/rng.h"

namespace bftbc::crypto {

// --seed override: 0 means "run the built-in seed table". Set in main()
// before InitGoogleTest materializes the parameter generators.
std::uint64_t g_seed_override = 0;

namespace {

BigInt random_odd_with_bits(Rng& rng, std::size_t bits) {
  BigInt m = BigInt::random_with_bits(rng, bits);
  if (!m.is_odd()) m = m + BigInt(1);
  return m;
}

class BigIntDiffFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

// 2^bits - c for odd c < 2^32: for bits >= 96 every bit above the low
// 32 is set.
BigInt near_power_of_two(Rng& rng, std::size_t bits) {
  const BigInt c(rng.next_u32() | 1u);
  return BigInt(1).shifted_left(bits) - c;
}

TEST_P(BigIntDiffFuzzTest, MontgomeryMatchesSchoolbook) {
  Rng rng(GetParam() ^ 0xd1ffe12e);
  const std::size_t widths[] = {32,  64,  96,  160, 192,  256, 288,
                                448, 512, 544, 576, 1024, 2048};
  for (const std::size_t bits : widths) {
    // The schoolbook reference costs two divisions per exponent bit, so
    // the 2048-bit rounds are fewer and their exponents shorter.
    const bool wide = bits > 1024;
    for (int round = 0; round < (wide ? 2 : 8); ++round) {
      const BigInt m = random_odd_with_bits(rng, bits);
      const BigInt base = BigInt::random_below(rng, m);
      const BigInt exp =
          BigInt::random_with_bits(rng, 1 + rng.next_below(wide ? 256 : bits));
      const BigInt fast = BigInt::mod_exp(base, exp, m);
      const BigInt slow = BigInt::mod_exp_schoolbook(base, exp, m);
      ASSERT_EQ(fast.to_hex(), slow.to_hex())
          << "bits=" << bits << " round=" << round;
    }
  }
}

TEST_P(BigIntDiffFuzzTest, MontgomeryNearPowerOfTwoModuli) {
  Rng rng(GetParam() ^ 0x2b17e5);
  for (const std::size_t bits : {128, 256, 512, 1024, 2048}) {
    const BigInt m = near_power_of_two(rng, bits);
    const Montgomery mont(m);
    const BigInt bases[] = {BigInt::random_below(rng, m), m - BigInt(1),
                            m - BigInt(2)};
    for (const BigInt& a : bases) {
      for (const std::size_t exp_bits : {17, 97}) {
        const BigInt exp = BigInt::random_with_bits(rng, exp_bits);
        ASSERT_EQ(mont.mod_exp(a, exp).to_hex(),
                  BigInt::mod_exp_schoolbook(a, exp, m).to_hex())
            << "bits=" << bits << " exp_bits=" << exp_bits;
      }
      const BigInt b = BigInt::random_below(rng, m);
      const BigInt product =
          mont.from_mont(mont.mont_mul(mont.to_mont(a), mont.to_mont(b)));
      ASSERT_EQ(product.to_hex(), ((a * b) % m).to_hex()) << "bits=" << bits;
    }
  }
}

TEST_P(BigIntDiffFuzzTest, MontgomeryEdgeExponents) {
  Rng rng(GetParam() ^ 0xed6e);
  const std::uint64_t random32 = rng.next_u32() | (1ull << 31);
  for (const std::size_t bits : {96, 256, 544}) {
    const BigInt m = random_odd_with_bits(rng, bits);
    const BigInt base = BigInt::random_below(rng, m);
    auto check = [&](std::uint64_t e) {
      const BigInt exp(e);
      EXPECT_EQ(BigInt::mod_exp(base, exp, m).to_hex(),
                BigInt::mod_exp_schoolbook(base, exp, m).to_hex())
          << "bits=" << bits << " e=" << e;
    };
    for (const std::uint64_t e : {0, 1, 2, 3, 16, 65537}) check(e);
    // Exponents of at most 32 bits run square-and-multiply, longer ones
    // the window: both sides of that limit.
    for (const std::uint64_t e : {0xffffffffull, 0x100000000ull}) check(e);
    check(random32);
    check(random32 | (1ull << 32));
  }
  const BigInt m = random_odd_with_bits(rng, 256);
  // base congruent to 0 and to m-1 (the -1 case exercises the final
  // conditional subtraction).
  ASSERT_EQ(BigInt::mod_exp(BigInt(0), BigInt(5), m).to_hex(),
            BigInt(0).to_hex());
  const BigInt minus_one = m - BigInt(1);
  ASSERT_EQ(BigInt::mod_exp(minus_one, BigInt(3), m).to_hex(),
            BigInt::mod_exp_schoolbook(minus_one, BigInt(3), m).to_hex());
}

// Exponent 2 is exactly one squaring in the domain, 3 a squaring then a
// multiply, at the two widths with a dedicated squaring; the moduli are
// random and just below 2^(64k), the bases the edges of [0, m).
TEST_P(BigIntDiffFuzzTest, MontgomerySquaringMatchesSchoolbook) {
  Rng rng(GetParam() ^ 0x5a0a4e);
  for (const std::size_t bits : {256, 512}) {
    const BigInt moduli[] = {random_odd_with_bits(rng, bits),
                             near_power_of_two(rng, bits)};
    for (const BigInt& m : moduli) {
      const Montgomery mont(m);
      const BigInt bases[] = {BigInt(0),     BigInt(1),
                              BigInt(2),     m - BigInt(2),
                              m - BigInt(1), BigInt::random_below(rng, m)};
      for (const BigInt& a : bases) {
        for (const std::uint64_t e : {2, 3}) {
          ASSERT_EQ(mont.mod_exp(a, BigInt(e)).to_hex(),
                    BigInt::mod_exp_schoolbook(a, BigInt(e), m).to_hex())
              << "bits=" << bits << " m=" << m.to_hex() << " a=" << a.to_hex()
              << " e=" << e;
        }
      }
    }
  }
}

TEST_P(BigIntDiffFuzzTest, MontMulMatchesPlainModmul) {
  Rng rng(GetParam() ^ 0x30147301);
  for (const std::size_t bits : {64, 96, 192, 256, 288, 448, 512, 544, 576,
                                 2048}) {
    const BigInt m = random_odd_with_bits(rng, bits);
    const Montgomery mont(m);
    for (int round = 0; round < 16; ++round) {
      const BigInt a = BigInt::random_below(rng, m);
      const BigInt b = BigInt::random_below(rng, m);
      // Round-trip through the Montgomery domain.
      ASSERT_EQ(mont.from_mont(mont.to_mont(a)).to_hex(), (a % m).to_hex());
      // mont_mul on domain values equals plain modular multiplication.
      const BigInt product =
          mont.from_mont(mont.mont_mul(mont.to_mont(a), mont.to_mont(b)));
      ASSERT_EQ(product.to_hex(), ((a * b) % m).to_hex())
          << "bits=" << bits << " round=" << round;
    }
  }
}

TEST_P(BigIntDiffFuzzTest, CrtRecombinationMatchesDirectExponentiation) {
  Rng rng(GetParam() ^ 0xc127);
  const RsaKeyPair kp = rsa_generate(rng, 512);
  const RsaPrivateKey& k = kp.priv;
  for (int round = 0; round < 4; ++round) {
    const BigInt x = BigInt::random_below(rng, k.n);
    // The CRT path rsa_sign takes, spelled out.
    const BigInt yp = BigInt::mod_exp(x % k.p, k.dp, k.p);
    const BigInt yq = BigInt::mod_exp(x % k.q, k.dq, k.q);
    const BigInt h = (k.qinv * ((yp + k.p - (yq % k.p)) % k.p)) % k.p;
    const BigInt y = yq + k.q * h;
    ASSERT_EQ(y.to_hex(), BigInt::mod_exp(x, k.d, k.n).to_hex())
        << "round=" << round;
  }
}

TEST_P(BigIntDiffFuzzTest, RsaSignVerifyRoundTrip) {
  Rng rng(GetParam() ^ 0x125a);
  const RsaKeyPair kp = rsa_generate(rng, 512);
  for (int round = 0; round < 4; ++round) {
    Bytes msg = rng.bytes(1 + rng.next_below(200));
    const Bytes sig = rsa_sign(kp.priv, msg);
    ASSERT_TRUE(rsa_verify(kp.pub, msg, sig)) << round;
    Bytes bad_sig = sig;
    bad_sig[rng.next_below(bad_sig.size())] ^=
        static_cast<std::uint8_t>(1 + rng.next_below(255));
    ASSERT_FALSE(rsa_verify(kp.pub, msg, bad_sig)) << round;
    Bytes bad_msg = msg;
    bad_msg[rng.next_below(bad_msg.size())] ^= 0x01;
    ASSERT_FALSE(rsa_verify(kp.pub, bad_msg, sig)) << round;
  }
}

std::vector<std::uint64_t> fuzz_seeds() {
  if (g_seed_override != 0) return {g_seed_override};
  return {1, 2, 3, 4};
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntDiffFuzzTest,
                         ::testing::ValuesIn(fuzz_seeds()));

}  // namespace
}  // namespace bftbc::crypto

// Custom main: gtest materializes parameterized suites inside
// InitGoogleTest, so --seed must be pulled out of argv FIRST; the
// remaining (gtest) flags are then handed to gtest untouched.
int main(int argc, char** argv) {
  std::vector<char*> ours{argv[0]};
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg.rfind("--seed", 0) == 0) {
      ours.push_back(argv[i]);
      if (arg == "--seed" && i + 1 < argc) ours.push_back(argv[++i]);
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;

  bftbc::FlagSet flags;
  auto& seed =
      flags.add_u64("seed", 0, "run only this fuzz seed (0 = full table)");
  int ours_argc = static_cast<int>(ours.size());
  flags.parse(ours_argc, ours.data());
  bftbc::crypto::g_seed_override = *seed;

  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
