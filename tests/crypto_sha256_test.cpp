#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include <array>
#include <cstring>

#include "crypto/sha256_kernel.h"
#include "util/hex.h"
#include "util/rng.h"

namespace bftbc::crypto {
namespace {

// FIPS 180-4 / NIST CAVP test vectors.
TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(to_hex(digest_view(sha256(as_bytes_view("")))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(to_hex(digest_view(sha256(as_bytes_view("abc")))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(to_hex(digest_view(sha256(as_bytes_view(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 ctx;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(to_hex(digest_view(ctx.finish())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// Long enough that update() must fill a partial buffer and then pass
// several whole blocks to the kernel in one call.
Bytes patterned_message(std::size_t len) {
  Bytes msg(len);
  for (std::size_t i = 0; i < len; ++i) {
    msg[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  return msg;
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const Bytes msg = patterned_message(1000);
  const Digest expect = sha256(msg);
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 ctx;
    ctx.update(BytesView(msg.data(), split));
    ctx.update(BytesView(msg.data() + split, msg.size() - split));
    EXPECT_EQ(ctx.finish(), expect) << "split at " << split;
  }
}

TEST(Sha256Test, ThreeWaySplitsMatchOneShot) {
  const Bytes msg = patterned_message(1000);
  const Digest expect = sha256(msg);
  for (std::size_t head : {0u, 1u, 13u, 63u, 64u, 65u, 127u}) {
    for (std::size_t middle : {128u, 129u, 191u, 192u, 320u, 511u, 704u}) {
      Sha256 ctx;
      ctx.update(BytesView(msg.data(), head));
      ctx.update(BytesView(msg.data() + head, middle));
      ctx.update(BytesView(msg.data() + head + middle,
                           msg.size() - head - middle));
      EXPECT_EQ(ctx.finish(), expect)
          << "head " << head << ", middle " << middle;
    }
  }
}

TEST(Sha256Test, BoundaryLengths) {
  // Exercise the padding logic at block-size boundaries.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const Bytes msg(len, 0x5a);
    Sha256 a;
    a.update(msg);
    // byte-at-a-time must agree
    Sha256 b;
    for (std::uint8_t byte : msg) b.update(BytesView(&byte, 1));
    EXPECT_EQ(a.finish(), b.finish()) << "len " << len;
  }
}

TEST(Sha256Test, ResetReusesContext) {
  Sha256 ctx;
  ctx.update(as_bytes_view("garbage"));
  (void)ctx.finish();
  ctx.reset();
  ctx.update(as_bytes_view("abc"));
  EXPECT_EQ(to_hex(digest_view(ctx.finish())),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, CompareDigestsOrdersNumerically) {
  Digest a{};
  Digest b{};
  a[0] = 1;
  EXPECT_GT(compare_digests(a, b), 0);
  EXPECT_LT(compare_digests(b, a), 0);
  EXPECT_EQ(compare_digests(a, a), 0);
  // differs only in last byte
  Digest c = a;
  c[31] = 1;
  EXPECT_LT(compare_digests(a, c), 0);
}

// Kernel-level tests: the compression functions themselves, reached
// through the internal header.

using State = std::array<std::uint32_t, 8>;

constexpr State kInitialState = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                 0xa54ff53a, 0x510e527f, 0x9b05688c,
                                 0x1f83d9ab, 0x5be0cd19};

Digest state_digest(const State& state) {
  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i + 0] = static_cast<std::uint8_t>(state[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state[i]);
  }
  return out;
}

// The portable kernel is the reference the SHA-extension kernel is
// compared against, so it is pinned to FIPS 180-4 on its own, whichever
// kernel Sha256 runs on this host: "abc" is one padded block, the
// 448-bit message two blocks compressed in one call.
TEST(Sha256KernelTest, PortableMatchesFipsVectors) {
  std::array<std::uint8_t, 64> one{};
  std::memcpy(one.data(), "abc", 3);
  one[3] = 0x80;
  one[63] = 24;
  State state = kInitialState;
  sha256_kernel::compress_portable(state.data(), one.data(), 1);
  EXPECT_EQ(to_hex(digest_view(state_digest(state))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");

  const char* msg = "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  std::array<std::uint8_t, 128> two{};
  std::memcpy(two.data(), msg, 56);
  two[56] = 0x80;
  two[126] = 448 >> 8;
  two[127] = 448 & 0xff;
  state = kInitialState;
  sha256_kernel::compress_portable(state.data(), two.data(), 2);
  EXPECT_EQ(to_hex(digest_view(state_digest(state))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

// Differential test: from random chaining states, over runs of 1..32
// blocks at every alignment mod 16, the SHA-extension kernel must leave
// exactly the state the portable kernel does.
TEST(Sha256KernelTest, ShaNiMatchesPortable) {
  const sha256_kernel::CompressFn sha_ni = sha256_kernel::sha_ni();
  if (sha_ni == nullptr) {
    GTEST_SKIP() << "no SHA extensions on this CPU or build";
  }
  for (std::uint64_t seed : {1u, 2u, 3u, 0x5eedu, 0xc0ffeeu}) {
    Rng rng(seed);
    for (std::size_t n = 1; n <= 32; ++n) {
      const std::size_t offset = n % 16;
      const Bytes buf = rng.bytes(offset + 64 * n);
      State portable{};
      for (std::uint32_t& word : portable) word = rng.next_u32();
      State fast = portable;
      sha256_kernel::compress_portable(portable.data(), buf.data() + offset, n);
      sha_ni(fast.data(), buf.data() + offset, n);
      EXPECT_EQ(fast, portable)
          << "seed " << seed << ", " << n << " blocks, offset " << offset;
    }
  }
}

TEST(Sha256KernelTest, ActiveKernelFollowsCpuid) {
  EXPECT_STREQ(sha256_kernel::active_name(),
               sha256_kernel::sha_ni() != nullptr ? "sha-ni" : "portable");
}

}  // namespace
}  // namespace bftbc::crypto
