#include "crypto/hmac.h"

#include <gtest/gtest.h>

#include "util/hex.h"

namespace bftbc::crypto {
namespace {

// RFC 4231 test vectors for HMAC-SHA256.
TEST(HmacTest, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const Bytes msg = to_bytes("Hi There");
  EXPECT_EQ(to_hex(digest_view(hmac_sha256(key, msg))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  const Bytes key = to_bytes("Jefe");
  const Bytes msg = to_bytes("what do ya want for nothing?");
  EXPECT_EQ(to_hex(digest_view(hmac_sha256(key, msg))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes msg(50, 0xdd);
  EXPECT_EQ(to_hex(digest_view(hmac_sha256(key, msg))),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacTest, Rfc4231Case4) {
  Bytes key(25);
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i + 1);
  }
  const Bytes msg(50, 0xcd);
  EXPECT_EQ(to_hex(digest_view(hmac_sha256(key, msg))),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

TEST(HmacTest, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  const Bytes msg = to_bytes("Test Using Larger Than Block-Size Key - Hash Key First");
  EXPECT_EQ(to_hex(digest_view(hmac_sha256(key, msg))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// Key and data both longer than one block.
TEST(HmacTest, Rfc4231Case7LongKeyAndData) {
  const Bytes key(131, 0xaa);
  const Bytes msg = to_bytes(
      "This is a test using a larger than block-size key and a larger than "
      "block-size data. The key needs to be hashed before being used by the "
      "HMAC algorithm.");
  EXPECT_EQ(to_hex(digest_view(hmac_sha256(key, msg))),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST(HmacTest, VerifyAcceptsCorrectTag) {
  const Bytes key = to_bytes("secret");
  const Bytes msg = to_bytes("message");
  const Digest tag = hmac_sha256(key, msg);
  EXPECT_TRUE(hmac_verify(key, msg, digest_view(tag)));
}

TEST(HmacTest, VerifyRejectsTamperedMessage) {
  const Bytes key = to_bytes("secret");
  const Digest tag = hmac_sha256(key, to_bytes("message"));
  EXPECT_FALSE(hmac_verify(key, to_bytes("massage"), digest_view(tag)));
}

TEST(HmacTest, VerifyRejectsWrongKey) {
  const Bytes msg = to_bytes("message");
  const Digest tag = hmac_sha256(to_bytes("secret"), msg);
  EXPECT_FALSE(hmac_verify(to_bytes("Secret"), msg, digest_view(tag)));
}

TEST(HmacTest, VerifyRejectsTruncatedTag) {
  const Bytes key = to_bytes("secret");
  const Bytes msg = to_bytes("message");
  const Digest tag = hmac_sha256(key, msg);
  EXPECT_FALSE(hmac_verify(key, msg, BytesView(tag.data(), 16)));
}

// A prepared key streams its prefix and message into the kept pad
// states; the tag must equal the one-shot HMAC of the concatenation for
// keys shorter than, equal to and longer than a block, and for messages
// around the one-block padding boundary (55/56) and block multiples.
TEST(HmacKeyTest, PrefixedMacEqualsReference) {
  const std::size_t key_lengths[] = {0, 32, 64, 65, 131};
  const std::size_t msg_lengths[] = {0, 55, 56, 64, 119, 1024};
  const Bytes prefixes[] = {Bytes{}, Bytes{1, 2, 3, 4},
                            Bytes{9, 8, 7, 6, 5, 4, 3, 2}};
  for (const std::size_t kl : key_lengths) {
    Bytes key(kl);
    for (std::size_t i = 0; i < kl; ++i) key[i] = static_cast<std::uint8_t>(3 * i + 1);
    const HmacKey prepared(key);
    for (const std::size_t ml : msg_lengths) {
      Bytes msg(ml);
      for (std::size_t i = 0; i < ml; ++i) msg[i] = static_cast<std::uint8_t>(7 * i);
      for (const Bytes& prefix : prefixes) {
        Bytes joined = prefix;
        joined.insert(joined.end(), msg.begin(), msg.end());
        const Digest expect = hmac_sha256(key, joined);
        EXPECT_EQ(prepared.mac(prefix, msg), expect)
            << "key " << kl << " msg " << ml << " prefix " << prefix.size();
        // Reusing the prepared key does not disturb its pad states.
        EXPECT_EQ(prepared.mac(prefix, msg), expect);
        EXPECT_TRUE(prepared.verify(prefix, msg, digest_view(expect)));
      }
      EXPECT_EQ(prepared.mac(msg), hmac_sha256(key, msg));
    }
  }
}

TEST(HmacKeyTest, VerifyRejectsTagOverOtherSplit) {
  // The tag covers prefix || msg only: moving a byte between the two
  // parts keeps the tag, anything else changes it.
  const HmacKey key(to_bytes("secret"));
  const Digest tag = key.mac(to_bytes("ab"), to_bytes("cd"));
  EXPECT_TRUE(key.verify(to_bytes("a"), to_bytes("bcd"), digest_view(tag)));
  EXPECT_FALSE(key.verify(to_bytes("ab"), to_bytes("ce"), digest_view(tag)));
  EXPECT_FALSE(key.verify(to_bytes("ab"), to_bytes("cd"),
                          BytesView(tag.data(), 16)));
}

}  // namespace
}  // namespace bftbc::crypto
