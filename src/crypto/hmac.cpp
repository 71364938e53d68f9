#include "crypto/hmac.h"

#include <algorithm>
#include <array>

namespace bftbc::crypto {

Digest hmac_sha256(BytesView key, BytesView message) {
  constexpr std::size_t kBlock = 64;

  // Keys longer than the block size are hashed first.
  std::array<std::uint8_t, kBlock> k{};
  if (key.size() > kBlock) {
    Digest kd = sha256(key);
    std::copy(kd.begin(), kd.end(), k.begin());
  } else {
    std::copy(key.begin(), key.end(), k.begin());
  }

  std::array<std::uint8_t, kBlock> ipad{};
  std::array<std::uint8_t, kBlock> opad{};
  for (std::size_t i = 0; i < kBlock; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }

  Sha256 inner;
  inner.update(ipad);
  inner.update(message);
  Digest inner_digest = inner.finish();

  Sha256 outer;
  outer.update(opad);
  outer.update(digest_view(inner_digest));
  return outer.finish();
}

bool hmac_verify(BytesView key, BytesView message, BytesView tag) {
  Digest expect = hmac_sha256(key, message);
  return constant_time_equal(digest_view(expect), tag);
}

}  // namespace bftbc::crypto
