#include "crypto/hmac.h"

#include <algorithm>
#include <array>

namespace bftbc::crypto {

HmacKey::HmacKey(BytesView key) {
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
  inner_.update(ipad);
  outer_.update(opad);
}

Digest HmacKey::mac(BytesView prefix, BytesView msg) const {
  Sha256 inner = inner_;
  inner.update(prefix);
  inner.update(msg);
  const Digest inner_digest = inner.finish();

  Sha256 outer = outer_;
  outer.update(digest_view(inner_digest));
  return outer.finish();
}

bool HmacKey::verify(BytesView prefix, BytesView msg, BytesView tag) const {
  const Digest expect = mac(prefix, msg);
  return constant_time_equal(digest_view(expect), tag);
}

Digest hmac_sha256(BytesView key, BytesView message) {
  return HmacKey(key).mac(message);
}

bool hmac_verify(BytesView key, BytesView message, BytesView tag) {
  return HmacKey(key).verify({}, message, tag);
}

}  // namespace bftbc::crypto
