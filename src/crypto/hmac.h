// HMAC-SHA256 (RFC 2104).
//
// Implements the paper's cheap point-to-point authenticators (§3.3.2):
// statements that only the recipient must verify can use MACs over
// session keys instead of public-key signatures. Also the PRF behind the
// deterministic test signer.
#pragma once

#include "crypto/sha256.h"
#include "util/bytes.h"

namespace bftbc::crypto {

// A key prepared once (RFC 2104 §4): the SHA-256 states after the key's
// ipad and opad blocks are kept, so each MAC compresses only the message
// and the two final blocks instead of two key blocks more. The keystore
// builds one per principal secret and per MAC pair.
class HmacKey {
 public:
  explicit HmacKey(BytesView key);

  // tag = HMAC-SHA256(key, prefix || msg). The prefix (a principal id,
  // or a sender and receiver pair) is streamed in, never concatenated.
  Digest mac(BytesView msg) const { return mac({}, msg); }
  Digest mac(BytesView prefix, BytesView msg) const;

  // Checks `tag` against mac(prefix, msg) in constant time.
  [[nodiscard]] bool verify(BytesView prefix, BytesView msg,
                            BytesView tag) const;

 private:
  Sha256 inner_;  // after (key ^ ipad)
  Sha256 outer_;  // after (key ^ opad)
};

// tag = HMAC-SHA256(key, message); HmacKey(key).mac(message).
Digest hmac_sha256(BytesView key, BytesView message);

// Verify in constant time.
[[nodiscard]] bool hmac_verify(BytesView key, BytesView message, BytesView tag);

}  // namespace bftbc::crypto
