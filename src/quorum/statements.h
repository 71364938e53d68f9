// Signed statements — the atoms of certificates.
//
// A statement is the exact byte string a replica signs. Statement bytes
// are domain-separated with a tag so a signature over one statement kind
// can never be replayed as another, and they carry the object id so
// certificates cannot migrate between objects.
//
//   PREPARE-REPLY: 〈tag, object, ts, h〉σr   (paper's 〈PREPARE-REPLY, ts, h〉σr)
//   WRITE-REPLY:   〈tag, object, ts〉σr      (paper's 〈WRITE-REPLY, ts〉σr)
#pragma once

#include <cstdint>

#include "crypto/sha256.h"
#include "quorum/timestamp.h"
#include "util/codec.h"

namespace bftbc::quorum {

using ObjectId = std::uint64_t;

enum class StatementTag : std::uint8_t {
  kPrepareReply = 1,
  kWriteReply = 2,
};

// Exact signed bytes of 〈PREPARE-REPLY, ts, h〉 for an object.
inline Bytes prepare_reply_statement(ObjectId object, const Timestamp& ts,
                                     const crypto::Digest& hash) {
  return wire::encode(StatementTag::kPrepareReply, object, ts, hash);
}

// Exact signed bytes of 〈WRITE-REPLY, ts〉 for an object.
inline Bytes write_reply_statement(ObjectId object, const Timestamp& ts) {
  return wire::encode(StatementTag::kWriteReply, object, ts);
}

}  // namespace bftbc::quorum
