// Wire envelope shared by every protocol in the repo.
//
// An Envelope frames one protocol message: its type, an rpc id for
// request/reply matching (transport-level only — never trusted for
// authentication; all authentication is by signatures inside the body),
// the claimed sender principal, and the opaque body bytes.
#pragma once

#include <cstdint>

#include "crypto/signature.h"
#include "util/codec.h"
#include "util/encoded_message.h"
#include "util/status.h"

namespace bftbc::rpc {

enum class MsgType : std::uint16_t {
  kInvalid = 0,

  // BFT-BC (base + optimized + strong variants)
  kReadTs = 1,        // phase 1 of write: 〈READ-TS, nonce〉
  kReadTsReply = 2,   // 〈READ-TS-REPLY, Pcert, nonce〉σr
  kPrepare = 3,       // 〈PREPARE, Pmax, t, h(val), Wcert〉σc
  kPrepareReply = 4,  // 〈PREPARE-REPLY, t, h〉σr
  kWrite = 5,         // 〈WRITE, val, Pnew〉σc
  kWriteReply = 6,    // 〈WRITE-REPLY, t〉σr
  kRead = 7,          // 〈READ, nonce〉
  kReadReply = 8,     // 〈READ-REPLY, val, Pcert, nonce〉σr
  kReadTsPrep = 9,    // optimized phase 1: 〈READ-TS-PREP, h, Wcert〉σc
  kReadTsPrepReply = 10,  // 〈Pcert, optional PREPARE-REPLY stmt〉σr
  kReplyBatch = 11,   // replica→client bundle of replies, one batch MAC
  kStateXfer = 12,    // recovery: 〈STATE-XFER, object, nonce〉
  kStateXferReply = 13,  // 〈STATE-XFER-REPLY, encoded ObjectState, nonce〉

  // Transport-level bundle of same-tick envelopes to one destination
  // (SimTransport coalescing). Unwrapped by the receiving transport, so
  // protocol code never sees this type on the wire.
  kBatch = 120,

  // Classic BQS baseline (Malkhi-Reiter 3f+1, no Byzantine-client defense)
  kBqsReadTs = 32,
  kBqsReadTsReply = 33,
  kBqsWrite = 34,
  kBqsWriteReply = 35,
  kBqsRead = 36,
  kBqsReadReply = 37,

  // Phalanx-style 4f+1 baseline
  kPhalanxWrite = 48,
  kPhalanxWriteReply = 49,
  kPhalanxRead = 50,
  kPhalanxReadReply = 51,
  kPhalanxReadTs = 52,
  kPhalanxReadTsReply = 53,

  // SBQ-L baseline (3f+1 with a reliable-network assumption)
  kSbqlReadTs = 64,
  kSbqlReadTsReply = 65,
  kSbqlWrite = 66,
  kSbqlWriteReply = 67,
  kSbqlRead = 68,
  kSbqlReadReply = 69,
  kSbqlForward = 70,     // replica→replica reliable forward
  kSbqlForwardAck = 71,  // ack that lets the sender drop its buffer entry
};

struct Envelope {
  MsgType type = MsgType::kInvalid;
  std::uint64_t rpc_id = 0;
  crypto::PrincipalId sender = 0;
  Bytes body;

  Bytes encode() const {
    Writer w;
    w.reserve(2 + 8 + 4 + varint_size(body.size()) + body.size());
    w.put_u16(static_cast<std::uint16_t>(type));
    w.put_u64(rpc_id);
    w.put_u32(sender);
    w.put_bytes(body);
    return std::move(w).take();
  }

  // Encode-once fan-out: the first call serializes and caches; every
  // later call (other targets, retransmits) returns the same shared
  // buffer. Callers that mutate the envelope after encoding are on the
  // hot path's one sharp edge — protocol code treats envelopes as
  // immutable once handed to a transport.
  [[nodiscard]] bool has_cached_encoding() const {
    return cached_encoding_.valid();
  }
  const EncodedMessage& shared_encoding() const {
    if (!cached_encoding_.valid()) {
      cached_encoding_ = EncodedMessage::wrap(encode());
    }
    return cached_encoding_;
  }

  // Returns nullopt on malformed input (truncated, trailing garbage).
  static std::optional<Envelope> decode(BytesView data) {
    Reader r(data);
    Envelope env;
    env.type = static_cast<MsgType>(r.get_u16());
    env.rpc_id = r.get_u64();
    env.sender = r.get_u32();
    env.body = r.get_bytes();
    if (!r.done()) return std::nullopt;
    return env;
  }

 private:
  mutable EncodedMessage cached_encoding_;
};

}  // namespace bftbc::rpc
