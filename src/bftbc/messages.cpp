#include "bftbc/messages.h"

namespace bftbc::core {

// Each field below takes its wire form (util/codec.h): a certificate is
// its length-prefixed blob, a digest its 32 raw bytes.

Bytes ReadTsReply::signing_payload() const {
  return wire::encode(AuthTag::kReadTsReply, object, nonce, pcert,
                      strong_write_sig);
}

Bytes PrepareRequest::signing_payload() const {
  return wire::encode(AuthTag::kPrepare, object, t, hash, prep_cert,
                      write_cert, client);
}

Bytes WriteRequest::signing_payload(const crypto::Digest& value_hash) const {
  // Sign the digest, not the value: identical security (the certificate
  // already binds the digest) and keeps signing cost value-size-free.
  return wire::encode(AuthTag::kWrite, object, value_hash, prep_cert, client);
}

Bytes ReadReply::signing_payload(const crypto::Digest& value_hash) const {
  return wire::encode(AuthTag::kReadReply, object, nonce, value_hash, pcert);
}

Bytes ReadTsPrepRequest::signing_payload() const {
  return wire::encode(AuthTag::kReadTsPrep, object, hash, write_cert, client);
}

Bytes ReadTsPrepReply::signing_payload() const {
  return wire::encode(AuthTag::kReadTsPrepReply, object, nonce, pcert,
                      prepared, predicted_t, hash, prepare_sig,
                      strong_write_sig);
}

Bytes ReplyBatch::signing_payload() const {
  return wire::encode(AuthTag::kReplyBatch, replica, replies);
}

}  // namespace bftbc::core
