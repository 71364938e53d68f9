#include "quorum/certificate.h"

#include "util/hex.h"

namespace bftbc::quorum {

SignatureSet decode_signature_set(Reader& r) {
  SignatureSet sigs;
  const std::uint64_t count = r.get_varint();
  // Hard cap stops a malicious encoder from claiming 2^60 entries. The
  // cap is a protocol violation, not a truncation point: mark the reader
  // failed so the whole message is rejected instead of silently parsing
  // as "no signatures".
  if (count > kMaxSignatureSetEntries) {
    r.fail();
    return sigs;
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    const ReplicaId replica = r.get_u32();
    Bytes sig = r.get_bytes();
    if (!r.ok()) return {};  // never hand back a partial set
    sigs[replica] = std::move(sig);
  }
  return sigs;
}

Status validate_signature_quorum(const SignatureSet& signatures,
                                 BytesView statement,
                                 const QuorumConfig& config,
                                 const crypto::Keystore& keystore) {
  // A certificate is "a quorum of valid signed statements" (§3.2): count
  // the entries that verify and accept once q distinct replicas are
  // confirmed. Invalid entries — an out-of-range id or a garbage
  // signature a Byzantine node appended alongside an honest quorum — are
  // skipped, never fatal; rejecting outright would let one poisoned
  // entry invalidate an otherwise-valid certificate.
  //
  // The scan stops once q signatures verify, so a certificate carrying
  // n signatures costs q checks when the first q are valid (pinned by
  // CertificateCacheTest.EarlyExitStopsAtQuorum).
  std::uint32_t valid = 0;
  for (const auto& [replica, sig] : signatures) {
    if (valid == config.q) break;
    if (config.valid_replica(replica) &&
        keystore.verify_cached(replica_principal(replica), statement, sig)) {
      ++valid;
    }
  }
  if (valid < config.q)
    return bad_certificate("fewer than a quorum of valid signatures");
  return Status::ok();
}

// ------------------------------------------------------------ prepare

const crypto::Digest& genesis_value_hash() {
  // Computed once: is_genesis() runs on every certificate validation, and
  // hashing the empty value each time was a measurable hot-path tax.
  static const crypto::Digest digest = crypto::sha256(BytesView{});
  return digest;
}

PrepareCertificate PrepareCertificate::genesis(ObjectId object) {
  return PrepareCertificate(object, Timestamp::zero(), genesis_value_hash(),
                            {});
}

bool PrepareCertificate::is_genesis() const {
  return ts_.is_zero() && signatures_.empty() &&
         hash_ == genesis_value_hash();
}

Status PrepareCertificate::validate(const QuorumConfig& config,
                                    const crypto::Keystore& keystore) const {
  if (is_genesis()) return Status::ok();
  if (ts_.is_zero()) return bad_certificate("non-genesis cert with zero ts");
  const Bytes stmt = prepare_reply_statement(object_, ts_, hash_);
  return validate_signature_quorum(signatures_, stmt, config, keystore);
}

PrepareCertificate PrepareCertificate::decode(Reader& r) {
  PrepareCertificate c;
  c.object_ = r.get_u64();
  c.ts_ = wire::get<Timestamp>(r);
  c.hash_ = wire::get<crypto::Digest>(r);
  c.signatures_ = decode_signature_set(r);
  return c;
}

std::string PrepareCertificate::to_string() const {
  return "PrepCert{obj=" + std::to_string(object_) + " ts=" + ts_.to_string() +
         " h=" + hex_prefix(crypto::digest_view(hash_)) +
         " sigs=" + std::to_string(signatures_.size()) + "}";
}

// ------------------------------------------------------------ write

Status WriteCertificate::validate(const QuorumConfig& config,
                                  const crypto::Keystore& keystore) const {
  // A zero-timestamp write certificate is legitimate: in the strong
  // variant (§7) a quorum vouches "the genesis write completed" for the
  // first writer of an object. The quorum requirement below still
  // guards it — an empty signature set never validates.
  const Bytes stmt = write_reply_statement(object_, ts_);
  return validate_signature_quorum(signatures_, stmt, config, keystore);
}

WriteCertificate WriteCertificate::decode(Reader& r) {
  WriteCertificate c;
  c.object_ = r.get_u64();
  c.ts_ = wire::get<Timestamp>(r);
  c.signatures_ = decode_signature_set(r);
  return c;
}

std::string WriteCertificate::to_string() const {
  return "WriteCert{obj=" + std::to_string(object_) +
         " ts=" + ts_.to_string() +
         " sigs=" + std::to_string(signatures_.size()) + "}";
}

}  // namespace bftbc::quorum
