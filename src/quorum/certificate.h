// Certificates: quorums of signed statements vouching for a fact (§3.2).
//
// A *prepare certificate* for (ts, h) is 2f+1 PREPARE-REPLY statements
// from distinct replicas, all for the same timestamp and hash — proof a
// quorum admitted the write intention. A *write certificate* for ts is
// 2f+1 WRITE-REPLY statements — proof the write completed at a quorum.
//
// Certificates are transferable proofs: generated for one client, later
// shown by other clients (a prepare certificate read in phase 1 justifies
// the next client's timestamp choice) or by replicas. Validation is
// therefore entirely self-contained given the quorum configuration and
// the public keys.
//
// The genesis prepare certificate — timestamp 〈0,0〉, hash of the empty
// value, no signatures — is the one conventionally-valid certificate, so
// freshly initialized replicas can answer phase-1 reads.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "crypto/signature.h"
#include "quorum/config.h"
#include "quorum/statements.h"
#include "util/status.h"

namespace bftbc::quorum {

// Signatures keyed by replica id; std::map keeps encoding canonical.
using SignatureSet = std::map<ReplicaId, Bytes>;

class PrepareCertificate {
 public:
  PrepareCertificate() = default;
  PrepareCertificate(ObjectId object, Timestamp ts, crypto::Digest hash,
                     SignatureSet signatures)
      : object_(object),
        ts_(ts),
        hash_(hash),
        signatures_(std::move(signatures)) {}

  // The conventional certificate for the initial state of an object.
  static PrepareCertificate genesis(ObjectId object);
  bool is_genesis() const;

  ObjectId object() const { return object_; }
  const Timestamp& ts() const { return ts_; }          // paper's c.ts
  const crypto::Digest& hash() const { return hash_; } // paper's c.h
  const SignatureSet& signatures() const { return signatures_; }

  // Full validation: quorum-size distinct in-range replicas, every
  // signature verifying over the prepare-reply statement bytes.
  [[nodiscard]] Status validate(const QuorumConfig& config,
                                const crypto::Keystore& keystore) const;

  // W is a Writer, or a SizeCounter (util/codec.h) to size the blob.
  template <typename W>
  void encode(W& w) const;
  static PrepareCertificate decode(Reader& r);

  std::string to_string() const;

  friend bool operator==(const PrepareCertificate& a,
                         const PrepareCertificate& b) {
    return a.object_ == b.object_ && a.ts_ == b.ts_ && a.hash_ == b.hash_ &&
           a.signatures_ == b.signatures_;
  }

 private:
  ObjectId object_ = 0;
  Timestamp ts_;
  crypto::Digest hash_{};
  SignatureSet signatures_;
};

class WriteCertificate {
 public:
  WriteCertificate() = default;
  WriteCertificate(ObjectId object, Timestamp ts, SignatureSet signatures)
      : object_(object), ts_(ts), signatures_(std::move(signatures)) {}

  ObjectId object() const { return object_; }
  const Timestamp& ts() const { return ts_; }
  const SignatureSet& signatures() const { return signatures_; }

  [[nodiscard]] Status validate(const QuorumConfig& config,
                                const crypto::Keystore& keystore) const;

  template <typename W>
  void encode(W& w) const;
  static WriteCertificate decode(Reader& r);

  std::string to_string() const;

  friend bool operator==(const WriteCertificate& a, const WriteCertificate& b) {
    return a.object_ == b.object_ && a.ts_ == b.ts_ &&
           a.signatures_ == b.signatures_;
  }

 private:
  ObjectId object_ = 0;
  Timestamp ts_;
  SignatureSet signatures_;
};

// SHA-256 of the empty value — the hash carried by every genesis prepare
// certificate. Computed once and cached.
const crypto::Digest& genesis_value_hash();

// Helper shared by both certificate classes (and by the baselines):
// accepts iff >= q distinct in-range replicas have *valid* signatures
// over `statement`. Invalid entries are skipped, not fatal — a Byzantine
// node must not be able to poison an honest quorum by appending garbage.
// Verification is memoized through Keystore::verify_cached, and the scan
// stops as soon as q signatures are confirmed.
[[nodiscard]] Status validate_signature_quorum(const SignatureSet& signatures,
                                               BytesView statement,
                                               const QuorumConfig& config,
                                               const crypto::Keystore& keystore);

// Hard upper bound on entries in an encoded signature set; exceeding it
// marks the Reader failed (the message is rejected, not truncated).
inline constexpr std::size_t kMaxSignatureSetEntries = 1024;

template <typename W>
void encode_signature_set(W& w, const SignatureSet& sigs) {
  w.put_varint(sigs.size());
  for (const auto& [replica, sig] : sigs) {
    w.put_u32(replica);
    w.put_bytes(sig);
  }
}
SignatureSet decode_signature_set(Reader& r);

template <typename W>
void PrepareCertificate::encode(W& w) const {
  w.put_u64(object_);
  wire::put(w, ts_);
  wire::put(w, hash_);
  encode_signature_set(w, signatures_);
}

template <typename W>
void WriteCertificate::encode(W& w) const {
  w.put_u64(object_);
  wire::put(w, ts_);
  encode_signature_set(w, signatures_);
}

}  // namespace bftbc::quorum
