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

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <string>

#include "crypto/signature.h"
#include "quorum/config.h"
#include "quorum/statements.h"
#include "util/status.h"

namespace bftbc::quorum {

// Signatures keyed by replica id, as clients, tests and benches assemble
// them; std::map keeps encoding canonical.
using SignatureSet = std::map<ReplicaId, Bytes>;

// A certificate's signature set, stored as its canonical wire bytes in
// one exactly sized buffer: varint count, then per entry LE32 replica and
// a varint-prefixed signature, replica ids strictly increasing (the
// encoding of the equal SignatureSet). The empty set is an empty buffer.
// Read-only; iterating yields (replica, signature) entries in id order.
// One allocation per certificate copy, where a SignatureSet costs a map
// node and a signature buffer per entry (DESIGN §5).
class FlatSignatureSet {
 public:
  struct Entry {
    ReplicaId replica = 0;
    BytesView sig;
  };

  class Iterator {
   public:
    using value_type = Entry;
    using difference_type = std::ptrdiff_t;
    using reference = const Entry&;
    using pointer = const Entry*;
    using iterator_category = std::forward_iterator_tag;

    Iterator() = default;
    reference operator*() const { return entry_; }
    pointer operator->() const { return &entry_; }
    Iterator& operator++();
    Iterator operator++(int) {
      Iterator before = *this;
      ++*this;
      return before;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.at_ == b.at_;
    }

   private:
    friend class FlatSignatureSet;
    Iterator(const std::uint8_t* at, const std::uint8_t* end);
    // Parses the entry at at_ (none at end_).
    void load();

    const std::uint8_t* at_ = nullptr;
    const std::uint8_t* end_ = nullptr;
    Entry entry_;
  };

  FlatSignatureSet() = default;
  explicit FlatSignatureSet(const SignatureSet& sigs);

  Iterator begin() const;
  Iterator end() const;
  std::size_t size() const;
  bool empty() const { return wire_.empty(); }
  // A mutable copy, for code that assembles a new set from this one.
  SignatureSet to_set() const;

  template <typename W>
  void encode(W& w) const;
  // Same verdict and the same set as decode_signature_set: ids sorted,
  // the last entry of a repeated id kept, the reader failed (and the set
  // empty) past kMaxSignatureSetEntries or on a truncated entry.
  static FlatSignatureSet decode(Reader& r);

  friend bool operator==(const FlatSignatureSet&,
                         const FlatSignatureSet&) = default;

 private:
  Bytes wire_;
};

class PrepareCertificate {
 public:
  PrepareCertificate() = default;
  PrepareCertificate(ObjectId object, Timestamp ts, crypto::Digest hash,
                     const SignatureSet& signatures)
      : object_(object), ts_(ts), hash_(hash), signatures_(signatures) {}

  // The conventional certificate for the initial state of an object.
  static PrepareCertificate genesis(ObjectId object);
  bool is_genesis() const;

  ObjectId object() const { return object_; }
  const Timestamp& ts() const { return ts_; }          // paper's c.ts
  const crypto::Digest& hash() const { return hash_; } // paper's c.h
  const FlatSignatureSet& signatures() const { return signatures_; }

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
  FlatSignatureSet signatures_;
};

class WriteCertificate {
 public:
  WriteCertificate() = default;
  WriteCertificate(ObjectId object, Timestamp ts,
                   const SignatureSet& signatures)
      : object_(object), ts_(ts), signatures_(signatures) {}

  ObjectId object() const { return object_; }
  const Timestamp& ts() const { return ts_; }
  const FlatSignatureSet& signatures() const { return signatures_; }

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
  FlatSignatureSet signatures_;
};

// SHA-256 of the empty value — the hash carried by every genesis prepare
// certificate. Computed once and cached.
const crypto::Digest& genesis_value_hash();

// Helper shared by both certificate classes: accepts iff >= q distinct
// in-range replicas have *valid* signatures over `statement`. Invalid
// entries are skipped, not fatal — a Byzantine node must not be able to
// poison an honest quorum by appending garbage. Verification is memoized
// through Keystore::verify_cached, and the scan stops as soon as q
// signatures are confirmed.
[[nodiscard]] Status validate_signature_quorum(
    const FlatSignatureSet& signatures, BytesView statement,
    const QuorumConfig& config, const crypto::Keystore& keystore);

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
// The map decoder: the reference FlatSignatureSet::decode is held to.
SignatureSet decode_signature_set(Reader& r);

template <typename W>
void FlatSignatureSet::encode(W& w) const {
  if (wire_.empty()) {
    w.put_varint(0);
  } else {
    w.put_raw(wire_);
  }
}

template <typename W>
void PrepareCertificate::encode(W& w) const {
  w.put_u64(object_);
  wire::put(w, ts_);
  wire::put(w, hash_);
  signatures_.encode(w);
}

template <typename W>
void WriteCertificate::encode(W& w) const {
  w.put_u64(object_);
  wire::put(w, ts_);
  signatures_.encode(w);
}

}  // namespace bftbc::quorum
