// BFT-BC wire message bodies (paper §3.2, Figures 1–2, and §6.2).
//
// Each struct mirrors one message of the protocol and lists its fields
// once, in wire order; wire::Message (util/codec.h) derives its encode()
// and decode() from that list. Where the paper requires authentication,
// a hand-written `signing_payload()` returns the exact bytes the sender
// signs: a signed statement, not the wire layout (WRITE and READ-REPLY
// sign h(value), READ-TS-PREP leaves out its nonce). Signing payloads are
// domain-separated by an AuthTag so a signature can never be replayed
// across message kinds.
//
// Authentication inventory (§3.3.2):
//  - PREPARE-REPLY and WRITE-REPLY carry *public-key* signatures over
//    statement bytes (quorum/statements.h) — they are certificate
//    components shown to third parties.
//  - READ-TS-REPLY / READ-REPLY / READ-TS-PREP-REPLY authentication is
//    point-to-point (only the requesting client checks it), so a MAC
//    would do; we still route it through the Keystore but replicas count
//    it separately ("auth_p2p") for the cost experiments.
//  - PREPARE / WRITE / READ-TS-PREP are signed by the client.
#pragma once

#include <optional>
#include <vector>

#include "crypto/nonce.h"
#include "crypto/sha256.h"
#include "quorum/certificate.h"
#include "rpc/message.h"

namespace bftbc::core {

using quorum::ObjectId;
using quorum::PrepareCertificate;
using quorum::ReplicaId;
using quorum::Timestamp;
using quorum::WriteCertificate;

// Domain tags for signing payloads that are not certificate statements.
enum class AuthTag : std::uint8_t {
  kReadTsReply = 0x10,
  kPrepare = 0x11,
  kWrite = 0x12,
  kReadReply = 0x13,
  kReadTsPrep = 0x14,
  kReadTsPrepReply = 0x15,
  kReplyBatch = 0x16,
};

// ---------------------------------------------------------------------
// Write phase 1: 〈READ-TS, nonce〉  (unauthenticated request)

struct ReadTsRequest : wire::Message<ReadTsRequest> {
  ObjectId object = 0;
  crypto::Nonce nonce;

  static auto fields(auto& m) { return std::tie(m.object, m.nonce); }
};

// 〈READ-TS-REPLY, Pcert, nonce〉σr. In strong mode (§7) the reply also
// carries the replica's signature over the WRITE-REPLY statement for
// Pcert.ts, letting a client whose phase-1 replies all agree assemble a
// write certificate without extra communication.
struct ReadTsReply : wire::Message<ReadTsReply> {
  ObjectId object = 0;
  crypto::Nonce nonce;
  PrepareCertificate pcert;
  Bytes strong_write_sig;  // empty unless strong mode
  ReplicaId replica = 0;
  Bytes auth;  // point-to-point authenticator by the replica

  static auto fields(auto& m) {
    return std::tie(m.object, m.nonce, m.pcert, m.strong_write_sig,
                    m.replica, m.auth);
  }
  Bytes signing_payload() const;
};

// ---------------------------------------------------------------------
// Write phase 2: 〈PREPARE, Pmax, t, h(val), Wcert〉σc

struct PrepareRequest : wire::Message<PrepareRequest> {
  ObjectId object = 0;
  Timestamp t;
  crypto::Digest hash{};
  PrepareCertificate prep_cert;              // Pmax justifying t
  std::optional<WriteCertificate> write_cert;  // client's last write (or null)
  quorum::ClientId client = 0;
  Bytes sig;

  static auto fields(auto& m) {
    return std::tie(m.object, m.t, m.hash, m.prep_cert, m.write_cert,
                    m.client, m.sig);
  }
  Bytes signing_payload() const;
};

// 〈PREPARE-REPLY, t, h〉σr — a certificate component; sig covers the
// statement bytes from quorum/statements.h.
struct PrepareReply : wire::Message<PrepareReply> {
  ObjectId object = 0;
  Timestamp t;
  crypto::Digest hash{};
  ReplicaId replica = 0;
  Bytes sig;

  static auto fields(auto& m) {
    return std::tie(m.object, m.t, m.hash, m.replica, m.sig);
  }
};

// ---------------------------------------------------------------------
// Write phase 3: 〈WRITE, val, Pnew〉σc

struct WriteRequest : wire::Message<WriteRequest> {
  ObjectId object = 0;
  Bytes value;
  PrepareCertificate prep_cert;  // Pnew
  quorum::ClientId client = 0;   // the signer (reader during write-back)
  Bytes sig;

  static auto fields(auto& m) {
    return std::tie(m.object, m.value, m.prep_cert, m.client, m.sig);
  }
  // Signs h(value); `value_hash` must be sha256(value). Callers that
  // already hold the digest pass it, so a value is hashed once per
  // message; the overload without it hashes the value itself.
  Bytes signing_payload(const crypto::Digest& value_hash) const;
  Bytes signing_payload() const {
    return signing_payload(crypto::sha256(value));
  }
};

// 〈WRITE-REPLY, t〉σr — certificate component.
struct WriteReply : wire::Message<WriteReply> {
  ObjectId object = 0;
  Timestamp ts;
  ReplicaId replica = 0;
  Bytes sig;

  static auto fields(auto& m) {
    return std::tie(m.object, m.ts, m.replica, m.sig);
  }
};

// ---------------------------------------------------------------------
// Read: 〈READ, nonce〉
//
// Optionally carries the reader's last write certificate — the §3.3.1
// speed-up ("we could speed up removing entries from the list if we
// propagated write certificates in more messages, e.g., in read
// requests"); replicas absorb it for prepare-list GC exactly as in
// phase 2. Enabled by ClientOptions::gc_in_reads (ablated in bench E5).

struct ReadRequest : wire::Message<ReadRequest> {
  ObjectId object = 0;
  crypto::Nonce nonce;
  std::optional<WriteCertificate> write_cert;

  static auto fields(auto& m) {
    return std::tie(m.object, m.nonce, m.write_cert);
  }
};

// Reply with value, prepare certificate, and nonce, authenticated by the
// replica (point-to-point).
struct ReadReply : wire::Message<ReadReply> {
  ObjectId object = 0;
  Bytes value;
  PrepareCertificate pcert;
  crypto::Nonce nonce;
  ReplicaId replica = 0;
  Bytes auth;

  static auto fields(auto& m) {
    return std::tie(m.object, m.value, m.pcert, m.nonce, m.replica,
                    m.auth);
  }
  // Authenticates h(value); `value_hash` must be sha256(value), as for
  // WriteRequest.
  Bytes signing_payload(const crypto::Digest& value_hash) const;
  Bytes signing_payload() const {
    return signing_payload(crypto::sha256(value));
  }
};

// ---------------------------------------------------------------------
// Optimized write phase 1 (§6.2): 〈READ-TS-PREP, h, Wcert〉σc

struct ReadTsPrepRequest : wire::Message<ReadTsPrepRequest> {
  ObjectId object = 0;
  crypto::Digest hash{};
  std::optional<WriteCertificate> write_cert;
  crypto::Nonce nonce;
  quorum::ClientId client = 0;
  Bytes sig;

  static auto fields(auto& m) {
    return std::tie(m.object, m.hash, m.write_cert, m.nonce, m.client,
                    m.sig);
  }
  Bytes signing_payload() const;
};

// Reply: always the replica's current Pcert (the normal phase-1 answer);
// when the optimistic prepare succeeded, additionally the predicted
// timestamp and the PREPARE-REPLY statement signature for (t', h) —
// exactly the component a prepare certificate needs. Strong mode also
// piggybacks the write-statement signature as in ReadTsReply.
struct ReadTsPrepReply : wire::Message<ReadTsPrepReply> {
  ObjectId object = 0;
  crypto::Nonce nonce;
  PrepareCertificate pcert;
  bool prepared = false;
  Timestamp predicted_t;
  crypto::Digest hash{};
  Bytes prepare_sig;       // statement sig when prepared
  Bytes strong_write_sig;  // strong mode only
  ReplicaId replica = 0;
  Bytes auth;

  static auto fields(auto& m) {
    return std::tie(m.object, m.nonce, m.pcert, m.prepared,
                    m.predicted_t, m.hash, m.prepare_sig,
                    m.strong_write_sig, m.replica, m.auth);
  }
  Bytes signing_payload() const;
};

// ---------------------------------------------------------------------
// Reply batch: 〈REPLY-BATCH, replies…〉σr
//
// When a replica's same-tick batch holds several point-to-point
// authenticated requests from one client (READ-TS / READ /
// READ-TS-PREP), it amortizes reply signing: the per-reply `auth`
// fields stay empty and the bundled replies ship under a single
// authenticator covering every reply — including each echoed nonce, so
// freshness is exactly what the per-reply MACs gave. Certificate-
// component signatures (PREPARE-REPLY / WRITE-REPLY statements) are
// shown to third parties and are never amortized this way.

struct ReplyBatch : wire::Message<ReplyBatch> {
  ReplicaId replica = 0;
  std::vector<Bytes> replies;  // encoded rpc::Envelopes
  Bytes auth;                  // point-to-point authenticator by the replica

  static auto fields(auto& m) { return std::tie(m.replica, m.replies, m.auth); }
  Bytes signing_payload() const;
};

// ---------------------------------------------------------------------
// Crash recovery: 〈STATE-XFER, object, nonce〉 (unauthenticated request)
//
// A restarting replica rebuilds each object's state from its peers.
// Like READ, the request needs no signature: replies are self-verifying
// — the interesting content is a prepare certificate the recovering
// replica validates itself, and prepare-list entries are only adopted
// when they appear in a quorum's worth of replies (Lemma 1: any
// certified prepare is held by at least f+1 correct replicas, so it
// shows up in any 2f+1 replies).

struct StateXferRequest : wire::Message<StateXferRequest> {
  ObjectId object = 0;
  crypto::Nonce nonce;

  static auto fields(auto& m) { return std::tie(m.object, m.nonce); }
};

// Reply carrying the replica's full serialized ObjectState (value,
// Pcert, both prepare lists, last write ts) as an opaque blob the
// recovering replica decodes and cross-validates against the quorum.
struct StateXferReply : wire::Message<StateXferReply> {
  ObjectId object = 0;
  crypto::Nonce nonce;
  Bytes state;  // ObjectState::encode blob
  ReplicaId replica = 0;

  static auto fields(auto& m) {
    return std::tie(m.object, m.nonce, m.state, m.replica);
  }
};

}  // namespace bftbc::core
