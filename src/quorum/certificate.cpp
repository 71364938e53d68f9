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

// ------------------------------------------------------------ flat set

namespace {

// put_varint's LEB128, read back from a buffer this file wrote.
std::uint64_t read_varint(const std::uint8_t*& at) {
  std::uint64_t v = 0;
  for (int shift = 0;; shift += 7) {
    const std::uint8_t b = *at++;
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
  }
}

// Bytes an entry of `sig` takes in the canonical buffer.
std::size_t entry_size(BytesView sig) {
  return 4 + varint_size(sig.size()) + sig.size();
}

// The canonical buffer of a map from replica id to signature, sized
// exactly.
template <typename Map>
Bytes canonical_wire(const Map& entries) {
  if (entries.empty()) return {};
  std::size_t bytes = varint_size(entries.size());
  for (const auto& [replica, sig] : entries) bytes += entry_size(sig);
  Writer w;
  w.reserve(bytes);
  w.put_varint(entries.size());
  for (const auto& [replica, sig] : entries) {
    w.put_u32(replica);
    w.put_bytes(sig);
  }
  return std::move(w).take();
}

}  // namespace

FlatSignatureSet::Iterator::Iterator(const std::uint8_t* at,
                                     const std::uint8_t* end)
    : at_(at), end_(end) {
  load();
}

void FlatSignatureSet::Iterator::load() {
  if (at_ == end_) return;
  const std::uint8_t* p = at_;
  entry_.replica = static_cast<ReplicaId>(p[0]) |
                   static_cast<ReplicaId>(p[1]) << 8 |
                   static_cast<ReplicaId>(p[2]) << 16 |
                   static_cast<ReplicaId>(p[3]) << 24;
  p += 4;
  const std::uint64_t len = read_varint(p);
  entry_.sig = BytesView(p, static_cast<std::size_t>(len));
}

FlatSignatureSet::Iterator& FlatSignatureSet::Iterator::operator++() {
  at_ = entry_.sig.data() + entry_.sig.size();
  load();
  return *this;
}

FlatSignatureSet::FlatSignatureSet(const SignatureSet& sigs)
    : wire_(canonical_wire(sigs)) {}

FlatSignatureSet::Iterator FlatSignatureSet::begin() const {
  if (wire_.empty()) return end();
  const std::uint8_t* at = wire_.data();
  (void)read_varint(at);
  return Iterator(at, wire_.data() + wire_.size());
}

FlatSignatureSet::Iterator FlatSignatureSet::end() const {
  const std::uint8_t* stop = wire_.data() + wire_.size();
  return Iterator(stop, stop);
}

std::size_t FlatSignatureSet::size() const {
  if (wire_.empty()) return 0;
  const std::uint8_t* at = wire_.data();
  return static_cast<std::size_t>(read_varint(at));
}

SignatureSet FlatSignatureSet::to_set() const {
  SignatureSet out;
  for (const auto& [replica, sig] : *this) {
    out.emplace_hint(out.end(), replica, Bytes(sig.begin(), sig.end()));
  }
  return out;
}

FlatSignatureSet FlatSignatureSet::decode(Reader& r) {
  // A dry run on a copy of the reader finds the verdict, the buffer size
  // and whether the ids already arrive strictly increasing, so the
  // common case copies the entries straight into their buffer.
  Reader probe = r;
  const std::uint64_t count = probe.get_varint();
  if (count > kMaxSignatureSetEntries) {
    r = probe;
    r.fail();
    return {};
  }
  bool sorted = true;
  ReplicaId last = 0;
  std::size_t bytes = varint_size(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const ReplicaId replica = probe.get_u32();
    bytes += entry_size(probe.get_bytes_view());
    if (!probe.ok()) {
      r = probe;
      return {};  // never hand back a partial set
    }
    if (i != 0 && replica <= last) sorted = false;
    last = replica;
  }
  FlatSignatureSet out;
  (void)r.get_varint();
  if (sorted) {
    if (count == 0) return out;
    Writer w;
    w.reserve(bytes);
    w.put_varint(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      w.put_u32(r.get_u32());
      w.put_bytes(r.get_bytes_view());
    }
    out.wire_ = std::move(w).take();
    return out;
  }
  // Repeated or unordered ids: the map decoder's set, last entry winning.
  std::map<ReplicaId, BytesView> latest;
  for (std::uint64_t i = 0; i < count; ++i) {
    const ReplicaId replica = r.get_u32();
    latest[replica] = r.get_bytes_view();
  }
  out.wire_ = canonical_wire(latest);
  return out;
}

Status validate_signature_quorum(const FlatSignatureSet& signatures,
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
  c.signatures_ = FlatSignatureSet::decode(r);
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
  c.signatures_ = FlatSignatureSet::decode(r);
  return c;
}

std::string WriteCertificate::to_string() const {
  return "WriteCert{obj=" + std::to_string(object_) +
         " ts=" + ts_.to_string() +
         " sigs=" + std::to_string(signatures_.size()) + "}";
}

}  // namespace bftbc::quorum
