#include "bftbc/replica_state.h"

#include <algorithm>

namespace bftbc::core {

std::size_t ObjectState::absorb_write_certificate(const Timestamp& wcert_ts) {
  if (wcert_ts > write_ts_) write_ts_ = wcert_ts;
  std::size_t reclaimed = 0;
  auto gc = [this, &reclaimed](std::map<ClientId, PlistEntry>& list) {
    for (auto it = list.begin(); it != list.end();) {
      if (it->second.t <= write_ts_) {
        it = list.erase(it);
        ++reclaimed;
      } else {
        ++it;
      }
    }
  };
  gc(plist_);
  gc(optlist_);
  return reclaimed;
}

ObjectState::ListOutcome ObjectState::admit(
    std::map<ClientId, PlistEntry>& list, ClientId c, const Timestamp& t,
    const crypto::Digest& h) {
  auto it = list.find(c);
  if (it != list.end()) {
    if (it->second.t != t || it->second.h != h) return ListOutcome::kConflict;
    return ListOutcome::kAlreadyPresent;
  }
  if (!(t > write_ts_)) return ListOutcome::kStale;
  list.emplace(c, PlistEntry{t, h});
  return ListOutcome::kAdmitted;
}

bool ObjectState::try_prepare(ClientId c, const Timestamp& t,
                              const crypto::Digest& h) {
  // Figure 2 phase 2 step 3: one outstanding prepare per client in the
  // NORMAL list (the optimized list is ignored here, §6.2 phase 2).
  const ListOutcome outcome = admit(plist_, c, t, h);
  // kStale (t <= write_ts) still gets a reply: the statement is harmless
  // — no write certificate can form for a timestamp the replica set has
  // already surpassed at this replica's vote... the reply simply repeats
  // an old statement. Figure 2 replies in every non-discard case.
  return outcome != ListOutcome::kConflict;
}

std::optional<Timestamp> ObjectState::try_opt_prepare(ClientId c,
                                                      const crypto::Digest& h) {
  const Timestamp predicted = pcert_.ts().succ(c);

  // A client may occupy at most one slot per list (§6.1); the optimistic
  // prepare is abandoned when the client already holds a *different*
  // entry in either list.
  auto conflicts = [&](const std::map<ClientId, PlistEntry>& list) {
    auto it = list.find(c);
    return it != list.end() &&
           (it->second.t != predicted || it->second.h != h);
  };
  if (conflicts(plist_) || conflicts(optlist_)) return std::nullopt;

  const ListOutcome outcome = admit(optlist_, c, predicted, h);
  if (outcome == ListOutcome::kStale) {
    // This replica's pcert lags behind a write certificate it has seen;
    // a prediction from stale state would be instantly garbage-collected,
    // so fall back to the normal two-phase path.
    return std::nullopt;
  }
  return predicted;
}

bool ObjectState::apply_write(const Bytes& value,
                              const PrepareCertificate& cert,
                              bool optimized_tiebreak) {
  bool newer = cert.ts() > pcert_.ts();
  if (!newer && optimized_tiebreak && cert.ts() == pcert_.ts() &&
      crypto::compare_digests(cert.hash(), pcert_.hash()) > 0) {
    // §6.2 phase 3: same timestamp, different value (possible only with a
    // Byzantine client) — deterministically retain the larger hash.
    newer = true;
  }
  if (!newer) return false;
  data_ = value;
  pcert_ = cert;
  return true;
}

void ObjectState::compact() {
  data_.shrink_to_fit();
}

namespace {

void encode_list(Writer& w, const std::map<ClientId, PlistEntry>& list) {
  w.put_varint(list.size());
  for (const auto& [c, entry] : list) {
    w.put_u32(c);
    wire::put(w, entry.t);
    wire::put(w, entry.h);
  }
}

bool decode_list(Reader& r, std::map<ClientId, PlistEntry>& list) {
  const std::uint64_t count = r.get_varint();
  // Lists hold at most one entry per client; a length beyond any
  // plausible client population means the blob is corrupt.
  constexpr std::uint64_t kMaxListEntries = 1u << 20;
  if (count > kMaxListEntries) {
    r.fail();
    return false;
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    const ClientId c = r.get_u32();
    PlistEntry entry;
    entry.t = wire::get<Timestamp>(r);
    entry.h = wire::get<crypto::Digest>(r);
    if (!r.ok()) return false;
    list.emplace(c, entry);
  }
  return true;
}

}  // namespace

void ObjectState::encode(Writer& w) const {
  w.put_u64(object_);
  w.put_bytes(data_);
  pcert_.encode(w);
  encode_list(w, plist_);
  encode_list(w, optlist_);
  wire::put(w, write_ts_);
}

std::optional<ObjectState> ObjectState::decode(Reader& r) {
  ObjectState state(r.get_u64());
  state.data_ = r.get_bytes();
  state.pcert_ = PrepareCertificate::decode(r);
  if (!decode_list(r, state.plist_)) return std::nullopt;
  if (!decode_list(r, state.optlist_)) return std::nullopt;
  state.write_ts_ = wire::get<Timestamp>(r);
  if (!r.ok()) return std::nullopt;
  return state;
}

ObjectState ObjectState::recover(ObjectId object,
                                 const std::vector<ObjectState>& peers,
                                 std::uint32_t f) {
  ObjectState out(object);
  for (const ObjectState& p : peers) {
    if (p.pcert_.ts() > out.pcert_.ts()) {
      out.pcert_ = p.pcert_;
      out.data_ = p.data_;
    }
  }
  for (const ObjectState& p : peers) {
    for (const auto& [c, entry] : p.plist_) out.plist_.emplace(c, entry);
    for (const auto& [c, entry] : p.optlist_) out.optlist_.emplace(c, entry);
  }
  std::vector<Timestamp> claims;
  claims.reserve(peers.size());
  for (const ObjectState& p : peers) claims.push_back(p.write_ts_);
  std::sort(claims.begin(), claims.end(),
            [](const Timestamp& a, const Timestamp& b) { return b < a; });
  if (claims.size() > f) {
    // absorb also GCs entries at or below the adopted frontier, exactly
    // as a live write certificate would have.
    (void)out.absorb_write_certificate(claims[f]);
  }
  return out;
}

std::size_t ObjectState::state_bytes() const {
  std::size_t total = data_.size();
  // Prepare certificate: timestamp + hash + signatures.
  total += sizeof(Timestamp) + crypto::kDigestSize;
  for (const auto& [r, sig] : pcert_.signatures()) {
    total += sizeof(r) + sig.size();
  }
  const std::size_t per_entry =
      sizeof(ClientId) + sizeof(Timestamp) + crypto::kDigestSize;
  total += (plist_.size() + optlist_.size()) * per_entry;
  total += sizeof(Timestamp);  // write_ts
  return total;
}

}  // namespace bftbc::core
