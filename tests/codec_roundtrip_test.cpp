// Property-based codec round-trips for every protocol message and
// certificate: randomly populated instances must encode → decode →
// encode byte-identically, and any strict prefix of a valid encoding
// must fail to decode (never crash, never half-succeed) — the wire
// format has no optional tail a truncation could silently drop.
#include <gtest/gtest.h>

#include <optional>

#include "bftbc/messages.h"
#include "bftbc/replica_state.h"
#include "quorum/certificate.h"
#include "util/codec.h"
#include "util/hex.h"
#include "util/rng.h"

namespace bftbc::core {
namespace {

Bytes random_bytes(Rng& rng, std::size_t max_len) {
  Bytes b(rng.next_below(max_len + 1));
  for (auto& byte : b) byte = static_cast<std::uint8_t>(rng.next_u64());
  return b;
}

crypto::Digest random_digest(Rng& rng) {
  crypto::Digest d{};
  for (auto& byte : d) byte = static_cast<std::uint8_t>(rng.next_u64());
  return d;
}

crypto::Nonce random_nonce(Rng& rng) {
  crypto::Nonce n;
  n.principal = rng.next_u32();
  n.counter = rng.next_u64();
  n.random = rng.next_u64();
  return n;
}

Timestamp random_ts(Rng& rng) {
  return Timestamp{rng.next_below(1 << 20), rng.next_u32()};
}

quorum::SignatureSet random_sigset(Rng& rng) {
  quorum::SignatureSet set;
  const std::size_t count = rng.next_below(4);
  for (std::size_t i = 0; i < count; ++i) {
    const auto replica = static_cast<quorum::ReplicaId>(rng.next_below(7));
    set[replica] = random_bytes(rng, 48);
  }
  return set;
}

// Each draw is a named local: C++ leaves the evaluation order of function
// arguments unspecified, so draws inside one argument list would make the
// same seed give different values under different compilers.
PrepareCertificate random_pcert(Rng& rng) {
  const std::uint64_t object = rng.next_u64();
  const Timestamp ts = random_ts(rng);
  const crypto::Digest hash = random_digest(rng);
  return PrepareCertificate(object, ts, hash, random_sigset(rng));
}

WriteCertificate random_wcert(Rng& rng) {
  const std::uint64_t object = rng.next_u64();
  const Timestamp ts = random_ts(rng);
  return WriteCertificate(object, ts, random_sigset(rng));
}

std::optional<WriteCertificate> random_opt_wcert(Rng& rng) {
  if (rng.next_bool(0.5)) return std::nullopt;
  return random_wcert(rng);
}

// For each message type: encode a random instance, decode it, re-encode,
// compare bytes; then check every strict prefix fails to decode.
template <typename Msg>
void check_roundtrip_and_truncation(const Msg& msg) {
  const Bytes wire = msg.encode();
  const auto decoded = Msg::decode(BytesView(wire.data(), wire.size()));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->encode(), wire);
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    EXPECT_FALSE(
        Msg::decode(BytesView(wire.data(), cut)).has_value())
        << "prefix of length " << cut << "/" << wire.size() << " decoded";
  }
}

TEST(CodecRoundtripTest, AllMessagesRoundTripAndRejectTruncation) {
  Rng rng(20260806);
  for (int iter = 0; iter < 40; ++iter) {
    {
      ReadTsRequest m;
      m.object = rng.next_u64();
      m.nonce = random_nonce(rng);
      check_roundtrip_and_truncation(m);
    }
    {
      ReadTsReply m;
      m.object = rng.next_u64();
      m.nonce = random_nonce(rng);
      m.pcert = random_pcert(rng);
      m.strong_write_sig = random_bytes(rng, 40);
      m.replica = rng.next_u32();
      m.auth = random_bytes(rng, 40);
      check_roundtrip_and_truncation(m);
    }
    {
      PrepareRequest m;
      m.object = rng.next_u64();
      m.t = random_ts(rng);
      m.hash = random_digest(rng);
      m.prep_cert = random_pcert(rng);
      m.write_cert = random_opt_wcert(rng);
      m.client = rng.next_u32();
      m.sig = random_bytes(rng, 40);
      check_roundtrip_and_truncation(m);
    }
    {
      PrepareReply m;
      m.object = rng.next_u64();
      m.t = random_ts(rng);
      m.hash = random_digest(rng);
      m.replica = rng.next_u32();
      m.sig = random_bytes(rng, 40);
      check_roundtrip_and_truncation(m);
    }
    {
      WriteRequest m;
      m.object = rng.next_u64();
      m.value = random_bytes(rng, 64);
      m.prep_cert = random_pcert(rng);
      m.client = rng.next_u32();
      m.sig = random_bytes(rng, 40);
      check_roundtrip_and_truncation(m);
    }
    {
      WriteReply m;
      m.object = rng.next_u64();
      m.ts = random_ts(rng);
      m.replica = rng.next_u32();
      m.sig = random_bytes(rng, 40);
      check_roundtrip_and_truncation(m);
    }
    {
      ReadRequest m;
      m.object = rng.next_u64();
      m.nonce = random_nonce(rng);
      m.write_cert = random_opt_wcert(rng);
      check_roundtrip_and_truncation(m);
    }
    {
      ReadReply m;
      m.object = rng.next_u64();
      m.value = random_bytes(rng, 64);
      m.pcert = random_pcert(rng);
      m.nonce = random_nonce(rng);
      m.replica = rng.next_u32();
      m.auth = random_bytes(rng, 40);
      check_roundtrip_and_truncation(m);
    }
    {
      ReadTsPrepRequest m;
      m.object = rng.next_u64();
      m.hash = random_digest(rng);
      m.write_cert = random_opt_wcert(rng);
      m.nonce = random_nonce(rng);
      m.client = rng.next_u32();
      m.sig = random_bytes(rng, 40);
      check_roundtrip_and_truncation(m);
    }
    {
      ReadTsPrepReply m;
      m.object = rng.next_u64();
      m.nonce = random_nonce(rng);
      m.pcert = random_pcert(rng);
      m.prepared = rng.next_bool(0.5);
      m.predicted_t = random_ts(rng);
      m.hash = random_digest(rng);
      m.prepare_sig = random_bytes(rng, 40);
      m.strong_write_sig = random_bytes(rng, 40);
      m.replica = rng.next_u32();
      m.auth = random_bytes(rng, 40);
      check_roundtrip_and_truncation(m);
    }
    {
      ReplyBatch m;
      m.replica = rng.next_u32();
      const std::size_t count = rng.next_below(4);
      for (std::size_t i = 0; i < count; ++i) {
        m.replies.push_back(random_bytes(rng, 48));
      }
      m.auth = random_bytes(rng, 40);
      check_roundtrip_and_truncation(m);
    }
  }
}

// Certificates encode through Writer/Reader rather than standalone
// buffers; decoding a truncated stream must trip the Reader's fail bit
// and never fabricate signatures.
TEST(CodecRoundtripTest, CertificatesRoundTripThroughWriterReader) {
  Rng rng(31415926);
  for (int iter = 0; iter < 60; ++iter) {
    const PrepareCertificate pc = random_pcert(rng);
    Writer w;
    pc.encode(w);
    const Bytes wire = std::move(w).take();
    Reader r(BytesView(wire.data(), wire.size()));
    const PrepareCertificate back = PrepareCertificate::decode(r);
    ASSERT_TRUE(r.done());
    EXPECT_EQ(back, pc);

    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
      Reader rt(BytesView(wire.data(), cut));
      (void)PrepareCertificate::decode(rt);  // must not crash
      EXPECT_FALSE(rt.done()) << "prefix " << cut << " decoded cleanly";
    }

    const WriteCertificate wc = random_wcert(rng);
    Writer w2;
    wc.encode(w2);
    const Bytes wire2 = std::move(w2).take();
    Reader r2(BytesView(wire2.data(), wire2.size()));
    const WriteCertificate back2 = WriteCertificate::decode(r2);
    ASSERT_TRUE(r2.done());
    EXPECT_EQ(back2, wc);
  }
}

// Random single-byte corruptions must never crash the decoder; they may
// legitimately still decode (a flipped bit inside a value payload), so
// only absence-of-crash and re-encode consistency are asserted.
TEST(CodecRoundtripTest, RandomCorruptionNeverCrashes) {
  Rng rng(27182818);
  for (int iter = 0; iter < 200; ++iter) {
    PrepareRequest m;
    m.object = rng.next_u64();
    m.t = random_ts(rng);
    m.hash = random_digest(rng);
    m.prep_cert = random_pcert(rng);
    m.write_cert = random_opt_wcert(rng);
    m.client = rng.next_u32();
    m.sig = random_bytes(rng, 40);
    Bytes wire = m.encode();
    const std::size_t pos = rng.next_below(wire.size());
    wire[pos] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    const auto decoded =
        PrepareRequest::decode(BytesView(wire.data(), wire.size()));
    if (decoded.has_value()) {
      // If it decodes, re-encoding must be stable (no partially-read
      // state leaking into the struct).
      const Bytes re = decoded->encode();
      EXPECT_EQ(re, decoded->encode());
    }
  }
}

// Pins the wire format itself. A reordered or retyped field still round-
// trips and keeps every protocol count, so only pinned bytes catch it:
// this hashes a fixed-seed sample of every message's encoding and signing
// payload, both certificates' raw encodings (their blob form sits inside
// the message encodings) and ObjectState's cold-store / STATE-XFER blob.
// A deliberate format change must update the constant.
TEST(CodecRoundtripTest, WireFormatDigestIsPinned) {
  Rng rng(20261019);
  Writer sink;  // every sampled byte string, length-prefixed
  auto add = [&](const Bytes& b) { sink.put_bytes(b); };
  for (int iter = 0; iter < 16; ++iter) {
    {
      ReadTsRequest m;
      m.object = rng.next_u64();
      m.nonce = random_nonce(rng);
      add(m.encode());
    }
    {
      ReadTsReply m;
      m.object = rng.next_u64();
      m.nonce = random_nonce(rng);
      m.pcert = random_pcert(rng);
      m.strong_write_sig = random_bytes(rng, 40);
      m.replica = rng.next_u32();
      m.auth = random_bytes(rng, 40);
      add(m.encode());
      add(m.signing_payload());
    }
    {
      PrepareRequest m;
      m.object = rng.next_u64();
      m.t = random_ts(rng);
      m.hash = random_digest(rng);
      m.prep_cert = random_pcert(rng);
      m.write_cert = random_opt_wcert(rng);
      m.client = rng.next_u32();
      m.sig = random_bytes(rng, 40);
      add(m.encode());
      add(m.signing_payload());
    }
    {
      PrepareReply m;
      m.object = rng.next_u64();
      m.t = random_ts(rng);
      m.hash = random_digest(rng);
      m.replica = rng.next_u32();
      m.sig = random_bytes(rng, 40);
      add(m.encode());
    }
    {
      WriteRequest m;
      m.object = rng.next_u64();
      m.value = random_bytes(rng, 64);
      m.prep_cert = random_pcert(rng);
      m.client = rng.next_u32();
      m.sig = random_bytes(rng, 40);
      add(m.encode());
      add(m.signing_payload());
    }
    {
      WriteReply m;
      m.object = rng.next_u64();
      m.ts = random_ts(rng);
      m.replica = rng.next_u32();
      m.sig = random_bytes(rng, 40);
      add(m.encode());
    }
    {
      ReadRequest m;
      m.object = rng.next_u64();
      m.nonce = random_nonce(rng);
      m.write_cert = random_opt_wcert(rng);
      add(m.encode());
    }
    {
      ReadReply m;
      m.object = rng.next_u64();
      m.value = random_bytes(rng, 64);
      m.pcert = random_pcert(rng);
      m.nonce = random_nonce(rng);
      m.replica = rng.next_u32();
      m.auth = random_bytes(rng, 40);
      add(m.encode());
      add(m.signing_payload());
    }
    {
      ReadTsPrepRequest m;
      m.object = rng.next_u64();
      m.hash = random_digest(rng);
      m.write_cert = random_opt_wcert(rng);
      m.nonce = random_nonce(rng);
      m.client = rng.next_u32();
      m.sig = random_bytes(rng, 40);
      add(m.encode());
      add(m.signing_payload());
    }
    {
      ReadTsPrepReply m;
      m.object = rng.next_u64();
      m.nonce = random_nonce(rng);
      m.pcert = random_pcert(rng);
      m.prepared = rng.next_bool(0.5);
      m.predicted_t = random_ts(rng);
      m.hash = random_digest(rng);
      m.prepare_sig = random_bytes(rng, 40);
      m.strong_write_sig = random_bytes(rng, 40);
      m.replica = rng.next_u32();
      m.auth = random_bytes(rng, 40);
      add(m.encode());
      add(m.signing_payload());
    }
    {
      ReplyBatch m;
      m.replica = rng.next_u32();
      const std::size_t count = rng.next_below(4);
      for (std::size_t i = 0; i < count; ++i) {
        m.replies.push_back(random_bytes(rng, 48));
      }
      m.auth = random_bytes(rng, 40);
      add(m.encode());
      add(m.signing_payload());
    }
    {
      StateXferRequest m;
      m.object = rng.next_u64();
      m.nonce = random_nonce(rng);
      add(m.encode());
    }
    {
      StateXferReply m;
      m.object = rng.next_u64();
      m.nonce = random_nonce(rng);
      m.state = random_bytes(rng, 64);
      m.replica = rng.next_u32();
      add(m.encode());
    }
    {
      Writer w;
      random_pcert(rng).encode(w);
      random_wcert(rng).encode(w);
      add(w.data());
    }
    {
      ObjectState st(rng.next_u64());
      const Bytes value = random_bytes(rng, 64);
      (void)st.apply_write(value, random_pcert(rng),
                           /*optimized_tiebreak=*/false);
      for (int i = 0; i < 3; ++i) {
        const auto client = static_cast<ClientId>(rng.next_below(8));
        const Timestamp t = random_ts(rng);
        (void)st.try_prepare(client, t, random_digest(rng));
      }
      const auto opt_client = static_cast<ClientId>(8 + rng.next_below(8));
      (void)st.try_opt_prepare(opt_client, random_digest(rng));
      (void)st.absorb_write_certificate(
          Timestamp{rng.next_below(1 << 19), 0});
      Writer w;
      st.encode(w);
      add(w.data());
    }
  }
  EXPECT_EQ(to_hex(crypto::sha256(sink.data())),
            "3c8be07ecc7ca4402d042020400f534523894f8dee19a418e1cd8966a5922ee3");
}

}  // namespace
}  // namespace bftbc::core
