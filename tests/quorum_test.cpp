// Unit tests for timestamps, quorum configs, statements, certificates.
#include <gtest/gtest.h>

#include <algorithm>

#include "quorum/certificate.h"
#include "util/rng.h"

namespace bftbc::quorum {
namespace {

// ------------------------------------------------------------ timestamp

TEST(TimestampTest, ZeroAndSucc) {
  Timestamp z = Timestamp::zero();
  EXPECT_TRUE(z.is_zero());
  Timestamp t = z.succ(5);
  EXPECT_EQ(t.val, 1u);
  EXPECT_EQ(t.id, 5u);
  EXPECT_FALSE(t.is_zero());
  Timestamp t2 = t.succ(9);
  EXPECT_EQ(t2.val, 2u);
  EXPECT_EQ(t2.id, 9u);
}

TEST(TimestampTest, OrderValThenClient) {
  // §3.2.1: compare val parts; ties broken by client id.
  EXPECT_LT((Timestamp{1, 9}), (Timestamp{2, 1}));
  EXPECT_LT((Timestamp{2, 1}), (Timestamp{2, 2}));
  EXPECT_EQ((Timestamp{3, 3}), (Timestamp{3, 3}));
  EXPECT_GE((Timestamp{3, 3}), (Timestamp{3, 3}));
  EXPECT_GT((Timestamp{3, 4}), (Timestamp{3, 3}));
}

TEST(TimestampTest, DifferentClientsNeverCollide) {
  // succ from the same base by different clients yields distinct,
  // totally ordered timestamps.
  Timestamp base{7, 1};
  Timestamp a = base.succ(2);
  Timestamp b = base.succ(3);
  EXPECT_NE(a, b);
  EXPECT_LT(a, b);
  EXPECT_EQ(a.val, b.val);
}

TEST(TimestampTest, EncodeDecodeRoundtrip) {
  Timestamp t{0xdeadbeefcafe, 42};
  Writer w;
  wire::put(w, t);
  Reader r(w.data());
  EXPECT_EQ(wire::get<Timestamp>(r), t);
  EXPECT_TRUE(r.done());
}

// ------------------------------------------------------------ config

TEST(QuorumConfigTest, BftBcSizes) {
  for (std::uint32_t f = 1; f <= 5; ++f) {
    const QuorumConfig c = QuorumConfig::bft_bc(f);
    EXPECT_EQ(c.n, 3 * f + 1);
    EXPECT_EQ(c.q, 2 * f + 1);
    // Any two quorums intersect in >= f+1 replicas (one correct).
    EXPECT_GE(2 * c.q, c.n + c.f + 1);
  }
}

TEST(QuorumConfigTest, MaskingSizes) {
  for (std::uint32_t f = 1; f <= 5; ++f) {
    const QuorumConfig c = QuorumConfig::masking(f);
    EXPECT_EQ(c.n, 4 * f + 1);
    EXPECT_EQ(c.q, 3 * f + 1);
    // Masking: intersection >= 2f+1 (majority correct).
    EXPECT_GE(2 * c.q, c.n + 2 * c.f + 1);
  }
}

TEST(QuorumConfigTest, PrincipalMapping) {
  EXPECT_TRUE(is_replica_principal(replica_principal(0)));
  EXPECT_TRUE(is_replica_principal(replica_principal(12)));
  EXPECT_FALSE(is_replica_principal(client_principal(1)));
  EXPECT_NE(replica_principal(0), client_principal(0));
}

// ------------------------------------------------------------ statements

TEST(StatementTest, DomainSeparation) {
  const Timestamp ts{3, 1};
  const crypto::Digest h = crypto::sha256(as_bytes_view("v"));
  const Bytes prep = prepare_reply_statement(9, ts, h);
  const Bytes write = write_reply_statement(9, ts);
  EXPECT_NE(prep, write);
  // Different objects → different statements.
  EXPECT_NE(prepare_reply_statement(9, ts, h),
            prepare_reply_statement(10, ts, h));
  EXPECT_NE(write_reply_statement(9, ts), write_reply_statement(10, ts));
  // Different hashes → different prepare statements.
  EXPECT_NE(prepare_reply_statement(9, ts, h),
            prepare_reply_statement(9, ts, crypto::sha256(as_bytes_view("w"))));
}

// ------------------------------------------------------------ certificates

class CertificateTest : public ::testing::Test {
 protected:
  CertificateTest() : config_(QuorumConfig::bft_bc(1)) {
    for (ReplicaId r = 0; r < config_.n; ++r) {
      signers_.push_back(ks_.register_principal(replica_principal(r)));
    }
  }

  PrepareCertificate make_prep_cert(ObjectId obj, Timestamp ts,
                                    const crypto::Digest& h,
                                    std::vector<ReplicaId> replicas) {
    SignatureSet sigs;
    const Bytes stmt = prepare_reply_statement(obj, ts, h);
    for (ReplicaId r : replicas) {
      sigs[r] = signers_[r].sign(stmt).value();
    }
    return PrepareCertificate(obj, ts, h, std::move(sigs));
  }

  WriteCertificate make_write_cert(ObjectId obj, Timestamp ts,
                                   std::vector<ReplicaId> replicas) {
    SignatureSet sigs;
    const Bytes stmt = write_reply_statement(obj, ts);
    for (ReplicaId r : replicas) {
      sigs[r] = signers_[r].sign(stmt).value();
    }
    return WriteCertificate(obj, ts, std::move(sigs));
  }

  QuorumConfig config_;
  crypto::Keystore ks_{crypto::SignatureScheme::kHmacSim, 77};
  std::vector<crypto::Signer> signers_;
  crypto::Digest h_ = crypto::sha256(as_bytes_view("value"));
};

TEST_F(CertificateTest, GenesisIsValid) {
  const auto g = PrepareCertificate::genesis(5);
  EXPECT_TRUE(g.is_genesis());
  EXPECT_TRUE(g.validate(config_, ks_).is_ok());
  EXPECT_TRUE(g.ts().is_zero());
}

TEST_F(CertificateTest, GenesisWithWrongHashInvalid) {
  PrepareCertificate fake(5, Timestamp::zero(),
                          crypto::sha256(as_bytes_view("not-empty")), {});
  EXPECT_FALSE(fake.is_genesis());
  EXPECT_FALSE(fake.validate(config_, ks_).is_ok());
}

TEST_F(CertificateTest, QuorumPrepareCertValidates) {
  auto cert = make_prep_cert(1, {1, 4}, h_, {0, 1, 2});
  EXPECT_TRUE(cert.validate(config_, ks_).is_ok());
  // Any quorum-sized subset works, including all n.
  auto cert4 = make_prep_cert(1, {1, 4}, h_, {0, 1, 2, 3});
  EXPECT_TRUE(cert4.validate(config_, ks_).is_ok());
}

TEST_F(CertificateTest, SubQuorumRejected) {
  auto cert = make_prep_cert(1, {1, 4}, h_, {0, 1});
  const Status s = cert.validate(config_, ks_);
  EXPECT_EQ(s.code(), StatusCode::kBadCertificate);
}

TEST_F(CertificateTest, ForgedSignatureRejected) {
  auto cert = make_prep_cert(1, {1, 4}, h_, {0, 1, 2});
  SignatureSet sigs = cert.signatures().to_set();
  sigs[2][0] ^= 0xff;  // corrupt one signature
  PrepareCertificate bad(1, {1, 4}, h_, std::move(sigs));
  EXPECT_FALSE(bad.validate(config_, ks_).is_ok());
}

TEST_F(CertificateTest, PoisonedSignatureDoesNotInvalidateQuorum) {
  // Regression: a certificate is a quorum of *valid* signed statements.
  // A Byzantine replica appending a garbage signature alongside an
  // honest quorum must not poison the certificate.
  auto cert = make_prep_cert(1, {1, 4}, h_, {0, 1, 2});
  SignatureSet sigs = cert.signatures().to_set();
  sigs[3] = to_bytes("complete garbage, not a signature");
  PrepareCertificate poisoned(1, {1, 4}, h_, std::move(sigs));
  EXPECT_TRUE(poisoned.validate(config_, ks_).is_ok());

  // Same for write certificates.
  auto wcert = make_write_cert(1, {2, 3}, {0, 1, 2});
  SignatureSet wsigs = wcert.signatures().to_set();
  wsigs[3] = Bytes(32, 0xee);
  WriteCertificate wpoisoned(1, {2, 3}, std::move(wsigs));
  EXPECT_TRUE(wpoisoned.validate(config_, ks_).is_ok());
}

TEST_F(CertificateTest, PoisonedOutOfRangeEntryDoesNotInvalidateQuorum) {
  // An out-of-range replica id is just another invalid entry: skipped,
  // not fatal, as long as a valid quorum remains.
  auto cert = make_prep_cert(1, {1, 4}, h_, {0, 1, 2});
  SignatureSet sigs = cert.signatures().to_set();
  sigs[99] = Bytes(32, 0x11);  // n = 4, so id 99 is out of range
  PrepareCertificate poisoned(1, {1, 4}, h_, std::move(sigs));
  EXPECT_TRUE(poisoned.validate(config_, ks_).is_ok());
}

TEST_F(CertificateTest, PoisonedEntriesCannotSubstituteForQuorum) {
  // Garbage entries are skipped but never counted: 2 valid + 2 garbage
  // signatures is still below q = 3.
  auto cert = make_prep_cert(1, {1, 4}, h_, {0, 1});
  SignatureSet sigs = cert.signatures().to_set();
  sigs[2] = Bytes(32, 0xaa);
  sigs[3] = Bytes(32, 0xbb);
  PrepareCertificate bad(1, {1, 4}, h_, std::move(sigs));
  EXPECT_FALSE(bad.validate(config_, ks_).is_ok());
}

TEST_F(CertificateTest, SignatureFromWrongStatementRejected) {
  // A write-reply signature cannot stand in for a prepare-reply one,
  // even for the same ts (domain separation).
  const Timestamp ts{1, 4};
  SignatureSet sigs;
  const Bytes wrong_stmt = write_reply_statement(1, ts);
  for (ReplicaId r : {0u, 1u, 2u}) {
    sigs[r] = signers_[r].sign(wrong_stmt).value();
  }
  PrepareCertificate bad(1, ts, h_, std::move(sigs));
  EXPECT_FALSE(bad.validate(config_, ks_).is_ok());
}

TEST_F(CertificateTest, OutOfRangeReplicaRejected) {
  auto cert = make_prep_cert(1, {1, 4}, h_, {0, 1, 2});
  SignatureSet sigs = cert.signatures().to_set();
  // Register a principal pretending to be replica 9 (n=4).
  auto rogue = ks_.register_principal(replica_principal(9));
  sigs[9] = rogue.sign(prepare_reply_statement(1, {1, 4}, h_)).value();
  sigs.erase(0);
  PrepareCertificate bad(1, {1, 4}, h_, std::move(sigs));
  EXPECT_FALSE(bad.validate(config_, ks_).is_ok());
}

TEST_F(CertificateTest, CertBoundToObject) {
  // Valid for object 1; claiming object 2 breaks every signature.
  auto cert = make_prep_cert(1, {1, 4}, h_, {0, 1, 2});
  PrepareCertificate moved(2, cert.ts(), cert.hash(),
                           cert.signatures().to_set());
  EXPECT_FALSE(moved.validate(config_, ks_).is_ok());
}

TEST_F(CertificateTest, WriteCertValidates) {
  auto cert = make_write_cert(1, {2, 3}, {1, 2, 3});
  EXPECT_TRUE(cert.validate(config_, ks_).is_ok());
}

TEST_F(CertificateTest, WriteCertSubQuorumRejected) {
  auto cert = make_write_cert(1, {2, 3}, {1, 2});
  EXPECT_FALSE(cert.validate(config_, ks_).is_ok());
}

TEST_F(CertificateTest, GenesisWriteCertWithQuorumValidates) {
  // §7 strong mode: a quorum can vouch that "the zero write completed";
  // used by the first writer of an object.
  auto cert = make_write_cert(1, Timestamp::zero(), {0, 1, 2});
  EXPECT_TRUE(cert.validate(config_, ks_).is_ok());
}

TEST_F(CertificateTest, EmptyZeroWriteCertRejected) {
  WriteCertificate empty(1, Timestamp::zero(), {});
  EXPECT_FALSE(empty.validate(config_, ks_).is_ok());
}

TEST_F(CertificateTest, PrepareCertEncodeDecodeRoundtrip) {
  auto cert = make_prep_cert(6, {9, 2}, h_, {1, 2, 3});
  Writer w;
  cert.encode(w);
  Reader r(w.data());
  PrepareCertificate back = PrepareCertificate::decode(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(back, cert);
  EXPECT_TRUE(back.validate(config_, ks_).is_ok());
}

TEST_F(CertificateTest, WriteCertEncodeDecodeRoundtrip) {
  auto cert = make_write_cert(6, {9, 2}, {0, 2, 3});
  Writer w;
  cert.encode(w);
  Reader r(w.data());
  WriteCertificate back = WriteCertificate::decode(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(back, cert);
}

TEST_F(CertificateTest, DecodeGarbageIsInvalidNotCrash) {
  Reader r(as_bytes_view("complete garbage that is not a certificate"));
  PrepareCertificate cert = PrepareCertificate::decode(r);
  EXPECT_FALSE(cert.validate(config_, ks_).is_ok());
}

TEST_F(CertificateTest, SignatureSetOverCapFailsReader) {
  // Claiming more entries than the hard cap must fail the reader, not
  // silently decode as an empty signature set.
  Writer w;
  w.put_varint(kMaxSignatureSetEntries + 1);
  Reader r(w.data());
  const SignatureSet sigs = decode_signature_set(r);
  EXPECT_TRUE(sigs.empty());
  EXPECT_FALSE(r.ok());
}

TEST_F(CertificateTest, SignatureSetTruncationFailsReaderAndYieldsNothing) {
  // A mid-entry truncation must fail the reader and must not leak a
  // partial set (a prefix of a valid certificate is not a certificate).
  auto cert = make_write_cert(1, {2, 3}, {0, 1, 2});
  Writer w;
  encode_signature_set(w, cert.signatures().to_set());
  const Bytes& full = w.data();
  for (std::size_t cut = 1; cut + 1 < full.size(); cut += 7) {
    Reader r(BytesView(full.data(), full.size() - cut));
    const SignatureSet sigs = decode_signature_set(r);
    EXPECT_FALSE(r.ok()) << "cut=" << cut;
    EXPECT_TRUE(sigs.empty()) << "cut=" << cut;
  }
}

TEST_F(CertificateTest, GenesisValueHashMatchesEmptySha256) {
  EXPECT_EQ(genesis_value_hash(), crypto::sha256(BytesView{}));
  // And the cached constant round-trips through genesis construction.
  EXPECT_TRUE(PrepareCertificate::genesis(3).is_genesis());
}

TEST_F(CertificateTest, LargerFConfigsWork) {
  const QuorumConfig c5 = QuorumConfig::bft_bc(5);
  crypto::Keystore ks(crypto::SignatureScheme::kHmacSim, 3);
  SignatureSet sigs;
  const Timestamp ts{1, 1};
  const Bytes stmt = prepare_reply_statement(0, ts, h_);
  for (ReplicaId r = 0; r < c5.q; ++r) {
    auto s = ks.register_principal(replica_principal(r));
    sigs[r] = s.sign(stmt).value();
  }
  PrepareCertificate cert(0, ts, h_, std::move(sigs));
  EXPECT_TRUE(cert.validate(c5, ks).is_ok());

  // One fewer signature fails.
  SignatureSet fewer = cert.signatures().to_set();
  fewer.erase(fewer.begin());
  PrepareCertificate bad(0, ts, h_, std::move(fewer));
  EXPECT_FALSE(bad.validate(c5, ks).is_ok());
}

// ------------------------------------------------- flat signature set

// A raw signature-set encoding: `count` entries with ids from a small
// range (so they repeat) or strictly increasing, and signatures of 0-99
// bytes; sometimes a claimed count that lies or exceeds the cap, a
// truncation, or trailing bytes.
Bytes random_signature_set_wire(Rng& rng) {
  const std::uint64_t count = rng.next_below(7);
  const bool increasing = rng.next_below(2) == 0;
  std::uint64_t claimed = count;
  const std::uint64_t lie = rng.next_below(10);
  if (lie == 0) claimed = count + 1 + rng.next_below(3);
  if (lie == 1) claimed = kMaxSignatureSetEntries + 1 + rng.next_below(3);
  Writer w;
  w.put_varint(claimed);
  ReplicaId next = static_cast<ReplicaId>(rng.next_below(3));
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto random_id = static_cast<ReplicaId>(rng.next_below(5));
    const ReplicaId id = increasing ? next : random_id;
    const auto gap = static_cast<ReplicaId>(1 + rng.next_below(3));
    next += gap;
    const std::size_t sig_size = rng.next_below(100);
    w.put_u32(id);
    w.put_bytes(rng.bytes(sig_size));
  }
  Bytes wire = w.data();
  const std::uint64_t damage = rng.next_below(6);
  if (damage == 0 && !wire.empty()) {
    wire.resize(rng.next_below(wire.size()));
  } else if (damage == 1) {
    const std::size_t extra = 1 + rng.next_below(8);
    append(wire, rng.bytes(extra));
  }
  return wire;
}

TEST(FlatSignatureSetTest, DecodesTheSameSetAsTheMapDecoder) {
  Rng rng(0x5167);
  int unsorted = 0, failed = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const Bytes wire = random_signature_set_wire(rng);
    Reader map_reader(wire);
    Reader flat_reader(wire);
    const SignatureSet expected = decode_signature_set(map_reader);
    const FlatSignatureSet flat = FlatSignatureSet::decode(flat_reader);

    ASSERT_EQ(flat_reader.ok(), map_reader.ok()) << "trial " << trial;
    if (!map_reader.ok()) ++failed;
    if (map_reader.ok()) {
      ASSERT_EQ(flat_reader.remaining(), map_reader.remaining());
    }
    ASSERT_EQ(flat.to_set(), expected) << "trial " << trial;
    ASSERT_EQ(flat.size(), expected.size());
    ASSERT_EQ(flat.empty(), expected.empty());

    // Iteration visits the map's entries in the map's order.
    auto it = expected.begin();
    for (const auto& [replica, sig] : flat) {
      ASSERT_NE(it, expected.end());
      EXPECT_EQ(replica, it->first);
      EXPECT_TRUE(std::equal(sig.begin(), sig.end(), it->second.begin(),
                             it->second.end()));
      ++it;
    }
    EXPECT_EQ(it, expected.end());

    // Stored and re-encoded in the map's canonical form.
    Writer flat_wire, map_wire;
    flat.encode(flat_wire);
    encode_signature_set(map_wire, expected);
    ASSERT_EQ(flat_wire.data(), map_wire.data());
    EXPECT_EQ(flat, FlatSignatureSet(expected));
    if (!std::equal(wire.begin(), wire.end(), map_wire.data().begin(),
                    map_wire.data().end())) {
      ++unsorted;
    }
  }
  // The sample covers canonical, non-canonical and failing encodings.
  EXPECT_GT(unsorted, 1000);
  EXPECT_GT(failed, 500);
}

TEST_F(CertificateTest, RepeatedReplicaCountsOnce) {
  // One replica's valid signature sent three times is one signature, not
  // a quorum: decoding keeps one entry per id.
  const Timestamp ts{1, 4};
  const Bytes sig =
      signers_[0].sign(prepare_reply_statement(1, ts, h_)).value();
  Writer w;
  w.put_u64(1);
  wire::put(w, ts);
  wire::put(w, h_);
  w.put_varint(3);
  for (int i = 0; i < 3; ++i) {
    w.put_u32(0);
    w.put_bytes(sig);
  }
  Reader r(w.data());
  const PrepareCertificate cert = PrepareCertificate::decode(r);
  ASSERT_TRUE(r.done());
  EXPECT_EQ(cert.signatures().size(), 1u);
  EXPECT_FALSE(cert.validate(config_, ks_).is_ok());
}

}  // namespace
}  // namespace bftbc::quorum
