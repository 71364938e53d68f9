// Tests for the baseline protocols — including the demonstrations of the
// weaknesses that motivate BFT-BC (§3.2, §8):
//   - classic BQS splits under client equivocation; BFT-BC does not
//   - classic BQS lets clients jump the timestamp space
//   - Phalanx-style reads can return null under partial writes
#include <gtest/gtest.h>

#include "harness/baseline_cluster.h"

namespace bftbc {
namespace {

using harness::BaselineOptions;
using harness::BqsCluster;
using harness::PhalanxCluster;

// ------------------------------------------------------------- BQS

TEST(BqsTest, WriteReadRoundtrip) {
  BqsCluster cluster;
  auto& c = cluster.add_client(1);
  auto w = cluster.write(c, 1, to_bytes("hello"));
  ASSERT_TRUE(w.is_ok());
  EXPECT_EQ(w.value().phases, 2);  // one fewer than BFT-BC
  auto r = cluster.read(cluster.add_client(2), 1);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(to_string(r.value().value), "hello");
  EXPECT_EQ(r.value().phases, 1);
}

TEST(BqsTest, SequentialWritesAdvance) {
  BqsCluster cluster;
  auto& c = cluster.add_client(1);
  for (int i = 0; i < 5; ++i) {
    auto w = cluster.write(c, 1, to_bytes("v" + std::to_string(i)));
    ASSERT_TRUE(w.is_ok());
    EXPECT_EQ(w.value().ts.val, static_cast<std::uint64_t>(i + 1));
  }
}

TEST(BqsTest, SurvivesCrashFaults) {
  BqsCluster cluster;
  cluster.net().crash(0);
  auto& c = cluster.add_client(1);
  ASSERT_TRUE(cluster.write(c, 1, to_bytes("x")).is_ok());
  auto r = cluster.read(c, 1);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(to_string(r.value().value), "x");
}

TEST(BqsTest, RejectsForgedWrites) {
  // A write whose signature doesn't verify is ignored by replicas.
  BqsCluster cluster;
  auto& good = cluster.add_client(1);
  ASSERT_TRUE(cluster.write(good, 1, to_bytes("genuine")).is_ok());
  // Reads still return the genuine value even if garbage was injected.
  auto r = cluster.read(good, 1);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(to_string(r.value().value), "genuine");
}

TEST(BqsTest, EquivocationSplitsReplicas) {
  // THE motivating weakness: a Byzantine client binds two values to one
  // timestamp and BQS replicas happily diverge. (BFT-BC's prepare phase
  // makes this impossible — see ByzantineClientTest.)
  BqsCluster cluster;
  auto& good = cluster.add_client(1);
  ASSERT_TRUE(cluster.write(good, 1, to_bytes("v0")).is_ok());

  auto transport = cluster.make_transport(harness::client_node(66));
  baselines::BqsEquivocator attacker(cluster.config(), 66, cluster.keystore(),
                                     *transport, cluster.sim(),
                                     cluster.replica_nodes(),
                                     cluster.rng().split());
  bool done = false;
  attacker.attack(1, to_bytes("evil-A"), to_bytes("evil-B"),
                  [&] { done = true; });
  cluster.sim().run_while_pending([&] { return !done; });
  cluster.sim().run();  // let the split writes land

  // Replicas now disagree about the value at the same timestamp.
  std::set<std::string> values;
  for (quorum::ReplicaId r = 0; r < cluster.config().n; ++r) {
    const auto* e = cluster.replica(r).find_object(1);
    ASSERT_NE(e, nullptr);
    values.insert(to_string(e->value));
  }
  EXPECT_EQ(values.size(), 2u) << "equivocation should split the replicas";

  // Two readers can return DIFFERENT values for the same timestamp
  // (reads pick by ts; the value depends on which quorum answers).
  // At minimum, the split means some reader write-back is needed and
  // the state is not a single register value — the atomicity BFT-BC
  // provides is absent here.
}

TEST(BqsTest, TimestampJumpAccepted) {
  // BQS replicas accept any higher timestamp: a Byzantine client can
  // exhaust the space. We simulate by having the equivocator's split
  // write land, then checking a good client's next write jumps past it.
  BqsCluster cluster;
  auto& good = cluster.add_client(1);
  ASSERT_TRUE(cluster.write(good, 1, to_bytes("v0")).is_ok());

  // Direct replica poke: craft a legitimate signed write with a huge ts
  // from an authorized-but-Byzantine client.
  auto transport = cluster.make_transport(harness::client_node(66));
  auto signer =
      cluster.keystore().register_principal(quorum::client_principal(66));
  const quorum::Timestamp huge{1'000'000'000, 66};
  const Bytes value = to_bytes("jump");
  Writer w;  // BqsWriteReq wire format
  w.put_u64(1);
  w.put_bytes(value);
  wire::put(w, huge);
  w.put_u32(66);
  auto sig = signer.sign(
      baselines::bqs_value_statement(1, huge, crypto::sha256(value)));
  ASSERT_TRUE(sig.is_ok());
  w.put_bytes(sig.value());
  rpc::Envelope env;
  env.type = rpc::MsgType::kBqsWrite;
  env.rpc_id = 99;
  env.sender = quorum::client_principal(66);
  env.body = std::move(w).take();
  for (sim::NodeId n : cluster.replica_nodes()) transport->send(n, env);
  cluster.sim().run();

  // The good client's next write must go beyond the huge timestamp —
  // the space was effectively consumed (contrast: BFT-BC replicas drop
  // the unjustified jump; see ByzantineClientTest.TimestampExhaustion).
  auto w2 = cluster.write(good, 1, to_bytes("v1"));
  ASSERT_TRUE(w2.is_ok());
  EXPECT_GT(w2.value().ts.val, 1'000'000'000u);
}

// ------------------------------------------------------------- Phalanx

TEST(PhalanxTest, WriteReadRoundtrip) {
  PhalanxCluster cluster;
  EXPECT_EQ(cluster.config().n, 5u);  // 4f+1
  EXPECT_EQ(cluster.config().q, 4u);  // 3f+1
  auto& c = cluster.add_client(1);
  auto w = cluster.write(c, 1, to_bytes("hello"));
  ASSERT_TRUE(w.is_ok());
  cluster.settle();  // let the echo round commit everywhere
  auto r = cluster.read(c, 1);
  ASSERT_TRUE(r.is_ok());
  ASSERT_TRUE(r.value().value.has_value());
  EXPECT_EQ(to_string(*r.value().value), "hello");
}

TEST(PhalanxTest, SequentialWritesLinearize) {
  PhalanxCluster cluster;
  auto& c = cluster.add_client(1);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(cluster.write(c, 1, to_bytes("v" + std::to_string(i))).is_ok());
    cluster.settle();
    auto r = cluster.read(c, 1);
    ASSERT_TRUE(r.is_ok());
    ASSERT_TRUE(r.value().value.has_value());
    EXPECT_EQ(to_string(*r.value().value), "v" + std::to_string(i));
  }
}

TEST(PhalanxTest, EquivocationDoesNotCommitEitherValue) {
  // The echo round stops split writes: neither half can gather 3f+1
  // echoes, so neither value commits.
  PhalanxCluster cluster;
  auto& good = cluster.add_client(1);
  ASSERT_TRUE(cluster.write(good, 1, to_bytes("v0")).is_ok());
  cluster.settle();

  // Byzantine client: send v1 to replicas {0,1}, v2 to {2,3,4}, same ts.
  auto transport = cluster.make_transport(harness::client_node(66));
  const quorum::Timestamp ts{2, 66};
  auto send_write = [&](const Bytes& v, std::size_t lo, std::size_t hi) {
    Writer w;
    w.put_u64(1);
    w.put_bytes(v);
    wire::put(w, ts);
    w.put_bool(false);
    w.put_u32(0);
    rpc::Envelope env;
    env.type = rpc::MsgType::kPhalanxWrite;
    env.rpc_id = 1234;
    env.sender = quorum::client_principal(66);
    env.body = std::move(w).take();
    for (std::size_t i = lo; i < hi; ++i)
      transport->send(cluster.replica_nodes()[i], env);
  };
  send_write(to_bytes("evil-A"), 0, 2);
  send_write(to_bytes("evil-B"), 2, 5);
  cluster.settle();

  // No replica committed either evil value (echo quorum unreachable).
  for (quorum::ReplicaId r = 0; r < cluster.config().n; ++r) {
    const auto* c = cluster.replica(r).committed(1);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(to_string(c->value), "v0");
  }
}

TEST(PhalanxTest, PartialWriteYieldsNullRead) {
  // The weakness the paper's §8 calls out: an incomplete write leaves
  // the highest timestamp insufficiently vouched → readers get null.
  PhalanxCluster cluster;
  auto& good = cluster.add_client(1);
  ASSERT_TRUE(cluster.write(good, 1, to_bytes("v0")).is_ok());
  cluster.settle();

  // Byzantine client writes to ONE replica only; that replica echoes but
  // the value cannot commit anywhere... the single replica still REPORTS
  // its committed (old) value, so instead: partially deliver a write to
  // 4 of 5 replicas so it COMMITS at some but the read quorum straddles.
  // Simplest reliable trigger: crash a replica mid-write so commit is
  // partial, then read while the echo round is incomplete.
  auto& writer = cluster.add_client(2);
  bool wrote = false;
  writer.write(1, to_bytes("v1"),
               [&](Result<baselines::PhalanxClient::WriteResult> r) {
                 wrote = r.is_ok();
               });
  // Advance only a little: acks arrive but echo quorum hasn't completed
  // everywhere. Read DURING the write.
  auto& reader = cluster.add_client(3);
  std::optional<baselines::PhalanxClient::ReadResult> read_result;
  bool read_done = false;
  cluster.sim().run_until(600 * sim::kMicrosecond);
  reader.read(1, [&](Result<baselines::PhalanxClient::ReadResult> r) {
    if (r.is_ok()) read_result = std::move(r).take();
    read_done = true;
  });
  cluster.sim().run_while_pending([&] { return !read_done || !wrote; });

  ASSERT_TRUE(read_done);
  ASSERT_TRUE(read_result.has_value());
  // Either the reader caught the committed new value everywhere (timing)
  // or it observed the concurrent write and returned null. Both are
  // legal for Phalanx; the bench measures the null RATE. Here we only
  // require the mechanism functions without crashing and the field is
  // well-defined.
  if (!read_result->value.has_value()) {
    EXPECT_EQ(reader.metrics().get("null_reads"), 1u);
  }
  cluster.settle();
  auto r2 = cluster.read(reader, 1);
  ASSERT_TRUE(r2.is_ok());
  ASSERT_TRUE(r2.value().value.has_value());
  EXPECT_EQ(to_string(*r2.value().value), "v1");
}

TEST(PhalanxTest, IncompleteWriteYieldsNullReadDeterministic) {
  // Deterministic construction of the §8 weakness: partition the peer
  // links among replicas 1..4 so only replica 0 can gather an echo
  // quorum. A write then commits at replica 0 alone; a reader sees the
  // top timestamp vouched by just one replica (< f+1) → NULL.
  BaselineOptions o;
  o.link.jitter_mean = 0;  // deterministic delivery order
  PhalanxCluster cluster(o);
  auto& writer = cluster.add_client(1);
  ASSERT_TRUE(cluster.write(writer, 1, to_bytes("base")).is_ok());
  cluster.settle();

  // Cut replica<->replica links among {1,2,3,4}; replica 0 stays
  // connected to everyone, clients stay connected to everyone.
  for (sim::NodeId a = 1; a <= 4; ++a) {
    for (sim::NodeId b = a + 1; b <= 4; ++b) {
      cluster.net().partition(a, b);
    }
  }

  bool wrote = false;
  writer.write(1, to_bytes("half-committed"),
               [&](Result<baselines::PhalanxClient::WriteResult> r) {
                 wrote = r.is_ok();
               });
  cluster.sim().run_while_pending([&] { return !wrote; });
  cluster.settle();

  // Replica 0 committed; the others could not gather 3f+1 echoes.
  EXPECT_EQ(to_string(cluster.replica(0).committed(1)->value),
            "half-committed");
  EXPECT_EQ(to_string(cluster.replica(1).committed(1)->value), "base");

  auto& reader = cluster.add_client(2);
  auto r = cluster.read(reader, 1);
  ASSERT_TRUE(r.is_ok());
  EXPECT_FALSE(r.value().value.has_value())
      << "expected a null read: top timestamp lacks f+1 vouchers";
  EXPECT_GE(reader.metrics().get("null_reads"), 1u);

  // BFT-BC never does this: its read accepts a single self-certifying
  // reply (the certificate travels with the value) and writes it back.
}

}  // namespace
}  // namespace bftbc
