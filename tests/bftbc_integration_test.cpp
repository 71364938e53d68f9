// End-to-end tests of the BFT-BC protocol over the simulated network:
// happy paths, phase counts, crash faults, lossy links, and the
// base/optimized/strong mode matrix.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <type_traits>

#include "harness/cluster.h"

namespace bftbc {
namespace {

using harness::Cluster;
using harness::ClusterOptions;

// gtest names each instance in ctest with a byte dump of its ModeParam, so
// every byte of the struct is fixed: no padding (the bytes between `strong`
// and `tag` are an explicit zeroed member) and no pointer, whose bytes ASLR
// would change at every test discovery. `tag` is a constant per mode; its
// values are the low bytes the mode-name pointer this struct used to hold
// had in the default build, so the instance names read as they always have.
struct ModeParam {
  ModeParam(bool o, bool s, std::uint64_t t) : optimized(o), strong(s), tag(t) {}
  bool optimized;
  bool strong;
  char zero[6] = {};
  std::uint64_t tag;
};
static_assert(std::has_unique_object_representations_v<ModeParam>);

std::string mode_name(const ModeParam& p) {
  if (p.strong) return p.optimized ? "strong_optimized" : "strong";
  return p.optimized ? "optimized" : "base";
}

class BftBcModeTest : public ::testing::TestWithParam<ModeParam> {
 protected:
  ClusterOptions base_options(std::uint32_t f = 1, std::uint64_t seed = 1) {
    ClusterOptions o;
    o.f = f;
    o.seed = seed;
    o.optimized = GetParam().optimized;
    o.strong = GetParam().strong;
    return o;
  }
};

TEST_P(BftBcModeTest, SingleWriteRead) {
  Cluster cluster(base_options());
  auto& writer = cluster.add_client(1);
  auto& reader = cluster.add_client(2);

  auto w = cluster.write(writer, /*object=*/7, to_bytes("hello"));
  ASSERT_TRUE(w.is_ok()) << w.status().to_string();
  EXPECT_EQ(w.value().ts.id, 1u);
  EXPECT_EQ(w.value().ts.val, 1u);

  auto r = cluster.read(reader, 7);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(to_string(r.value().value), "hello");
  EXPECT_EQ(r.value().ts, w.value().ts);
}

TEST_P(BftBcModeTest, ReadOfUnwrittenObjectReturnsGenesis) {
  Cluster cluster(base_options());
  auto& reader = cluster.add_client(1);
  auto r = cluster.read(reader, 42);
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r.value().value.empty());
  EXPECT_TRUE(r.value().ts.is_zero());
  EXPECT_EQ(r.value().phases, 1);
}

TEST_P(BftBcModeTest, SequentialWritesMonotoneTimestamps) {
  Cluster cluster(base_options());
  auto& writer = cluster.add_client(1);
  quorum::Timestamp prev;
  for (int i = 0; i < 10; ++i) {
    auto w = cluster.write(writer, 1, to_bytes("v" + std::to_string(i)));
    ASSERT_TRUE(w.is_ok()) << "write " << i << ": " << w.status().to_string();
    EXPECT_GT(w.value().ts, prev);
    prev = w.value().ts;
  }
  // Sequential same-client writes bump val by exactly 1 each time: the
  // timestamp space grows linearly with completed writes (E11's claim).
  EXPECT_EQ(prev.val, 10u);

  auto& reader = cluster.add_client(2);
  auto r = cluster.read(reader, 1);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(to_string(r.value().value), "v9");
}

TEST_P(BftBcModeTest, InterleavedWritersSeeEachOther) {
  Cluster cluster(base_options());
  auto& a = cluster.add_client(1);
  auto& b = cluster.add_client(2);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(cluster.write(a, 1, to_bytes("a" + std::to_string(i))).is_ok());
    ASSERT_TRUE(cluster.write(b, 1, to_bytes("b" + std::to_string(i))).is_ok());
  }
  auto r = cluster.read(a, 1);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(to_string(r.value().value), "b4");
  // Each of the 10 writes advanced val by one.
  EXPECT_EQ(r.value().ts.val, 10u);
  EXPECT_EQ(r.value().ts.id, 2u);
}

TEST_P(BftBcModeTest, MultipleObjectsAreIndependent) {
  Cluster cluster(base_options());
  auto& c = cluster.add_client(1);
  ASSERT_TRUE(cluster.write(c, 1, to_bytes("one")).is_ok());
  ASSERT_TRUE(cluster.write(c, 2, to_bytes("two")).is_ok());
  ASSERT_TRUE(cluster.write(c, 1, to_bytes("one-b")).is_ok());

  auto r1 = cluster.read(c, 1);
  auto r2 = cluster.read(c, 2);
  ASSERT_TRUE(r1.is_ok());
  ASSERT_TRUE(r2.is_ok());
  EXPECT_EQ(to_string(r1.value().value), "one-b");
  EXPECT_EQ(to_string(r2.value().value), "two");
  EXPECT_EQ(r1.value().ts.val, 2u);
  EXPECT_EQ(r2.value().ts.val, 1u);
}

TEST_P(BftBcModeTest, SurvivesFCrashedReplicas) {
  for (std::uint32_t f : {1u, 2u}) {
    Cluster cluster(base_options(f, /*seed=*/f));
    // Crash f replicas before any traffic.
    for (std::uint32_t i = 0; i < f; ++i) cluster.crash_replica(i);
    auto& writer = cluster.add_client(1);
    auto& reader = cluster.add_client(2);

    auto w = cluster.write(writer, 1, to_bytes("fault-tolerant"));
    ASSERT_TRUE(w.is_ok()) << "f=" << f;
    auto r = cluster.read(reader, 1);
    ASSERT_TRUE(r.is_ok()) << "f=" << f;
    EXPECT_EQ(to_string(r.value().value), "fault-tolerant");
  }
}

TEST_P(BftBcModeTest, SurvivesLossyDuplicatingNetwork) {
  ClusterOptions o = base_options(1, /*seed=*/99);
  o.link.loss_probability = 0.2;
  o.link.duplicate_probability = 0.1;
  o.link.corrupt_probability = 0.02;
  Cluster cluster(o);
  auto& writer = cluster.add_client(1);
  auto& reader = cluster.add_client(2);

  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        cluster.write(writer, 1, to_bytes("w" + std::to_string(i))).is_ok());
  }
  auto r = cluster.read(reader, 1);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(to_string(r.value().value), "w4");
}

TEST_P(BftBcModeTest, CrashMidStreamThenRecover) {
  Cluster cluster(base_options(1, 7));
  auto& writer = cluster.add_client(1);
  ASSERT_TRUE(cluster.write(writer, 1, to_bytes("before")).is_ok());

  cluster.crash_replica(3);
  ASSERT_TRUE(cluster.write(writer, 1, to_bytes("during")).is_ok());

  cluster.recover_replica(3);
  ASSERT_TRUE(cluster.write(writer, 1, to_bytes("after")).is_ok());

  auto r = cluster.read(cluster.add_client(2), 1);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(to_string(r.value().value), "after");
}

TEST_P(BftBcModeTest, UncontendedReadIsOnePhase) {
  Cluster cluster(base_options());
  auto& c = cluster.add_client(1);
  ASSERT_TRUE(cluster.write(c, 1, to_bytes("x")).is_ok());
  auto r = cluster.read(c, 1);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().phases, 1);
}

TEST_P(BftBcModeTest, ReadAfterPartialWriteBackfills) {
  // Crash one replica during a write so it misses the value; after
  // recovery, a read must still return the newest value (via the quorum)
  // and a subsequent read stays one-phase once write-back propagated it.
  Cluster cluster(base_options(1, 21));
  auto& writer = cluster.add_client(1);
  cluster.crash_replica(0);
  ASSERT_TRUE(cluster.write(writer, 1, to_bytes("v")).is_ok());
  cluster.recover_replica(0);

  auto& reader = cluster.add_client(2);
  auto r1 = cluster.read(reader, 1);
  ASSERT_TRUE(r1.is_ok());
  EXPECT_EQ(to_string(r1.value().value), "v");
  // Replica 0 answers with the genesis cert → mixed answers → 2 phases.
  EXPECT_EQ(r1.value().phases, 2);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, BftBcModeTest,
    ::testing::Values(ModeParam{false, false, 0x04},
                      ModeParam{true, false, 0x17},
                      ModeParam{false, true, 0x09},
                      ModeParam{true, true, 0x10}),
    [](const auto& info) { return mode_name(info.param); });

// ---------------------------------------------------------------- phases

TEST(BftBcPhaseTest, BaseWriteTakesThreePhases) {
  Cluster cluster(ClusterOptions{});
  auto& c = cluster.add_client(1);
  for (int i = 0; i < 3; ++i) {
    auto w = cluster.write(c, 1, to_bytes("v" + std::to_string(i)));
    ASSERT_TRUE(w.is_ok());
    EXPECT_EQ(w.value().phases, 3);
  }
}

TEST(BftBcPhaseTest, OptimizedUncontendedWriteTakesTwoPhases) {
  ClusterOptions o;
  o.optimized = true;
  Cluster cluster(o);
  auto& c = cluster.add_client(1);
  for (int i = 0; i < 3; ++i) {
    auto w = cluster.write(c, 1, to_bytes("v" + std::to_string(i)));
    ASSERT_TRUE(w.is_ok());
    EXPECT_EQ(w.value().phases, 2) << "write " << i;
  }
  EXPECT_EQ(c.shard_client(0).metrics().get("opt_fast_writes"), 3u);
}

TEST(BftBcPhaseTest, StrongUncontendedWriteStaysThreePhases) {
  ClusterOptions o;
  o.strong = true;
  Cluster cluster(o);
  auto& c = cluster.add_client(1);
  for (int i = 0; i < 3; ++i) {
    auto w = cluster.write(c, 1, to_bytes("v" + std::to_string(i)));
    ASSERT_TRUE(w.is_ok());
    EXPECT_EQ(w.value().phases, 3) << "write " << i;
  }
  EXPECT_EQ(c.shard_client(0).metrics().get("internal_reads"), 0u);
}

TEST(BftBcPhaseTest, ConcurrentOptimizedWritersFallBack) {
  // Two clients writing the same object concurrently: replicas predict
  // different timestamps / reject second prepares, so at least one write
  // needs the fallback phase 2 (§6.1's motivating example). Both must
  // still complete — the liveness half of the claim.
  ClusterOptions o;
  o.optimized = true;
  o.seed = 5;
  Cluster cluster(o);
  auto& a = cluster.add_client(1);
  auto& b = cluster.add_client(2);

  int done = 0;
  std::vector<int> phases;
  for (int round = 0; round < 5; ++round) {
    a.write(1, to_bytes("a" + std::to_string(round)),
            [&](Result<core::Client::WriteResult> r) {
              ASSERT_TRUE(r.is_ok());
              phases.push_back(r.value().phases);
              ++done;
            });
    b.write(1, to_bytes("b" + std::to_string(round)),
            [&](Result<core::Client::WriteResult> r) {
              ASSERT_TRUE(r.is_ok());
              phases.push_back(r.value().phases);
              ++done;
            });
    const int want = 2 * (round + 1);
    ASSERT_TRUE(cluster.run_until([&] { return done == want; }));
  }
  // All writes completed despite contention.
  EXPECT_EQ(done, 10);
  for (int p : phases) {
    EXPECT_GE(p, 2);
    EXPECT_LE(p, 3);
  }
  // Reads still converge on a single latest value. Concurrent rounds may
  // commit both writes under the same val with different client ids
  // (ordered by id), so val advances by >= 1 per round.
  auto r = cluster.read(a, 1);
  ASSERT_TRUE(r.is_ok());
  EXPECT_GE(r.value().ts.val, 5u);
  EXPECT_LE(r.value().ts.val, 10u);
  const std::string v = to_string(r.value().value);
  EXPECT_TRUE(v == "a4" || v == "b4") << v;
}

TEST(BftBcPhaseTest, WriteDeadlineFiresWhenQuorumUnreachable) {
  ClusterOptions o;
  o.client_defaults.op_deadline = 2 * sim::kSecond;
  Cluster cluster(o);
  // Crash f+1 replicas: no quorum of 2f+1 can assemble.
  cluster.crash_replica(0);
  cluster.crash_replica(1);
  auto& c = cluster.add_client(1);
  auto w = cluster.write(c, 1, to_bytes("nope"));
  ASSERT_FALSE(w.is_ok());
  EXPECT_EQ(w.status().code(), StatusCode::kTimeout);
}

TEST(BftBcPhaseTest, StoppedClientCannotWrite) {
  Cluster cluster(ClusterOptions{});
  auto& c = cluster.add_client(1);
  ASSERT_TRUE(cluster.write(c, 1, to_bytes("ok")).is_ok());
  cluster.stop_client(1);
  auto w = cluster.write(c, 1, to_bytes("post-stop"));
  ASSERT_FALSE(w.is_ok());
  EXPECT_EQ(w.status().code(), StatusCode::kUnavailable);
}

// ------------------------------------------------------------- liveness

TEST(BftBcLivenessTest, ReaderUnaffectedByConcurrentWriter) {
  // §5.1 / §8: reads terminate in a constant number of rounds regardless
  // of concurrent writers (unlike Martin et al. where concurrent writers
  // can slow readers).
  Cluster cluster(ClusterOptions{});
  auto& writer = cluster.add_client(1);
  auto& reader = cluster.add_client(2);
  ASSERT_TRUE(cluster.write(writer, 1, to_bytes("v0")).is_ok());

  // Start a long stream of writes; interleave reads and confirm each
  // finishes in <= 2 phases.
  int writes_done = 0;
  std::function<void(int)> chain = [&](int i) {
    if (i >= 20) return;
    writer.write(1, to_bytes("v" + std::to_string(i)),
                 [&, i](Result<core::Client::WriteResult> r) {
                   ASSERT_TRUE(r.is_ok());
                   ++writes_done;
                   chain(i + 1);
                 });
  };
  chain(1);

  for (int k = 0; k < 10; ++k) {
    auto r = cluster.read(reader, 1);
    ASSERT_TRUE(r.is_ok());
    EXPECT_LE(r.value().phases, 2);
  }
  ASSERT_TRUE(cluster.run_until([&] { return writes_done == 19; }));
}

TEST(BftBcLivenessTest, ManyClientsManyObjects) {
  Cluster cluster(ClusterOptions{});
  constexpr int kClients = 6;
  constexpr int kObjects = 3;
  for (int c = 1; c <= kClients; ++c) {
    auto& client = cluster.add_client(static_cast<quorum::ClientId>(c));
    for (int o = 0; o < kObjects; ++o) {
      ASSERT_TRUE(cluster
                      .write(client, static_cast<quorum::ObjectId>(o),
                             to_bytes("c" + std::to_string(c) + "o" +
                                      std::to_string(o)))
                      .is_ok());
    }
  }
  // Every object ends at the value of the last client to write it.
  auto& reader = cluster.add_client(100);
  for (int o = 0; o < kObjects; ++o) {
    auto r = cluster.read(reader, static_cast<quorum::ObjectId>(o));
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(to_string(r.value().value),
              "c" + std::to_string(kClients) + "o" + std::to_string(o));
  }
}

}  // namespace
}  // namespace bftbc
