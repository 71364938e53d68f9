// Tier-1 coverage for the sharding subsystem: the static shard map's
// pinned assignments, the routing client (stability, cross-shard
// pipelining, partitioned-shard progress), the per-replica memory
// discipline it pairs with (LRU eviction + reload, supersession GC),
// the checker's history splitter, the multi-shard cluster-config format,
// and MetricsRegistry::claim_unique.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "checker/bft_linearizability.h"
#include "checker/history.h"
#include "harness/cluster.h"
#include "metrics/registry.h"
#include "net/cluster_config.h"
#include "shard/shard_map.h"

namespace bftbc {
namespace {

// ------------------------------------------------------------------
// ShardMap

TEST(ShardMapTest, PinnedAssignments) {
  // Frozen expectations: the assignment is deployment state (it decides
  // which group owns which object), so a change to mix64 or the
  // reduction is a breaking change and must trip a test, not slip by.
  const shard::ShardMap two(2);
  const std::vector<std::uint32_t> expect2 = {1, 0, 1, 0, 0, 0, 1, 0, 0, 0};
  const shard::ShardMap four(4);
  const std::vector<std::uint32_t> expect4 = {1, 2, 1, 2, 2, 0, 3, 2, 0, 2};
  for (quorum::ObjectId id = 1; id <= 10; ++id) {
    EXPECT_EQ(two.shard_of(id), expect2[id - 1]) << "object " << id;
    EXPECT_EQ(four.shard_of(id), expect4[id - 1]) << "object " << id;
  }
}

TEST(ShardMapTest, SingleShardRoutesEverythingToZero) {
  const shard::ShardMap one(1);
  for (quorum::ObjectId id = 0; id < 100; ++id) {
    EXPECT_EQ(one.shard_of(id), 0u);
  }
  // Degenerate construction clamps to one shard rather than dividing by
  // zero.
  EXPECT_EQ(shard::ShardMap(0).shards(), 1u);
}

TEST(ShardMapTest, AssignmentsCoverAllShardsEvenly) {
  const shard::ShardMap map(4);
  std::vector<int> hits(4, 0);
  for (quorum::ObjectId id = 1; id <= 4000; ++id) ++hits[map.shard_of(id)];
  for (int h : hits) {
    EXPECT_GT(h, 800);  // ~1000 each; splitmix64 spreads sequential ids
    EXPECT_LT(h, 1200);
  }
}

TEST(ShardMapTest, ShardKeySeedsAreDistinctAndShardZeroIsBase) {
  EXPECT_EQ(shard::shard_key_seed(42, 0), 42u);
  std::set<std::uint64_t> seeds;
  for (std::uint32_t s = 0; s < 16; ++s) {
    seeds.insert(shard::shard_key_seed(42, s));
  }
  EXPECT_EQ(seeds.size(), 16u);
}

// ------------------------------------------------------------------
// RoutingClient through a two-shard harness::Cluster

// A two-group cluster; the shard-count default is 1.
harness::ClusterOptions two_shards() {
  harness::ClusterOptions o;
  o.shards = 2;
  return o;
}

TEST(RoutingClientTest, WritesLandOnlyOnTheOwningGroup) {
  harness::Cluster cluster(two_shards());
  auto& c = cluster.add_client(1);
  for (quorum::ObjectId id = 1; id <= 6; ++id) {
    ASSERT_TRUE(cluster.write(c, id, to_bytes("v" + std::to_string(id)))
                    .is_ok());
  }
  for (quorum::ObjectId id = 1; id <= 6; ++id) {
    const std::uint32_t home = cluster.shard_of(id);
    const std::uint32_t other = 1 - home;
    EXPECT_NE(cluster.replica(0, home).find_object(id), nullptr)
        << "object " << id << " missing from its home shard";
    EXPECT_EQ(cluster.replica(0, other).find_object(id), nullptr)
        << "object " << id << " leaked to the other shard";
    auto r = cluster.read(c, id);
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(r.value().value, to_bytes("v" + std::to_string(id)));
  }
}

TEST(RoutingClientTest, CrossShardWindowPipelinesAndQueues) {
  harness::ClusterOptions o = two_shards();
  o.optimized = true;
  o.routing.max_inflight_total = 2;
  harness::Cluster cluster(o);
  core::ClientOptions copts;
  copts.optimized = true;  // explicit options skip the mode overlay
  copts.max_inflight = 4;
  auto& c = cluster.add_client(1, copts);

  // Objects 1 and 3 live on shard 1, objects 2 and 4 on shard 0 (pinned
  // above): the submissions alternate groups, so the window genuinely
  // spans shards.
  int completed = 0;
  int failed = 0;
  for (int i = 0; i < 8; ++i) {
    c.submit_write(static_cast<quorum::ObjectId>(1 + (i % 4)),
                   to_bytes("p" + std::to_string(i)),
                   [&completed, &failed](Result<core::Client::WriteResult> r) {
                     ++completed;
                     if (!r.is_ok()) ++failed;
                   });
  }
  // More submissions than the window: the router must be holding a
  // backlog right now, with exactly the window's worth dispatched.
  EXPECT_EQ(c.inflight_total(), 2u);
  EXPECT_EQ(c.queued_writes(), 6u);
  EXPECT_TRUE(cluster.run_until([&completed] { return completed == 8; }));
  EXPECT_EQ(failed, 0);
  EXPECT_EQ(c.metrics().get("writes"), 8u);
  EXPECT_EQ(c.metrics().get("inflight_peak"), 2u);
  EXPECT_GE(c.metrics().get("queued_writes"), 6u);
  EXPECT_EQ(c.inflight_total(), 0u);
  EXPECT_EQ(c.queued_writes(), 0u);
}

TEST(RoutingClientTest, PartitionedShardStallsOnlyItsOwnObjects) {
  harness::Cluster cluster(two_shards());
  auto& c = cluster.add_client(1);
  // Seed both groups before the cut.
  ASSERT_TRUE(cluster.write(c, 1, to_bytes("one")).is_ok());   // shard 1
  ASSERT_TRUE(cluster.write(c, 2, to_bytes("two")).is_ok());   // shard 0

  cluster.partition_shard(1);
  bool stalled_done = false;
  c.write(1, to_bytes("stalled"),
          [&stalled_done](Result<core::Client::WriteResult>) {
            stalled_done = true;
          });
  // Progress on the healthy group while shard 1 is unreachable.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(cluster.write(c, 2, to_bytes("w" + std::to_string(i)))
                    .is_ok());
    EXPECT_FALSE(stalled_done);
  }
  auto healthy_read = cluster.read(c, 2);
  ASSERT_TRUE(healthy_read.is_ok());
  EXPECT_EQ(healthy_read.value().value, to_bytes("w2"));

  // Healing lets the stalled op finish via retransmission.
  cluster.heal_shard(1);
  EXPECT_TRUE(cluster.run_until([&stalled_done] { return stalled_done; }));
  auto healed_read = cluster.read(c, 1);
  ASSERT_TRUE(healed_read.is_ok());
  EXPECT_EQ(healed_read.value().value, to_bytes("stalled"));
}

// ------------------------------------------------------------------
// Memory discipline: eviction + reload, supersession GC

TEST(EvictionTest, EvictedObjectReReadRoundTrips) {
  harness::ClusterOptions o;
  o.replica.max_resident_objects = 4;
  harness::Cluster cluster(o);
  auto& c = cluster.add_client(1);
  for (quorum::ObjectId id = 1; id <= 12; ++id) {
    ASSERT_TRUE(cluster.write(c, id, to_bytes("v" + std::to_string(id)))
                    .is_ok());
  }
  std::uint64_t evicted = 0;
  for (quorum::ReplicaId r = 0; r < cluster.config().n; ++r) {
    EXPECT_LE(cluster.replica(r).resident_objects(), 4u);
    evicted += cluster.replica(r).metrics().get("objects_evicted");
  }
  EXPECT_GT(evicted, 0u);

  // Object 1 is long cold: the read must reload it from the serialized
  // store and return the exact value written.
  auto r = cluster.read(c, 1);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().value, to_bytes("v1"));
  std::uint64_t reloaded = 0;
  for (quorum::ReplicaId rep = 0; rep < cluster.config().n; ++rep) {
    reloaded += cluster.replica(rep).metrics().get("objects_reloaded");
  }
  EXPECT_GT(reloaded, 0u);

  // And the reloaded object keeps working for new writes.
  ASSERT_TRUE(cluster.write(c, 1, to_bytes("fresh")).is_ok());
  auto again = cluster.read(c, 1);
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(again.value().value, to_bytes("fresh"));
}

TEST(GcTest, SupersededWriteCertificatesReclaimLists) {
  harness::Cluster cluster;
  auto& c = cluster.add_client(1);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(cluster.write(c, 1, to_bytes("v" + std::to_string(i)))
                    .is_ok());
  }
  std::uint64_t reclaimed = 0;
  for (quorum::ReplicaId r = 0; r < cluster.config().n; ++r) {
    reclaimed += cluster.replica(r).metrics().get("gc_reclaimed");
  }
  // Each committed write supersedes the previous prepare-list entry at
  // every replica that held one.
  EXPECT_GT(reclaimed, 0u);
}

// ------------------------------------------------------------------
// History splitter

TEST(SplitHistoryTest, PartitionsOpsAndCopiesStopsEverywhere) {
  checker::History h;
  for (int i = 0; i < 8; ++i) {
    const auto object = static_cast<checker::ObjectId>(1 + (i % 4));
    const auto t = static_cast<sim::Time>(10 * i);
    const std::size_t tok = h.begin_write(1, object, t, to_bytes("v"));
    h.end_write(tok, t + 5, quorum::Timestamp{static_cast<std::uint64_t>(
                                                  1 + i / 4),
                                              1});
  }
  h.record_stop(66, 35);

  const auto parts = checker::split_history(
      h, 2, [](checker::ObjectId object) { return object % 2; });
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0].completed_count() + parts[1].completed_count(),
            h.completed_count());
  for (const auto& part : parts) {
    ASSERT_EQ(part.stops().size(), 1u);
    EXPECT_EQ(part.stops()[0].client, 66u);
  }
  for (const auto& op : parts[0].operations()) EXPECT_EQ(op.object % 2, 0u);
  for (const auto& op : parts[1].operations()) EXPECT_EQ(op.object % 2, 1u);
  // Each part is a complete verifiable history in its own right.
  for (const auto& part : parts) {
    const auto check = checker::check_bft_linearizability(part, {66});
    EXPECT_TRUE(check.ok(1)) << check.summary();
  }
}

TEST(SplitHistoryTest, ZeroPartsDegeneratesToOne) {
  checker::History h;
  const std::size_t tok = h.begin_write(1, 7, 0, to_bytes("x"));
  h.end_write(tok, 1, quorum::Timestamp{1, 1});
  const auto parts =
      checker::split_history(h, 0, [](checker::ObjectId) { return 0u; });
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0].completed_count(), 1u);
}

// ------------------------------------------------------------------
// ClusterConfig "shards" format

constexpr const char* kTwoShardJson = R"({
  "f": 1,
  "mode": "optimized",
  "key_seed": 42,
  "shards": [
    {"replicas": [
      {"host": "127.0.0.1", "port": 5600},
      {"host": "127.0.0.1", "port": 5601},
      {"host": "127.0.0.1", "port": 5602},
      {"host": "127.0.0.1", "port": 5603}
    ]},
    {"replicas": [
      {"host": "127.0.0.1", "port": 5610},
      {"host": "127.0.0.1", "port": 5611},
      {"host": "127.0.0.1", "port": 5612},
      {"host": "127.0.0.1", "port": 5613}
    ]}
  ]
})";

TEST(ClusterConfigShardsTest, ParsesShardGroups) {
  auto parsed = net::ClusterConfig::parse(kTwoShardJson);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();
  const net::ClusterConfig& cfg = parsed.value();
  EXPECT_EQ(cfg.shard_count(), 2u);
  ASSERT_EQ(cfg.shard_groups.size(), 2u);
  EXPECT_EQ(cfg.shard_groups[1][3].port, 5613);
  ASSERT_EQ(cfg.shard_groups[0].size(), 4u);
  EXPECT_EQ(cfg.shard_groups[0][0].port, 5600);
  // Per-shard seeds: shard 0 is the base, others derive via
  // shard_key_seed — same function the sim harness and bftbcd use.
  EXPECT_EQ(cfg.shard_seed(0), 42u);
  EXPECT_EQ(cfg.shard_seed(1), shard::shard_key_seed(42, 1));
  EXPECT_NE(cfg.shard_seed(1), cfg.shard_seed(0));
}

TEST(ClusterConfigShardsTest, PerShardEndpointTables) {
  auto parsed = net::ClusterConfig::parse(kTwoShardJson);
  ASSERT_TRUE(parsed.is_ok());
  auto shard1 = net::replica_endpoints(parsed.value(), 1);
  ASSERT_TRUE(shard1.is_ok());
  EXPECT_EQ(shard1.value().at(0).to_string(), "127.0.0.1:5610");
  auto shard0 = net::replica_endpoints(parsed.value(), 0);
  ASSERT_TRUE(shard0.is_ok());
  EXPECT_EQ(shard0.value().at(0).to_string(), "127.0.0.1:5600");
  EXPECT_FALSE(net::replica_endpoints(parsed.value(), 2).is_ok());
}

TEST(ClusterConfigShardsTest, ReplicasAndShardsAreMutuallyExclusive) {
  const std::string both = R"({
    "f": 1,
    "replicas": [{"host": "127.0.0.1", "port": 1}, {"host": "127.0.0.1",
      "port": 2}, {"host": "127.0.0.1", "port": 3}, {"host": "127.0.0.1",
      "port": 4}],
    "shards": [{"replicas": [{"host": "127.0.0.1", "port": 1},
      {"host": "127.0.0.1", "port": 2}, {"host": "127.0.0.1", "port": 3},
      {"host": "127.0.0.1", "port": 4}]}]
  })";
  EXPECT_FALSE(net::ClusterConfig::parse(both).is_ok());
}

TEST(ClusterConfigShardsTest, RejectsMalformedShardGroups) {
  // Empty shards array.
  EXPECT_FALSE(net::ClusterConfig::parse(R"({"f": 1, "shards": []})")
                   .is_ok());
  // A group with the wrong replica count (needs 3f+1 = 4).
  const std::string short_group = R"({
    "f": 1,
    "shards": [{"replicas": [{"host": "127.0.0.1", "port": 1},
      {"host": "127.0.0.1", "port": 2}, {"host": "127.0.0.1", "port": 3}]}]
  })";
  EXPECT_FALSE(net::ClusterConfig::parse(short_group).is_ok());
  // A group entry that is not an object.
  EXPECT_FALSE(net::ClusterConfig::parse(R"({"f": 1, "shards": [42]})")
                   .is_ok());
  // A group entry with no replicas array.
  EXPECT_FALSE(net::ClusterConfig::parse(R"({"f": 1, "shards": [{}]})")
                   .is_ok());
}

// ------------------------------------------------------------------
// MetricsRegistry::claim_unique

TEST(ClaimUniqueTest, DisambiguatesDuplicateClaims) {
  metrics::MetricsRegistry reg;
  EXPECT_EQ(reg.claim_unique("client.write.total_ms"),
            "client.write.total_ms");
  EXPECT_EQ(reg.claim_unique("client.write.total_ms"),
            "client.write.total_ms#2");
  EXPECT_EQ(reg.claim_unique("client.write.total_ms"),
            "client.write.total_ms#3");
  // The disambiguated names resolve to distinct summaries: two routers
  // on one registry never silently merge their latency populations.
  reg.summary("client.write.total_ms").add(1.0);
  reg.summary("client.write.total_ms#2").add(100.0);
  EXPECT_EQ(reg.summary("client.write.total_ms").snapshot().count, 1u);
  EXPECT_EQ(reg.summary("client.write.total_ms#2").snapshot().count, 1u);
}

TEST(ClaimUniqueTest, ShardedClusterClientsGetDistinctSummaries) {
  harness::Cluster cluster(two_shards());
  auto& c1 = cluster.add_client(1);
  auto& c2 = cluster.add_client(2);
  ASSERT_TRUE(cluster.write(c1, 1, to_bytes("a")).is_ok());
  ASSERT_TRUE(cluster.write(c2, 2, to_bytes("b")).is_ok());
  auto& reg = cluster.metrics_registry();
  // First router owns the base names, second got "#2" — one op each.
  EXPECT_EQ(reg.summary("client.write.total_ms").snapshot().count, 1u);
  EXPECT_EQ(reg.summary("client.write.total_ms#2").snapshot().count, 1u);
}

}  // namespace
}  // namespace bftbc
