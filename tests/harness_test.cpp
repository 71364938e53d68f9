// Tests for harness utilities: the table renderer, the Recorder's
// failure paths, and Cluster configuration knobs not covered elsewhere.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <sstream>
#include <string>

#include "checker/bft_linearizability.h"
#include "harness/cluster.h"
#include "harness/recording.h"
#include "harness/table.h"

namespace bftbc::harness {
namespace {

TEST(TableTest, AlignsColumnsToWidestCell) {
  Table t({"a", "long-header"});
  t.add_row({"wide-cell-content", "x"});
  std::ostringstream out;
  t.print(out);
  const std::string s = out.str();
  // Header row, separator, data row.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 3);
  // Separator contains the + column joint.
  EXPECT_NE(s.find('+'), std::string::npos);
  // All three lines equal length (alignment).
  std::istringstream lines(s);
  std::string l1, l2, l3;
  std::getline(lines, l1);
  std::getline(lines, l2);
  std::getline(lines, l3);
  EXPECT_EQ(l1.size(), l3.size());
}

TEST(TableTest, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(3.0, 0), "3");
  EXPECT_EQ(Table::num(0.5), "0.50");
}

TEST(RecorderTest, FailedOpsAreAborted) {
  ClusterOptions o;
  o.client_defaults.op_deadline = sim::kSecond;
  Cluster cluster(o);
  // No quorum reachable: every op fails and must be excluded from the
  // history (aborted), never recorded as completed.
  cluster.crash_replica(0);
  cluster.crash_replica(1);
  checker::History history;
  Recorder rec(cluster, history);
  auto& c = cluster.add_client(1);
  EXPECT_FALSE(rec.write(c, 1, to_bytes("v")).is_ok());
  EXPECT_FALSE(rec.read(c, 1).is_ok());
  EXPECT_EQ(history.completed_count(), 0u);
  auto check = checker::check_bft_linearizability(history, {});
  EXPECT_TRUE(check.ok(0));
}

TEST(RecorderTest, StopEventRecordedWithRevocation) {
  Cluster cluster{ClusterOptions()};
  checker::History history;
  Recorder rec(cluster, history);
  cluster.add_client(7);
  rec.stop_client(7);
  ASSERT_EQ(history.stops().size(), 1u);
  EXPECT_EQ(history.stops()[0].client, 7u);
  EXPECT_TRUE(cluster.keystore().is_revoked(quorum::client_principal(7)));
}

TEST(ClusterTest, AddClientIsIdempotent) {
  Cluster cluster{ClusterOptions()};
  auto& a = cluster.add_client(1);
  auto& b = cluster.add_client(1);
  EXPECT_EQ(&a, &b);
}

TEST(ClusterTest, PerClientOptionsOverrideDefaults) {
  ClusterOptions o;
  o.optimized = true;
  Cluster cluster(o);
  // Default-built client inherits optimized mode...
  auto& fast = cluster.add_client(1);
  EXPECT_TRUE(fast.shard_client(0).options().optimized);
  // ...but explicit options win.
  core::ClientOptions plain;
  plain.optimized = false;
  auto& slow = cluster.add_client(2, plain);
  EXPECT_FALSE(slow.shard_client(0).options().optimized);
}

TEST(ClusterTest, ReplicaFactorySlotsApplied) {
  int factory_calls = 0;
  ClusterOptions o;
  o.replica_factories[2] = [&factory_calls](
                               const quorum::QuorumConfig& cfg,
                               quorum::ReplicaId id, crypto::Keystore& ks,
                               rpc::Transport& t, sim::Scheduler& s,
                               const core::ReplicaOptions& opts)
      -> std::unique_ptr<core::Replica> {
    ++factory_calls;
    return std::make_unique<core::Replica>(cfg, id, ks, t, s, opts);
  };
  Cluster cluster(o);
  EXPECT_EQ(factory_calls, 1);
  EXPECT_EQ(cluster.replica(2).id(), 2u);
}

TEST(ClusterTest, ModeFlagsPropagateToReplicas) {
  ClusterOptions o;
  o.optimized = true;
  o.strong = true;
  Cluster cluster(o);
  for (quorum::ReplicaId r = 0; r < cluster.config().n; ++r) {
    EXPECT_TRUE(cluster.replica(r).options().optimized);
    EXPECT_TRUE(cluster.replica(r).options().strong);
  }
}

TEST(ClusterTest, PipelinedWritesKeepPerObjectOrder) {
  Cluster cluster;
  core::ClientOptions copt;
  copt.max_inflight = 2;
  auto& c = cluster.add_client(1, copt);

  // Nine writes over three objects through a window of two. Per-object
  // FIFO must hold: each object's writes commit in submission order with
  // strictly increasing timestamps.
  std::map<quorum::ObjectId, std::vector<quorum::Timestamp>> commits;
  int done = 0;
  for (int i = 0; i < 9; ++i) {
    const auto obj = static_cast<quorum::ObjectId>(1 + i % 3);
    c.submit_write(obj, to_bytes("v" + std::to_string(i)),
                   [&, obj](Result<core::Client::WriteResult> r) {
                     ++done;
                     ASSERT_TRUE(r.is_ok());
                     commits[obj].push_back(r.value().ts);
                   });
  }
  // The window is the protocol client's own (one shard, one leg).
  const core::Client& leg = c.shard_client(0);
  EXPECT_LE(leg.inflight_writes(), 2u);
  ASSERT_TRUE(cluster.run_until([&] { return done == 9; }));
  EXPECT_EQ(leg.queued_writes(), 0u);
  EXPECT_LE(leg.metrics().get("inflight_peak"), 2u);
  EXPECT_GT(leg.metrics().get("queued_writes"), 0u);
  for (const auto& [obj, ts] : commits) {
    ASSERT_EQ(ts.size(), 3u) << "object " << obj;
    EXPECT_LT(ts[0], ts[1]) << "object " << obj;
    EXPECT_LT(ts[1], ts[2]) << "object " << obj;
  }
  // Every object readable with its final value.
  for (quorum::ObjectId obj = 1; obj <= 3; ++obj) {
    auto r = cluster.read(c, obj);
    ASSERT_TRUE(r.is_ok());
  }
}

TEST(ClusterTest, CoalescedClusterMatchesUncoalescedResults) {
  auto run = [](bool coalesce) {
    ClusterOptions o;
    o.seed = 11;
    o.coalesce_sends = coalesce;
    Cluster cluster(o);
    core::ClientOptions copt;
    copt.max_inflight = 4;
    copt.rpc.initial_fanout = cluster.config().q;
    auto& c = cluster.add_client(1, copt);
    int done = 0;
    std::vector<std::string> outcomes;
    for (int i = 0; i < 12; ++i) {
      c.submit_write(static_cast<quorum::ObjectId>(1 + i % 4),
                     to_bytes("v" + std::to_string(i)),
                     [&](Result<core::Client::WriteResult> r) {
                       ++done;
                       outcomes.push_back(r.is_ok() ? "ok" : "fail");
                     });
    }
    EXPECT_TRUE(cluster.run_until([&] { return done == 12; }));
    std::vector<std::string> values;
    for (quorum::ObjectId obj = 1; obj <= 4; ++obj) {
      auto r = cluster.read(c, obj);
      EXPECT_TRUE(r.is_ok());
      if (r.is_ok()) values.push_back(to_string(r.value().value));
    }
    std::uint64_t msgs = cluster.net().counters().get("msgs_sent");
    std::uint64_t amortized = 0, batches = 0;
    for (quorum::ReplicaId r = 0; r < cluster.config().n; ++r) {
      amortized += cluster.replica(r).metrics().get("auth_p2p_amortized");
      batches += cluster.replica(r).metrics().get("reply_batches");
    }
    return std::make_tuple(outcomes, values, msgs, amortized, batches);
  };

  const auto plain = run(false);
  const auto coalesced = run(true);
  // Same protocol outcomes either way — coalescing is wire-level only.
  EXPECT_EQ(std::get<0>(plain), std::get<0>(coalesced));
  EXPECT_EQ(std::get<1>(plain), std::get<1>(coalesced));
  // And the coalesced run actually exercised the hot path: fewer wire
  // messages, some reply authenticators amortized into batch MACs.
  EXPECT_LT(std::get<2>(coalesced), std::get<2>(plain));
  EXPECT_EQ(std::get<3>(plain), 0u);
  EXPECT_GT(std::get<3>(coalesced), 0u);
  EXPECT_GT(std::get<4>(coalesced), 0u);
}

TEST(ClusterTest, DeterministicAcrossIdenticalRuns) {
  auto run = [](std::uint64_t seed) {
    ClusterOptions o;
    o.seed = seed;
    o.link.loss_probability = 0.1;
    Cluster cluster(o);
    auto& c = cluster.add_client(1);
    std::vector<sim::Time> completion_times;
    for (int i = 0; i < 5; ++i) {
      (void)cluster.write(c, 1, to_bytes("v" + std::to_string(i)));
      completion_times.push_back(cluster.sim().now());
    }
    return completion_times;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

// ---- crash/restart with state-transfer recovery ------------------------

TEST(ClusterRestartTest, RestartedReplicaRebuildsStateFromQuorum) {
  Cluster cluster{ClusterOptions()};
  auto& c = cluster.add_client(1);
  ASSERT_TRUE(cluster.write(c, 1, to_bytes("survives")).is_ok());
  ASSERT_TRUE(cluster.write(c, 2, to_bytes("also")).is_ok());

  // Fail-stop restart with amnesia: replica 2 loses every ObjectState.
  cluster.restart_replica(2, {1, 2});
  ASSERT_TRUE(cluster.run_until(
      [&] { return !cluster.replica(2).recovering(); }, sim::kSecond));

  const core::ObjectState* obj = cluster.replica(2).find_object(1);
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(obj->data(), to_bytes("survives"));
  EXPECT_FALSE(obj->pcert().is_genesis());
  EXPECT_GE(cluster.replica(2).metrics().get("state_recovered_objects"), 2u);
}

TEST(ClusterRestartTest, WriteDuringDowntimeReachesRestartedReplica) {
  // A write completes while replica 3 is down (q=3 of the other
  // replicas suffices); the restarted replica must catch up to it via
  // state transfer, not serve its pre-crash (empty) state.
  Cluster cluster{ClusterOptions()};
  auto& c = cluster.add_client(1);
  ASSERT_TRUE(cluster.write(c, 1, to_bytes("old")).is_ok());
  cluster.crash_replica(3);
  ASSERT_TRUE(cluster.write(c, 1, to_bytes("newer")).is_ok());
  cluster.restart_replica(3, {1});
  ASSERT_TRUE(cluster.run_until(
      [&] { return !cluster.replica(3).recovering(); }, sim::kSecond));
  const core::ObjectState* obj = cluster.replica(3).find_object(1);
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(obj->data(), to_bytes("newer"));
}

TEST(ClusterRestartTest, ClientTrafficDroppedUntilRecoveryCompletes) {
  // An amnesiac replica grants prepares it may have granted before the
  // crash (its Lemma-1 plist memory is gone), so all client protocol is
  // refused until the state transfer finishes. The cluster still makes
  // progress: q=3 of the remaining replicas absorb the write, and the
  // recovering replica counts the drops.
  Cluster cluster{ClusterOptions()};
  auto& c = cluster.add_client(1);
  ASSERT_TRUE(cluster.write(c, 1, to_bytes("seed")).is_ok());
  cluster.restart_replica(0, {1});
  // Drive a write immediately — its phase-1 fan-out races the recovery's
  // state-transfer round and hits replica 0 while it is still amnesiac.
  ASSERT_TRUE(cluster.write(c, 1, to_bytes("during-recovery")).is_ok());
  cluster.settle();
  EXPECT_FALSE(cluster.replica(0).recovering());
  EXPECT_GE(cluster.replica(0).metrics().get("drop_recovering"), 1u);
  // And a follow-up read still returns the latest value.
  auto read = cluster.read(c, 1);
  ASSERT_TRUE(read.is_ok());
  EXPECT_EQ(read.value().value, to_bytes("during-recovery"));
}

// ---- READ-REPLY authenticators cover sha256(value) ---------------------
//
// A replica authenticates a READ-REPLY with its certificate's digest in
// place of hashing the value again, which is sound only while
// pcert().hash() == sha256(data()). A client checks the reply against the
// value's own hash, so it must verify in every state a correct replica
// reaches: genesis, after a write, after eviction and reload, and after
// state transfer. Parameterized on MAC (true) or signature (false) auth.

class ReadReplyAuthTest : public ::testing::TestWithParam<bool> {
 protected:
  static constexpr quorum::ClientId kProbe = 66;

  static ClusterOptions options() {
    ClusterOptions o;
    o.mac_auth = GetParam();
    return o;
  }

  // READs `object` from replica r as client kProbe (a registered principal
  // with no protocol client) and checks the reply's value and auth.
  void expect_authentic_read(Cluster& cluster, quorum::ReplicaId r,
                             quorum::ObjectId object, const Bytes& want) {
    crypto::Keystore& ks = cluster.keystore();
    const crypto::PrincipalId me = quorum::client_principal(kProbe);
    ks.register_principal(me);
    auto probe = cluster.make_transport(client_node(kProbe));
    std::optional<core::ReadReply> reply;
    probe->set_receiver([&](sim::NodeId, const rpc::Envelope& env) {
      if (env.type == rpc::MsgType::kReadReply) {
        reply = core::ReadReply::decode(env.body);
      }
    });
    core::ReadRequest req;
    req.object = object;
    req.nonce = crypto::Nonce{me, ++rpc_id_, 0};
    rpc::Envelope env;
    env.type = rpc::MsgType::kRead;
    env.rpc_id = rpc_id_;
    env.sender = me;
    env.body = req.encode();
    probe->send(cluster.replica_nodes()[r], env);
    ASSERT_TRUE(cluster.run_until([&] { return reply.has_value(); }));
    EXPECT_EQ(reply->value, want);
    const Bytes payload = reply->signing_payload(crypto::sha256(reply->value));
    const crypto::PrincipalId from = quorum::replica_principal(r);
    EXPECT_TRUE(GetParam() ? ks.mac_check(from, me, payload, reply->auth)
                           : ks.verify(from, payload, reply->auth));
  }

  std::uint64_t rpc_id_ = 0;
};

TEST_P(ReadReplyAuthTest, AtGenesis) {
  Cluster cluster(options());
  expect_authentic_read(cluster, 0, 1, Bytes{});
}

TEST_P(ReadReplyAuthTest, AfterWrite) {
  Cluster cluster(options());
  auto& c = cluster.add_client(1);
  ASSERT_TRUE(cluster.write(c, 1, to_bytes("written")).is_ok());
  cluster.settle();
  for (quorum::ReplicaId r = 0; r < cluster.config().n; ++r) {
    expect_authentic_read(cluster, r, 1, to_bytes("written"));
  }
}

TEST_P(ReadReplyAuthTest, AfterEvictionAndReload) {
  ClusterOptions o = options();
  o.replica.max_resident_objects = 1;
  Cluster cluster(o);
  auto& c = cluster.add_client(1);
  ASSERT_TRUE(cluster.write(c, 1, to_bytes("evicted")).is_ok());
  ASSERT_TRUE(cluster.write(c, 2, to_bytes("resident")).is_ok());
  cluster.settle();
  ASSERT_GE(cluster.replica(0).metrics().get("objects_evicted"), 1u);
  const std::uint64_t reloads =
      cluster.replica(0).metrics().get("objects_reloaded");
  expect_authentic_read(cluster, 0, 1, to_bytes("evicted"));
  EXPECT_EQ(cluster.replica(0).metrics().get("objects_reloaded"), reloads + 1);
}

TEST_P(ReadReplyAuthTest, AfterStateTransfer) {
  Cluster cluster(options());
  auto& c = cluster.add_client(1);
  ASSERT_TRUE(cluster.write(c, 1, to_bytes("transferred")).is_ok());
  cluster.restart_replica(2, {1});
  ASSERT_TRUE(cluster.run_until(
      [&] { return !cluster.replica(2).recovering(); }, sim::kSecond));
  ASSERT_GE(cluster.replica(2).metrics().get("state_recovered_objects"), 1u);
  expect_authentic_read(cluster, 2, 1, to_bytes("transferred"));
}

INSTANTIATE_TEST_SUITE_P(Auth, ReadReplyAuthTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "Mac" : "Signature";
                         });

TEST(ClusterRestartTest, RecoveryIsDeterministic) {
  auto run = [](std::uint64_t seed) {
    ClusterOptions o;
    o.seed = seed;
    o.link.loss_probability = 0.05;
    Cluster cluster(o);
    auto& c = cluster.add_client(1);
    (void)cluster.write(c, 1, to_bytes("a"));
    cluster.restart_replica(1, {1});
    (void)cluster.write(c, 1, to_bytes("b"));
    cluster.settle();
    return cluster.sim().now();
  };
  EXPECT_EQ(run(7), run(7));
}

// ------------------------------------------------------------------
// Node and metric layout: the committed BENCH_*.json baselines read the
// single-group names, so S = 1 must keep them exactly.

// Every counter, gauge, summary and histogram name in the registry.
std::set<std::string> metric_names(metrics::MetricsRegistry& reg) {
  std::set<std::string> names;
  for (const auto* table :
       {&reg.counter_names(), &reg.gauge_names(), &reg.summary_names(),
        &reg.histogram_names()}) {
    for (const auto& entry : *table) names.insert(entry.first);
  }
  return names;
}

bool any_name_starts_with(const std::set<std::string>& names,
                          const std::string& prefix) {
  for (const std::string& name : names) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

TEST(ClusterLayoutTest, SingleGroupKeepsUnscopedNodesAndNames) {
  Cluster cluster;
  ASSERT_EQ(cluster.shards(), 1u);
  const std::vector<sim::NodeId> nodes = cluster.replica_nodes();
  ASSERT_EQ(nodes.size(), cluster.config().n);
  for (quorum::ReplicaId r = 0; r < cluster.config().n; ++r) {
    EXPECT_EQ(nodes[r], r);
  }
  auto& a = cluster.add_client(1);
  auto& b = cluster.add_client(2);
  ASSERT_TRUE(cluster.write(a, 1, to_bytes("x")).is_ok());
  ASSERT_TRUE(cluster.read(b, 1).is_ok());

  // Client legs send from kClientNodeBase + c.
  std::set<std::uint64_t> senders;
  for (const auto& event : cluster.tracer().events()) {
    if (event.kind == metrics::TraceKind::kMsgSend) senders.insert(event.a);
  }
  EXPECT_EQ(senders.count(kClientNodeBase + 1), 1u);
  EXPECT_EQ(senders.count(kClientNodeBase + 2), 1u);
  for (std::uint64_t node : senders) {
    EXPECT_TRUE(node < cluster.config().n ||
                node == kClientNodeBase + 1 || node == kClientNodeBase + 2)
        << node;
  }

  const std::set<std::string> names = metric_names(cluster.snapshot_metrics());
  EXPECT_TRUE(any_name_starts_with(names, "replica/0/"));
  EXPECT_TRUE(any_name_starts_with(names, "client/1/"));
  EXPECT_EQ(names.count("client/1/writes"), 1u);
  EXPECT_EQ(names.count("client/2/reads"), 1u);
  EXPECT_EQ(names.count("client.write.total_ms"), 1u);
  EXPECT_EQ(names.count("client.read.total_ms"), 1u);
  EXPECT_FALSE(any_name_starts_with(names, "shard/"));
  for (const std::string& name : names) {
    EXPECT_EQ(name.find("#2"), std::string::npos) << name;
  }
}

TEST(ClusterLayoutTest, MultiShardNamesCarryShardScope) {
  ClusterOptions o;
  o.shards = 2;
  Cluster cluster(o);
  for (quorum::ReplicaId r = 0; r < cluster.config().n; ++r) {
    EXPECT_EQ(cluster.replica_nodes(0)[r], r);
    EXPECT_EQ(cluster.replica_nodes(1)[r], kShardNodeStride + r);
  }
  auto& c = cluster.add_client(1);
  // Object 1 lives on shard 1, object 2 on shard 0.
  ASSERT_TRUE(cluster.write(c, 1, to_bytes("one")).is_ok());
  ASSERT_TRUE(cluster.write(c, 2, to_bytes("two")).is_ok());

  const std::set<std::string> names = metric_names(cluster.snapshot_metrics());
  EXPECT_TRUE(any_name_starts_with(names, "shard/0/replica/0/"));
  EXPECT_TRUE(any_name_starts_with(names, "shard/1/replica/0/"));
  EXPECT_TRUE(any_name_starts_with(names, "shard/0/client/1/"));
  EXPECT_TRUE(any_name_starts_with(names, "shard/1/client/1/"));
  EXPECT_EQ(names.count("shard/0/client.write.total_ms"), 1u);
  EXPECT_EQ(names.count("shard/1/client.write.total_ms"), 1u);
  // The router owns the unscoped aggregate and the client/<id> folds.
  EXPECT_EQ(names.count("client.write.total_ms"), 1u);
  EXPECT_EQ(names.count("client/1/writes"), 1u);
  EXPECT_FALSE(any_name_starts_with(names, "replica/"));
}

}  // namespace
}  // namespace bftbc::harness
