// Randomized whole-system stress test ("nemesis" style): concurrent
// clients, message loss/duplication/corruption, replica crashes and
// recoveries, partitions, a Byzantine replica, and a Byzantine client
// with a colluder — all at once, across many seeds, each run validated
// by the BFT-linearizability checker.
//
// This is the closest thing to the paper's implicit claim: the protocol
// composes all its defenses simultaneously, not one attack at a time.
#include <functional>
#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "checker/bft_linearizability.h"
#include "faults/byzantine_client.h"
#include "faults/byzantine_replica.h"
#include "harness/cluster.h"
#include "util/flags.h"

namespace bftbc {

// --seed override: 0 means "run the built-in seed table". Set in main()
// before InitGoogleTest materializes the parameter generators; a single
// seed runs in both base and optimized modes.
std::uint64_t g_seed_override = 0;

namespace {

using checker::History;
using harness::Cluster;
using harness::ClusterOptions;

struct StressParam {
  std::uint64_t seed;
  bool optimized;
};

class StressTest : public ::testing::TestWithParam<StressParam> {};

TEST_P(StressTest, ChaosRunStaysBftLinearizable) {
  const StressParam param = GetParam();
  SCOPED_TRACE(::testing::Message()
               << "reproduce with: --seed " << param.seed);
  Rng meta(param.seed);

  ClusterOptions o;
  o.f = 1;
  o.seed = param.seed;
  o.optimized = param.optimized;
  o.link.loss_probability = 0.05;
  o.link.duplicate_probability = 0.05;
  o.link.corrupt_probability = 0.01;
  // One Byzantine replica (species by seed), within the f budget.
  const harness::ReplicaFactory species[] = {
      harness::replica_factory<faults::SilentReplica>(),
      harness::replica_factory<faults::StaleReplica>(),
      harness::replica_factory<faults::GarbageSigReplica>(),
      harness::replica_factory<faults::FlipValueReplica>()};
  o.replica_factories[3] = species[meta.next_below(4)];
  Cluster cluster(o);
  History history;

  constexpr int kClients = 4;
  constexpr int kOpsPerClient = 15;
  constexpr quorum::ObjectId kObjects[] = {1, 2};

  // --- concurrent good clients, each chaining random ops ---------------
  int completed = 0;
  int failed = 0;
  std::vector<shard::RoutingClient*> clients;
  std::vector<Rng> client_rngs;
  for (int c = 1; c <= kClients; ++c) {
    clients.push_back(&cluster.add_client(static_cast<quorum::ClientId>(c)));
    client_rngs.push_back(cluster.rng().split());
  }

  std::function<void(int, int)> step = [&](int c, int op) {
    if (op >= kOpsPerClient) return;
    Rng& rng = client_rngs[static_cast<std::size_t>(c)];
    shard::RoutingClient& client = *clients[static_cast<std::size_t>(c)];
    const quorum::ObjectId object = kObjects[rng.next_below(2)];
    if (rng.next_bool(0.5)) {
      const Bytes value = to_bytes("c" + std::to_string(c + 1) + "op" +
                                   std::to_string(op));
      const std::size_t token = history.begin_write(
          client.id(), object, cluster.sim().now(), value);
      client.write(object, value,
                   [&, token, c, op](Result<core::Client::WriteResult> r) {
                     if (r.is_ok()) {
                       history.end_write(token, cluster.sim().now(),
                                         r.value().ts);
                       ++completed;
                     } else {
                       history.abort(token);
                       ++failed;
                     }
                     step(c, op + 1);
                   });
    } else {
      const std::size_t token =
          history.begin_read(client.id(), object, cluster.sim().now());
      client.read(object,
                  [&, token, c, op](Result<core::Client::ReadResult> r) {
                    if (r.is_ok()) {
                      history.end_read(token, cluster.sim().now(),
                                       r.value().ts, r.value().hash,
                                       r.value().value);
                      ++completed;
                    } else {
                      history.abort(token);
                      ++failed;
                    }
                    step(c, op + 1);
                  });
    }
  };
  for (int c = 0; c < kClients; ++c) step(c, 0);

  // --- nemesis: crash/recover one replica, flap a partition ------------
  // Only replicas 0..2 are crash candidates (replica 3 is Byzantine and
  // the two together would exceed f=1), and only one is down at a time.
  const quorum::ReplicaId crash_victim =
      static_cast<quorum::ReplicaId>(meta.next_below(3));
  cluster.sim().schedule(40 * sim::kMillisecond,
                         [&] { cluster.crash_replica(crash_victim); });
  cluster.sim().schedule(120 * sim::kMillisecond,
                         [&] { cluster.recover_replica(crash_victim); });
  cluster.sim().schedule(160 * sim::kMillisecond, [&] {
    cluster.net().partition(crash_victim, harness::client_node(1));
  });
  cluster.sim().schedule(240 * sim::kMillisecond,
                         [&] { cluster.net().heal_all(); });

  // --- Byzantine client: stash, stop, collude --------------------------
  auto attack_transport = cluster.make_transport(harness::client_node(66));
  faults::LurkingWriteStasher stasher(cluster.config(), 66,
                                      cluster.keystore(), *attack_transport,
                                      cluster.sim(), cluster.replica_nodes(),
                                      cluster.rng().split());
  auto colluder_transport = cluster.make_transport(harness::client_node(67));
  faults::Colluder colluder(*colluder_transport, cluster.replica_nodes());
  bool attack_done = false;
  cluster.sim().schedule(20 * sim::kMillisecond, [&] {
    stasher.attack(1, 3, param.optimized,
                   [&](faults::LurkingWriteStasher::Outcome out) {
                     for (auto& env : out.stashed)
                       colluder.stash(std::move(env));
                     cluster.stop_client(66);
                     history.record_stop(66, cluster.sim().now());
                     attack_done = true;
                   });
  });
  cluster.sim().schedule(200 * sim::kMillisecond, [&] { colluder.unleash(); });

  // --- run to completion ------------------------------------------------
  const bool finished = cluster.run_until(
      [&] {
        return completed + failed == kClients * kOpsPerClient && attack_done;
      },
      40'000'000);
  ASSERT_TRUE(finished) << "ops or attack did not finish (seed "
                        << param.seed << ")";
  // Liveness: nothing should have failed (no deadlines are set, and the
  // protocol is live under these fault rates).
  EXPECT_EQ(failed, 0);

  // A few final quiescent reads so lurking writes get a chance to show.
  cluster.settle();
  auto& reader = cluster.add_client(10);
  for (quorum::ObjectId obj : kObjects) {
    const std::size_t token =
        history.begin_read(reader.id(), obj, cluster.sim().now());
    auto r = cluster.read(reader, obj);
    ASSERT_TRUE(r.is_ok());
    history.end_read(token, cluster.sim().now(), r.value().ts,
                     r.value().hash, r.value().value);
  }

  const auto check = checker::check_bft_linearizability(history, {66});
  EXPECT_TRUE(check.linearizable)
      << "seed " << param.seed << ": " << check.summary() << "\n"
      << (check.violations.empty() ? "" : check.violations.front());
  EXPECT_TRUE(check.reads_authentic) << check.summary();
  const int max_b = param.optimized ? 2 : 1;
  EXPECT_TRUE(check.ok(max_b)) << "seed " << param.seed << ": "
                               << check.summary();
}

std::vector<StressParam> make_params() {
  std::vector<StressParam> params;
  if (g_seed_override != 0) {
    params.push_back({g_seed_override, false});
    params.push_back({g_seed_override, true});
    return params;
  }
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    params.push_back({seed * 7919, seed % 2 == 0});
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(Seeds, StressTest, ::testing::ValuesIn(make_params()),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param.seed) +
                                  (info.param.optimized ? "_opt" : "_base");
                         });

}  // namespace
}  // namespace bftbc

// Custom main: gtest materializes parameterized suites inside
// InitGoogleTest, so --seed must be pulled out of argv FIRST; the
// remaining (gtest) flags are then handed to gtest untouched.
int main(int argc, char** argv) {
  std::vector<char*> ours{argv[0]};
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg.rfind("--seed", 0) == 0) {
      ours.push_back(argv[i]);
      if (arg == "--seed" && i + 1 < argc) ours.push_back(argv[++i]);
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;

  bftbc::FlagSet flags;
  auto& seed = flags.add_u64(
      "seed", 0, "run only this stress seed, both modes (0 = full table)");
  int ours_argc = static_cast<int>(ours.size());
  flags.parse(ours_argc, ours.data());
  bftbc::g_seed_override = *seed;

  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
