// Tests for the discrete-event simulator and network model.
#include <gtest/gtest.h>

#include "sim/network.h"
#include "sim/simulator.h"

namespace bftbc::sim {
namespace {

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(30, [&] { order.push_back(3); });
  sim.schedule(10, [&] { order.push_back(1); });
  sim.schedule(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
}

TEST(SimulatorTest, SameTimeIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  int fired = 0;
  sim.schedule(10, [&] {
    ++fired;
    sim.schedule(10, [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20u);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  TimerId id = sim.schedule(10, [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelByEarlierEventOfTheSameInstantPreventsExecution) {
  // The Scheduler contract net::EventLoop shares: the first of two
  // same-instant timers cancels the second, which then never runs.
  Simulator sim;
  int second_fired = 0;
  TimerId second = 0;
  sim.schedule(0, [&] { sim.cancel(second); });
  second = sim.schedule(0, [&] { ++second_fired; });
  sim.run();
  EXPECT_EQ(second_fired, 0);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, CancelAfterFireIsNoop) {
  Simulator sim;
  int fired = 0;
  TimerId id = sim.schedule(10, [&] { ++fired; });
  sim.run();
  sim.cancel(id);  // must not crash or affect anything
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule(10, [&] { ++fired; });
  sim.schedule(20, [&] { ++fired; });
  sim.schedule(30, [&] { ++fired; });
  EXPECT_EQ(sim.run_until(20), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20u);
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(SimulatorTest, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.run_until(12345);
  EXPECT_EQ(sim.now(), 12345u);
}

TEST(SimulatorTest, RunWhilePendingStopsOnPredicate) {
  Simulator sim;
  int count = 0;
  for (int i = 0; i < 100; ++i) sim.schedule(i, [&] { ++count; });
  const bool still_pending =
      sim.run_while_pending([&] { return count < 5; });
  EXPECT_FALSE(still_pending);
  EXPECT_EQ(count, 5);
}

TEST(SimulatorTest, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
  sim.schedule(1, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(SimulatorTest, ExecutedEventsCounts) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule(i, [] {});
  sim.run();
  EXPECT_EQ(sim.executed_events(), 7u);
}

// ------------------------------------------------------------- network

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : net_(sim_, Rng(42), LinkConfig{}) {}

  Simulator sim_;
  Network net_;
};

TEST_F(NetworkTest, DeliversRegisteredNode) {
  std::vector<std::string> got;
  net_.register_node(1, [&](NodeId from, const EncodedMessage& payload) {
    EXPECT_EQ(from, 0u);
    got.push_back(to_string(payload.view()));
  });
  net_.send(0, 1, to_bytes("hi"));
  sim_.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "hi");
}

TEST_F(NetworkTest, UnregisteredNodeDropsSilently) {
  net_.send(0, 99, to_bytes("void"));
  sim_.run();
  EXPECT_EQ(net_.counters().get("msgs_dropped"), 1u);
}

TEST_F(NetworkTest, DelayRespectsBaseFloor) {
  LinkConfig cfg;
  cfg.base_delay = 1000;
  cfg.jitter_mean = 0;
  net_.set_default_link(cfg);
  Time delivered_at = 0;
  net_.register_node(
      1, [&](NodeId, const EncodedMessage&) { delivered_at = sim_.now(); });
  net_.send(0, 1, to_bytes("x"));
  sim_.run();
  EXPECT_EQ(delivered_at, 1000u);
}

TEST_F(NetworkTest, TotalLossDropsEverything) {
  LinkConfig cfg;
  cfg.loss_probability = 1.0;
  net_.set_default_link(cfg);
  int got = 0;
  net_.register_node(1, [&](NodeId, const EncodedMessage&) { ++got; });
  for (int i = 0; i < 20; ++i) net_.send(0, 1, to_bytes("x"));
  sim_.run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(net_.counters().get("msgs_dropped"), 20u);
}

TEST_F(NetworkTest, PartialLossApproximatesProbability) {
  LinkConfig cfg;
  cfg.loss_probability = 0.3;
  net_.set_default_link(cfg);
  int got = 0;
  net_.register_node(1, [&](NodeId, const EncodedMessage&) { ++got; });
  for (int i = 0; i < 2000; ++i) net_.send(0, 1, to_bytes("x"));
  sim_.run();
  EXPECT_GT(got, 1250);
  EXPECT_LT(got, 1550);
}

TEST_F(NetworkTest, DuplicationDeliversTwice) {
  LinkConfig cfg;
  cfg.duplicate_probability = 1.0;
  net_.set_default_link(cfg);
  int got = 0;
  net_.register_node(1, [&](NodeId, const EncodedMessage&) { ++got; });
  net_.send(0, 1, to_bytes("x"));
  sim_.run();
  EXPECT_EQ(got, 2);
}

TEST_F(NetworkTest, CorruptionFlipsBytes) {
  LinkConfig cfg;
  cfg.corrupt_probability = 1.0;
  net_.set_default_link(cfg);
  Bytes got;
  net_.register_node(
      1, [&](NodeId, const EncodedMessage& payload) { got = payload.copy(); });
  net_.send(0, 1, to_bytes("AAAA"));
  sim_.run();
  ASSERT_EQ(got.size(), 4u);
  EXPECT_NE(to_string(got), "AAAA");
}

TEST_F(NetworkTest, JitterReordersMessages) {
  LinkConfig cfg;
  cfg.base_delay = 100;
  cfg.jitter_mean = 10000;
  net_.set_default_link(cfg);
  std::vector<int> arrival;
  net_.register_node(1, [&](NodeId, const EncodedMessage& payload) {
    arrival.push_back(payload.view()[0]);
  });
  for (int i = 0; i < 50; ++i) net_.send(0, 1, Bytes{std::uint8_t(i)});
  sim_.run();
  ASSERT_EQ(arrival.size(), 50u);
  EXPECT_FALSE(std::is_sorted(arrival.begin(), arrival.end()));
}

TEST_F(NetworkTest, PartitionBlocksBothDirections) {
  int got = 0;
  net_.register_node(1, [&](NodeId, const EncodedMessage&) { ++got; });
  net_.register_node(2, [&](NodeId, const EncodedMessage&) { ++got; });
  net_.partition(1, 2);
  EXPECT_TRUE(net_.is_partitioned(1, 2));
  EXPECT_TRUE(net_.is_partitioned(2, 1));
  net_.send(1, 2, to_bytes("x"));
  net_.send(2, 1, to_bytes("y"));
  sim_.run();
  EXPECT_EQ(got, 0);

  net_.heal(1, 2);
  net_.send(1, 2, to_bytes("x"));
  sim_.run();
  EXPECT_EQ(got, 1);
}

TEST_F(NetworkTest, PartitionGroupAndHealAll) {
  int got = 0;
  for (NodeId n : {1u, 2u, 3u, 4u}) {
    net_.register_node(n, [&](NodeId, const EncodedMessage&) { ++got; });
  }
  net_.partition_group({1, 2}, {3, 4});
  net_.send(1, 3, to_bytes("x"));
  net_.send(2, 4, to_bytes("x"));
  net_.send(1, 2, to_bytes("x"));  // same side: flows
  sim_.run();
  EXPECT_EQ(got, 1);
  net_.heal_all();
  net_.send(1, 3, to_bytes("x"));
  sim_.run();
  EXPECT_EQ(got, 2);
}

TEST_F(NetworkTest, CrashedNodeDropsDeliveries) {
  int got = 0;
  net_.register_node(1, [&](NodeId, const EncodedMessage&) { ++got; });
  net_.crash(1);
  net_.send(0, 1, to_bytes("x"));
  sim_.run();
  EXPECT_EQ(got, 0);
  net_.recover(1);
  net_.send(0, 1, to_bytes("x"));
  sim_.run();
  EXPECT_EQ(got, 1);
}

TEST_F(NetworkTest, CrashMidFlightDropsAtDelivery) {
  // Message sent while alive, node crashes before the delivery event.
  LinkConfig cfg;
  cfg.base_delay = 1000;
  cfg.jitter_mean = 0;
  net_.set_default_link(cfg);
  int got = 0;
  net_.register_node(1, [&](NodeId, const EncodedMessage&) { ++got; });
  net_.send(0, 1, to_bytes("x"));
  net_.crash(1);
  sim_.run();
  EXPECT_EQ(got, 0);
}

TEST_F(NetworkTest, CountersTrackTraffic) {
  net_.register_node(1, [](NodeId, const EncodedMessage&) {});
  net_.send(0, 1, to_bytes("abcde"));
  sim_.run();
  EXPECT_EQ(net_.counters().get("msgs_sent"), 1u);
  EXPECT_EQ(net_.counters().get("msgs_delivered"), 1u);
  EXPECT_EQ(net_.counters().get("bytes_sent"), 5u);
  EXPECT_EQ(net_.counters().get("bytes_delivered"), 5u);
}

TEST_F(NetworkTest, DeterministicAcrossRuns) {
  auto run_once = [](std::uint64_t seed) {
    Simulator sim;
    LinkConfig cfg;
    cfg.loss_probability = 0.2;
    cfg.duplicate_probability = 0.1;
    Network net(sim, Rng(seed), cfg);
    std::vector<std::pair<Time, std::uint8_t>> log;
    net.register_node(1, [&](NodeId, const EncodedMessage& p) {
      log.emplace_back(sim.now(), p.view()[0]);
    });
    for (int i = 0; i < 100; ++i) net.send(0, 1, Bytes{std::uint8_t(i)});
    sim.run();
    return log;
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));
}

TEST_F(NetworkTest, UnregisterDropsInFlightDeliveries) {
  // Messages already scheduled for delivery must be dropped — not
  // delivered to a dead handler, not crash — when the destination
  // unregisters before they arrive.
  int got = 0;
  net_.register_node(1, [&](NodeId, const EncodedMessage&) { ++got; });
  for (int i = 0; i < 5; ++i) net_.send(0, 1, to_bytes("in-flight"));
  net_.unregister_node(1);
  sim_.run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(net_.counters().get("msgs_dropped"), 5u);
}

TEST_F(NetworkTest, ReregisterAfterUnregisterResumesDelivery) {
  int got = 0;
  net_.register_node(1, [&](NodeId, const EncodedMessage&) { ++got; });
  net_.send(0, 1, to_bytes("one"));
  net_.unregister_node(1);
  sim_.run();
  EXPECT_EQ(got, 0);

  // A fresh registration under the same id receives new traffic; the
  // dropped in-flight message stays dropped.
  net_.register_node(1, [&](NodeId, const EncodedMessage&) { ++got; });
  net_.send(0, 1, to_bytes("two"));
  sim_.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(net_.counters().get("msgs_delivered"), 1u);
}

TEST_F(NetworkTest, UnregisterInsideHandlerIsSafe) {
  // A node unregistering itself while handling a delivery must not
  // corrupt the delivery of messages already in flight to it.
  int got = 0;
  net_.register_node(1, [&](NodeId, const EncodedMessage&) {
    ++got;
    net_.unregister_node(1);
  });
  net_.send(0, 1, to_bytes("a"));
  net_.send(0, 1, to_bytes("b"));
  net_.send(0, 1, to_bytes("c"));
  sim_.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(net_.counters().get("msgs_dropped"), 2u);
}

}  // namespace
}  // namespace bftbc::sim
