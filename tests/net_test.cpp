// Live transport layer: EventLoop timers + fd dispatch, UdpTransport
// over real loopback sockets, and the shared cluster config. These tests
// use real time and real sockets, so assertions are bounded waits
// (run_until with a generous deadline) rather than exact virtual-time
// checks — on loopback they complete in milliseconds.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "net/cluster_config.h"
#include "net/event_loop.h"
#include "net/udp_transport.h"

namespace bftbc::net {
namespace {

constexpr sim::Time kWait = 2 * sim::kSecond;

rpc::Envelope envelope(std::uint64_t rpc_id, const std::string& body) {
  rpc::Envelope env;
  env.type = rpc::MsgType::kReadTs;
  env.rpc_id = rpc_id;
  env.sender = 1;
  env.body = to_bytes(body);
  return env;
}

UdpEndpoint loopback(std::uint16_t port = 0) {
  auto ep = UdpEndpoint::parse("127.0.0.1", port);
  EXPECT_TRUE(ep.has_value());
  return *ep;
}

// ---------------------------------------------------------------------------
// EventLoop: the sim::Scheduler contract over real time.

class EventLoopTest : public ::testing::Test {
 protected:
  EventLoop loop_;
};

TEST_F(EventLoopTest, TimerIdsAreNonZeroAndNeverReused) {
  std::vector<sim::TimerId> ids;
  for (int i = 0; i < 100; ++i) {
    const sim::TimerId id = loop_.schedule(0, [] {});
    EXPECT_NE(id, 0u);
    if (!ids.empty()) {
      EXPECT_GT(id, ids.back());  // monotone => never reused
    }
    // Cancelling and re-scheduling must not recycle the id.
    if (i % 2 == 0) loop_.cancel(id);
    ids.push_back(id);
  }
}

TEST_F(EventLoopTest, TimersFireInDeadlineOrder) {
  std::vector<int> order;
  loop_.schedule(5 * sim::kMillisecond, [&] { order.push_back(2); });
  loop_.schedule(1 * sim::kMillisecond, [&] { order.push_back(1); });
  loop_.schedule(10 * sim::kMillisecond, [&] { order.push_back(3); });
  ASSERT_TRUE(loop_.run_until([&] { return order.size() == 3; }, kWait));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_F(EventLoopTest, SameInstantTimersFireInScheduleOrder) {
  // The simulator's FIFO tie-break for equal times, on the same queue.
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    loop_.schedule(0, [&order, i] { order.push_back(i); });
  }
  ASSERT_TRUE(loop_.run_until([&] { return order.size() == 8; }, kWait));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST_F(EventLoopTest, CancelPreventsFiringAndTolerates0AndFiredIds) {
  bool cancelled_fired = false;
  bool kept_fired = false;
  const sim::TimerId doomed =
      loop_.schedule(sim::kMillisecond, [&] { cancelled_fired = true; });
  const sim::TimerId kept =
      loop_.schedule(sim::kMillisecond, [&] { kept_fired = true; });
  loop_.cancel(doomed);
  loop_.cancel(0);  // the "no timer" sentinel: must be a no-op
  ASSERT_TRUE(loop_.run_until([&] { return kept_fired; }, kWait));
  EXPECT_FALSE(cancelled_fired);
  loop_.cancel(kept);    // already fired: must be a no-op
  loop_.cancel(doomed);  // already cancelled: must be a no-op
  EXPECT_EQ(loop_.pending_timers(), 0u);
}

TEST_F(EventLoopTest, CancelByEarlierTimerOfTheSamePassPreventsFiring) {
  // Both timers fall due in one pass of the due-timer sweep; the first
  // cancels the second, which must then never run (the Scheduler
  // contract, as on sim::Simulator).
  int second_fired = 0;
  sim::TimerId second = 0;
  bool first_fired = false;
  loop_.schedule(0, [&] {
    first_fired = true;
    loop_.cancel(second);
  });
  second = loop_.schedule(0, [&] { ++second_fired; });
  ASSERT_TRUE(loop_.run_until([&] { return first_fired; }, kWait));
  loop_.run_until([] { return false; }, 5 * sim::kMillisecond);
  EXPECT_EQ(second_fired, 0);
  EXPECT_EQ(loop_.pending_timers(), 0u);
}

TEST_F(EventLoopTest, ZeroDelayChainsRunWithinOneWakeup) {
  // A delay-0 callback scheduling another delay-0 (the coalescing-flush /
  // zero-cost-processing shape) completes in the same poll_once.
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) loop_.schedule(0, chain);
  };
  loop_.schedule(0, chain);
  loop_.poll_once(sim::kMillisecond);
  EXPECT_EQ(depth, 5);
}

TEST_F(EventLoopTest, LongTimersDoNotFireEarly) {
  // run_until wakes the loop at least every 10ms, so it wakes several
  // times before the 300ms deadline; none of those wakeups may fire it.
  bool fired = false;
  loop_.schedule(300 * sim::kMillisecond, [&] { fired = true; });
  loop_.run_until([] { return false; }, 50 * sim::kMillisecond);
  EXPECT_FALSE(fired);  // far from due yet
  ASSERT_TRUE(loop_.run_until([&] { return fired; }, kWait));
}

TEST_F(EventLoopTest, NowIsMonotonic) {
  const sim::Time a = loop_.now();
  loop_.run_until([] { return false; }, 2 * sim::kMillisecond);
  const sim::Time b = loop_.now();
  EXPECT_GE(b, a + sim::kMillisecond);
}

TEST_F(EventLoopTest, FdDispatchAndUnwatch) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  int reads = 0;
  loop_.watch_fd(fds[0], [&] {
    char c;
    ASSERT_EQ(::read(fds[0], &c, 1), 1);
    ++reads;
  });
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  ASSERT_TRUE(loop_.run_until([&] { return reads == 1; }, kWait));

  loop_.unwatch_fd(fds[0]);
  ASSERT_EQ(::write(fds[1], "y", 1), 1);
  loop_.run_until([] { return false; }, 20 * sim::kMillisecond);
  EXPECT_EQ(reads, 1);  // unwatched: byte stays buffered, handler silent
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST_F(EventLoopTest, StopExitsRun) {
  loop_.schedule(sim::kMillisecond, [&] { loop_.stop(); });
  loop_.run();  // returns because the timer stopped it
  SUCCEED();
}

TEST_F(EventLoopTest, RunSleepsUntilTheNextTimer) {
  // run() has no poll bound of its own: with one timer 300 ms out it
  // blocks until that deadline, so the process sleeps once or twice. A
  // 10 ms bound would wake it about 30 times.
  loop_.schedule(300 * sim::kMillisecond, [&] { loop_.stop(); });
  rusage before{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &before), 0);
  loop_.run();
  rusage after{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &after), 0);
  EXPECT_LT(after.ru_nvcsw - before.ru_nvcsw, 5);
}

TEST(EventLoopDeathTest, FailedEpollCreateAborts) {
  // With no descriptor left to hand out, the loop must not limp on with
  // fd -1 (every epoll call would fail and no socket would dispatch).
  EXPECT_DEATH(
      {
        // A first loop, built while descriptors are left, also settles
        // UBSan's type check of EventLoop, whose first run opens a pipe.
        EventLoop first;
        rlimit lim{};
        ::getrlimit(RLIMIT_NOFILE, &lim);
        lim.rlim_cur = 0;  // this (forked) process may open no more fds
        ::setrlimit(RLIMIT_NOFILE, &lim);
        EventLoop loop;
      },
      "epoll_create1 failed");
}

// ---------------------------------------------------------------------------
// UdpTransport over real loopback sockets.

class UdpTransportTest : public ::testing::Test {
 protected:
  // Builds a bound transport with no peers; callers wire peer tables
  // through make_peer() once ports are known.
  std::unique_ptr<UdpTransport> make_node(sim::NodeId id) {
    auto t = std::make_unique<UdpTransport>(
        loop_, id, loopback(), std::map<sim::NodeId, UdpEndpoint>{});
    EXPECT_TRUE(t->valid());
    return t;
  }

  std::map<sim::NodeId, UdpEndpoint> peer(sim::NodeId id,
                                          const UdpTransport& t) {
    return {{id, loopback(t.local_port())}};
  }

  EventLoop loop_;
};

TEST_F(UdpTransportTest, DeliversEnvelopesAcrossLoopback) {
  auto receiver = make_node(2);
  UdpTransport sender(loop_, 1, loopback(), peer(2, *receiver));
  ASSERT_TRUE(sender.valid());
  std::vector<rpc::Envelope> got;
  receiver->set_receiver(
      [&](sim::NodeId from, const rpc::Envelope& env) {
        EXPECT_EQ(from, 1u);
        got.push_back(env);
      });

  sender.send(2, envelope(7, "over the wire"));
  ASSERT_TRUE(loop_.run_until([&] { return got.size() == 1; }, kWait));
  EXPECT_EQ(got[0].rpc_id, 7u);
  EXPECT_EQ(to_string(got[0].body), "over the wire");
  EXPECT_EQ(got[0].type, rpc::MsgType::kReadTs);
}

TEST_F(UdpTransportTest, CoalescesSameInstantSendsIntoOneDatagram) {
  auto receiver = make_node(2);
  UdpTransport sender(loop_, 1, loopback(), peer(2, *receiver));
  std::vector<rpc::Envelope> got;
  receiver->set_receiver(
      [&](sim::NodeId, const rpc::Envelope& env) { got.push_back(env); });

  sender.send(2, envelope(1, "a"));
  sender.send(2, envelope(2, "b"));
  sender.send(2, envelope(3, "c"));
  ASSERT_TRUE(loop_.run_until([&] { return got.size() == 3; }, kWait));

  // One kBatch datagram on the wire; protocol code sees three envelopes.
  EXPECT_EQ(sender.counters().get("msgs_sent"), 1u);
  EXPECT_EQ(receiver->counters().get("msgs_delivered"), 1u);
  EXPECT_EQ(got[0].rpc_id, 1u);
  EXPECT_EQ(got[1].rpc_id, 2u);
  EXPECT_EQ(got[2].rpc_id, 3u);
}

TEST_F(UdpTransportTest, OversizeBatchSplitsAtDatagramCap) {
  auto receiver = make_node(2);
  UdpTransport sender(loop_, 1, loopback(), peer(2, *receiver));
  int delivered = 0;
  receiver->set_receiver(
      [&](sim::NodeId, const rpc::Envelope&) { ++delivered; });

  // 6 x 20KiB cannot fit one bundle under SendCoalescer::kMaxBundleBytes
  // (nor one UDP datagram); the flush must split the batch rather than
  // emit a packet the kernel refuses.
  const std::string big(20 * 1024, 'x');
  for (std::uint64_t i = 0; i < 6; ++i) sender.send(2, envelope(i + 1, big));
  ASSERT_TRUE(loop_.run_until([&] { return delivered == 6; }, kWait));
  EXPECT_GT(sender.counters().get("msgs_sent"), 1u);
  EXPECT_EQ(sender.counters().get("msgs_dropped"), 0u);
}

TEST_F(UdpTransportTest, RepliesReachUnconfiguredPeersViaLearnedAddresses) {
  // The deployment shape: the replica's peer table does not (cannot)
  // list clients — a client binds an ephemeral port and the replica
  // learns its return address from the request datagram's header.
  auto replica = make_node(0);
  UdpTransport client(loop_, kClientNodeBase + 3, loopback(),
                      peer(0, *replica));
  replica->set_receiver([&](sim::NodeId from, const rpc::Envelope& env) {
    EXPECT_EQ(from, kClientNodeBase + 3);
    rpc::Envelope reply;
    reply.type = rpc::MsgType::kReadTsReply;
    reply.rpc_id = env.rpc_id;
    reply.sender = quorum::replica_principal(0);
    reply.body = to_bytes("pong");
    replica->send(from, reply);
  });
  std::vector<rpc::Envelope> got;
  client.set_receiver(
      [&](sim::NodeId, const rpc::Envelope& env) { got.push_back(env); });

  client.send(0, envelope(42, "ping"));
  ASSERT_TRUE(loop_.run_until([&] { return got.size() == 1; }, kWait));
  EXPECT_EQ(got[0].rpc_id, 42u);
  EXPECT_EQ(to_string(got[0].body), "pong");
}

TEST_F(UdpTransportTest, ForgedHeaderCannotHijackLearnedReplyRoute) {
  // Regression: address learning used to happen BEFORE the envelope
  // decode verdict, so a garbage datagram with a valid magic + a
  // victim client's NodeId in the (unauthenticated) header redirected
  // that client's replies to the attacker's source address.
  const sim::NodeId kClient = kClientNodeBase + 9;
  auto replica = make_node(0);
  UdpTransport client(loop_, kClient, loopback(), peer(0, *replica));
  replica->set_receiver([&](sim::NodeId, const rpc::Envelope&) {});
  std::vector<rpc::Envelope> got;
  client.set_receiver(
      [&](sim::NodeId, const rpc::Envelope& env) { got.push_back(env); });

  // 1. A legitimate request establishes the client's learned route.
  client.send(0, envelope(1, "ping"));
  ASSERT_TRUE(loop_.run_until(
      [&] {
        return replica->counters().get("msgs_delivered") == 1;
      },
      kWait));

  // 2. Attacker: valid magic, the client's NodeId, garbage body that
  //    fails Envelope::decode — sprayed from a different source port.
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  const sockaddr_in dst = loopback(replica->local_port()).to_sockaddr();
  Writer w;
  w.put_u32(0xBF7BC001u);
  w.put_u32(kClient);
  w.put_raw(as_bytes_view("not-a-decodable-envelope"));
  const Bytes forged = std::move(w).take();
  ::sendto(fd, forged.data(), forged.size(), 0,
           reinterpret_cast<const sockaddr*>(&dst), sizeof(dst));
  loop_.run_until([] { return false; }, 20 * sim::kMillisecond);

  // 3. The replica replies with NO intervening request from the client
  //    (so nothing re-learns the honest route). It must still reach the
  //    real client, not the attacker's socket.
  rpc::Envelope reply;
  reply.type = rpc::MsgType::kReadTsReply;
  reply.rpc_id = 7;
  reply.sender = quorum::replica_principal(0);
  reply.body = to_bytes("pong");
  replica->send(kClient, reply);
  ASSERT_TRUE(loop_.run_until([&] { return got.size() == 1; }, kWait));
  EXPECT_EQ(got[0].rpc_id, 7u);
  ::close(fd);
}

TEST_F(UdpTransportTest, SendToUnknownNodeCountsAsDropNotCrash) {
  auto sender = make_node(1);
  sender->send(99, envelope(1, "void"));
  loop_.run_until([] { return false; }, 20 * sim::kMillisecond);
  EXPECT_EQ(sender->counters().get("msgs_dropped"), 1u);
}

TEST_F(UdpTransportTest, DestructionFlushesPendingCoalescedEnvelopes) {
  auto receiver = make_node(2);
  std::vector<rpc::Envelope> got;
  receiver->set_receiver(
      [&](sim::NodeId, const rpc::Envelope& env) { got.push_back(env); });
  {
    UdpTransport sender(loop_, 1, loopback(), peer(2, *receiver));
    sender.send(2, envelope(1, "a"));
    sender.send(2, envelope(2, "b"));
    // Destroyed before the delay-0 flush timer runs: teardown must ship
    // the remainder (same contract as SimTransport).
  }
  ASSERT_TRUE(loop_.run_until([&] { return got.size() == 2; }, kWait));
  EXPECT_EQ(got[0].rpc_id, 1u);
  EXPECT_EQ(got[1].rpc_id, 2u);
  // Still one datagram: the teardown flush coalesces like the timer.
  EXPECT_EQ(receiver->counters().get("msgs_delivered"), 1u);
}

TEST_F(UdpTransportTest, MidBundleReceiverClearStopsDeliverySafely) {
  auto receiver = make_node(2);
  UdpTransport sender(loop_, 1, loopback(), peer(2, *receiver));
  std::vector<std::uint64_t> got;
  receiver->set_receiver([&](sim::NodeId, const rpc::Envelope& env) {
    got.push_back(env.rpc_id);
    // Unhook on first delivery — the remaining sub-envelopes of the
    // bundle must be dropped, not invoked on an empty std::function.
    receiver->set_receiver({});
  });

  sender.send(2, envelope(1, "a"));
  sender.send(2, envelope(2, "b"));
  sender.send(2, envelope(3, "c"));
  ASSERT_TRUE(loop_.run_until([&] { return !got.empty(); }, kWait));
  loop_.run_until([] { return false; }, 20 * sim::kMillisecond);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 1u);
}

TEST_F(UdpTransportTest, GarbageDatagramsAreDroppedSilently) {
  auto receiver = make_node(2);
  int delivered = 0;
  receiver->set_receiver(
      [&](sim::NodeId, const rpc::Envelope&) { ++delivered; });

  // Raw socket spraying junk at the transport: wrong magic, truncated
  // header, magic + garbage envelope.
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  const sockaddr_in dst = loopback(receiver->local_port()).to_sockaddr();
  auto spray = [&](const Bytes& b) {
    ::sendto(fd, b.data(), b.size(), 0,
             reinterpret_cast<const sockaddr*>(&dst), sizeof(dst));
  };
  spray(to_bytes("not-a-protocol-datagram"));
  spray(Bytes{0x01});
  Writer w;
  w.put_u32(0xBF7BC001u);
  w.put_u32(7);
  w.put_raw(as_bytes_view("garbage-after-valid-header"));
  spray(std::move(w).take());
  // Then one valid envelope proves the socket survived the junk.
  UdpTransport sender(loop_, 1, loopback(), peer(2, *receiver));
  sender.send(2, envelope(5, "ok"));
  ASSERT_TRUE(loop_.run_until([&] { return delivered == 1; }, kWait));
  EXPECT_EQ(delivered, 1);
  ::close(fd);
}

// ---------------------------------------------------------------------------
// Cluster config.

constexpr const char* kValidConfig = R"({
  "f": 1,
  "mode": "optimized",
  "scheme": "hmac",
  "key_seed": 42,
  "max_clients": 8,
  "replicas": [
    {"host": "127.0.0.1", "port": 5500},
    {"host": "127.0.0.1", "port": 5501},
    {"host": "127.0.0.1", "port": 5502},
    {"host": "127.0.0.1", "port": 5503}
  ]
})";

TEST(ClusterConfigTest, ParsesValidConfig) {
  auto result = ClusterConfig::parse(kValidConfig);
  ASSERT_TRUE(result.is_ok()) << result.status().message();
  const ClusterConfig& cfg = result.value();
  EXPECT_EQ(cfg.f, 1u);
  EXPECT_TRUE(cfg.optimized());
  EXPECT_FALSE(cfg.strong());
  EXPECT_EQ(cfg.key_seed, 42u);
  EXPECT_EQ(cfg.max_clients, 8u);
  EXPECT_EQ(cfg.quorum().n, 4u);
  EXPECT_EQ(cfg.quorum().q, 3u);
  ASSERT_EQ(cfg.shard_groups.size(), 1u);
  ASSERT_EQ(cfg.shard_groups[0].size(), 4u);
  EXPECT_EQ(cfg.shard_groups[0][2].port, 5502);

  auto peers = replica_endpoints(cfg, 0);
  ASSERT_TRUE(peers.is_ok());
  EXPECT_EQ(peers.value().at(3).to_string(), "127.0.0.1:5503");
}

TEST(ClusterConfigTest, RejectsWrongReplicaCount) {
  auto result = ClusterConfig::parse(R"({
    "f": 2,
    "replicas": [{"host": "127.0.0.1", "port": 5500}]
  })");
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  // The message names the 3f+1 expectation.
  EXPECT_NE(result.status().message().find("7"), std::string::npos);
}

TEST(ClusterConfigTest, RejectsBadHostModeSchemeAndPort) {
  EXPECT_FALSE(ClusterConfig::parse("[1,2,3]").is_ok());
  EXPECT_FALSE(ClusterConfig::parse("not json at all").is_ok());

  std::string bad_host = kValidConfig;
  bad_host.replace(bad_host.find("127.0.0.1"), 9, "localhost");
  EXPECT_FALSE(ClusterConfig::parse(bad_host).is_ok());

  std::string bad_mode = kValidConfig;
  bad_mode.replace(bad_mode.find("optimized"), 9, "turbo-mode");
  EXPECT_FALSE(ClusterConfig::parse(bad_mode).is_ok());

  std::string bad_scheme = kValidConfig;
  bad_scheme.replace(bad_scheme.find("hmac"), 4, "des3");
  EXPECT_FALSE(ClusterConfig::parse(bad_scheme).is_ok());

  std::string bad_port = kValidConfig;
  bad_port.replace(bad_port.find("5503"), 4, "99999");
  EXPECT_FALSE(ClusterConfig::parse(bad_port).is_ok());
}

TEST(ClusterConfigTest, DefaultsApplyWhenFieldsOmitted) {
  auto result = ClusterConfig::parse(R"({
    "replicas": [
      {"host": "10.0.0.1", "port": 1},
      {"host": "10.0.0.2", "port": 2},
      {"host": "10.0.0.3", "port": 3},
      {"host": "10.0.0.4", "port": 4}
    ]
  })");
  ASSERT_TRUE(result.is_ok()) << result.status().message();
  EXPECT_EQ(result.value().f, 1u);
  EXPECT_EQ(result.value().mode, "base");
  EXPECT_FALSE(result.value().optimized());
  EXPECT_EQ(result.value().signature_scheme(),
            crypto::SignatureScheme::kHmacSim);
}

TEST(ClusterConfigTest, IndependentKeystoresAgreeOnKeys) {
  // The whole key-distribution story: two processes, each constructing
  // its own Keystore from the shared config, must be able to verify each
  // other's signatures.
  auto cfg = ClusterConfig::parse(kValidConfig).value();
  crypto::Keystore ks_replica(cfg.signature_scheme(), cfg.key_seed,
                              cfg.rsa_bits);
  crypto::Keystore ks_client(cfg.signature_scheme(), cfg.key_seed,
                             cfg.rsa_bits);
  register_cluster_principals(cfg, ks_replica);
  register_cluster_principals(cfg, ks_client);

  // Client 5 signs in its process; replica 2's process verifies.
  auto client_signer =
      ks_client.register_principal(quorum::client_principal(5));
  auto sig = client_signer.sign(as_bytes_view("prepare statement"));
  ASSERT_TRUE(sig.is_ok());
  EXPECT_TRUE(ks_replica.verify(quorum::client_principal(5),
                                as_bytes_view("prepare statement"),
                                sig.value()));
  // And the reverse direction.
  auto replica_signer =
      ks_replica.register_principal(quorum::replica_principal(2));
  auto rsig = replica_signer.sign(as_bytes_view("read-ts reply"));
  ASSERT_TRUE(rsig.is_ok());
  EXPECT_TRUE(ks_client.verify(quorum::replica_principal(2),
                               as_bytes_view("read-ts reply"), rsig.value()));
}

TEST(ClusterConfigTest, NodeAddressingMatchesHarnessConvention) {
  // net/ and harness/ share sim's NodeId layout; pin it, since the live
  // tools and every recorded trace depend on it.
  EXPECT_EQ(kClientNodeBase, 0x10000u);
  EXPECT_EQ(client_node(7), 0x10007u);
}

}  // namespace
}  // namespace bftbc::net
