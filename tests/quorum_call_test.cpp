// Direct tests of rpc::QuorumCall — the retransmission/collection
// primitive every protocol phase in the repo is built on.
#include <gtest/gtest.h>

#include "rpc/quorum_call.h"

namespace bftbc::rpc {
namespace {

class QuorumCallTest : public ::testing::Test {
 protected:
  QuorumCallTest()
      : net_(sim_, Rng(4), [] { sim::LinkConfig c; c.base_delay = 100; c.jitter_mean = 0; return c; }()),
        transport_(net_, 99) {
    // Four fake replicas recording what they receive.
    for (sim::NodeId n = 0; n < 4; ++n) {
      net_.register_node(n, [this, n](sim::NodeId, const EncodedMessage& payload) {
        auto env = Envelope::decode(payload.view());
        if (env.has_value()) received_[n].push_back(*env);
      });
    }
  }

  Envelope request(std::uint64_t rpc_id = 7) {
    Envelope env;
    env.type = MsgType::kReadTs;
    env.rpc_id = rpc_id;
    env.sender = 1;
    env.body = to_bytes("req");
    return env;
  }

  Envelope reply_env(std::uint64_t rpc_id, const std::string& body) {
    Envelope env;
    env.type = MsgType::kReadTsReply;
    env.rpc_id = rpc_id;
    env.sender = 1000;
    env.body = to_bytes(body);
    return env;
  }

  sim::Simulator sim_;
  sim::Network net_;
  SimTransport transport_;
  std::map<sim::NodeId, std::vector<Envelope>> received_;
};

TEST_F(QuorumCallTest, SendsToAllTargetsImmediately) {
  bool complete = false;
  QuorumCall call(
      sim_, transport_, {0, 1, 2, 3}, 3, request(),
      [](std::uint32_t, const Envelope&) { return true; },
      [&] { complete = true; });
  sim_.run_until(200);
  for (sim::NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(received_[n].size(), 1u) << "node " << n;
  }
  EXPECT_FALSE(complete);
}

TEST_F(QuorumCallTest, CompletesAtQuorumOfValidReplies) {
  bool complete = false;
  QuorumCall call(
      sim_, transport_, {0, 1, 2, 3}, 3, request(),
      [](std::uint32_t, const Envelope&) { return true; },
      [&] { complete = true; });
  EXPECT_TRUE(call.on_reply(0, reply_env(7, "a")));
  EXPECT_FALSE(complete);
  EXPECT_TRUE(call.on_reply(1, reply_env(7, "b")));
  EXPECT_FALSE(complete);
  EXPECT_TRUE(call.on_reply(2, reply_env(7, "c")));
  EXPECT_TRUE(complete);
  EXPECT_TRUE(call.complete());
  EXPECT_EQ(call.accepted_count(), 3u);
  // A quorum overshoot is still this call's reply: claimed, not counted.
  EXPECT_TRUE(call.on_reply(3, reply_env(7, "overshoot")));
  EXPECT_EQ(call.accepted_count(), 3u);
}

TEST_F(QuorumCallTest, WrongRpcIdNotOurs) {
  QuorumCall call(
      sim_, transport_, {0, 1, 2, 3}, 3, request(7),
      [](std::uint32_t, const Envelope&) { return true; }, [] {});
  EXPECT_FALSE(call.on_reply(0, reply_env(8, "other")));
  EXPECT_EQ(call.accepted_count(), 0u);
}

TEST_F(QuorumCallTest, UnknownSenderIgnored) {
  QuorumCall call(
      sim_, transport_, {0, 1, 2}, 2, request(),
      [](std::uint32_t, const Envelope&) { return true; }, [] {});
  EXPECT_FALSE(call.on_reply(55, reply_env(7, "imposter")));
  EXPECT_EQ(call.accepted_count(), 0u);
}

TEST_F(QuorumCallTest, DuplicateRepliesCountOnce) {
  bool complete = false;
  QuorumCall call(
      sim_, transport_, {0, 1, 2, 3}, 3, request(),
      [](std::uint32_t, const Envelope&) { return true; },
      [&] { complete = true; });
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(call.on_reply(0, reply_env(7, "dup")));
  }
  EXPECT_EQ(call.accepted_count(), 1u);
  EXPECT_FALSE(complete);
}

TEST_F(QuorumCallTest, RejectedRepliesDontCount) {
  int validator_calls = 0;
  QuorumCall call(
      sim_, transport_, {0, 1, 2, 3}, 2, request(),
      [&](std::uint32_t idx, const Envelope&) {
        ++validator_calls;
        return idx != 0;  // replica 0's replies always rejected
      },
      [] {});
  EXPECT_TRUE(call.on_reply(0, reply_env(7, "bad")));
  EXPECT_EQ(call.accepted_count(), 0u);
  // A rejected replica may try again (it was not marked accepted)...
  EXPECT_TRUE(call.on_reply(0, reply_env(7, "bad2")));
  EXPECT_EQ(validator_calls, 2);
  // ...and valid replicas complete the call.
  EXPECT_TRUE(call.on_reply(1, reply_env(7, "ok")));
  EXPECT_TRUE(call.on_reply(2, reply_env(7, "ok")));
  EXPECT_TRUE(call.complete());
}

TEST_F(QuorumCallTest, RetransmitsOnlyToSilentReplicas) {
  QuorumCallOptions opts;
  opts.retransmit_period = 1000;
  QuorumCall call(
      sim_, transport_, {0, 1, 2, 3}, 3, request(),
      [](std::uint32_t, const Envelope&) { return true; }, [] {}, nullptr,
      opts);
  sim_.run_until(150);
  // Replica 0 answers; 1-3 stay silent.
  call.on_reply(0, reply_env(7, "a"));
  sim_.run_until(2500);  // two retransmission periods
  EXPECT_EQ(received_[0].size(), 1u);   // no retransmit to the responder
  EXPECT_EQ(received_[1].size(), 3u);   // initial + 2 retransmits
  EXPECT_EQ(call.sends(), 3u);
}

TEST_F(QuorumCallTest, StopsRetransmittingWhenComplete) {
  QuorumCallOptions opts;
  opts.retransmit_period = 1000;
  QuorumCall call(
      sim_, transport_, {0, 1, 2, 3}, 2, request(),
      [](std::uint32_t, const Envelope&) { return true; }, [] {}, nullptr,
      opts);
  sim_.run_until(150);
  call.on_reply(0, reply_env(7, "a"));
  call.on_reply(1, reply_env(7, "b"));
  ASSERT_TRUE(call.complete());
  sim_.run_until(10'000);
  for (sim::NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(received_[n].size(), 1u) << "node " << n;
  }
}

TEST_F(QuorumCallTest, DeadlineFiresTimeoutOnce) {
  QuorumCallOptions opts;
  opts.deadline = 5000;
  opts.retransmit_period = 1000;
  int timeouts = 0;
  bool complete = false;
  QuorumCall call(
      sim_, transport_, {0, 1, 2, 3}, 3, request(),
      [](std::uint32_t, const Envelope&) { return true; },
      [&] { complete = true; }, [&] { ++timeouts; }, opts);
  call.on_reply(0, reply_env(7, "only-one"));
  sim_.run_until(20'000);
  EXPECT_EQ(timeouts, 1);
  EXPECT_FALSE(complete);
  // Replies after the deadline are claimed but never complete the call,
  // the pre-timeout responder's duplicate included.
  EXPECT_TRUE(call.on_reply(1, reply_env(7, "late")));
  EXPECT_TRUE(call.on_reply(2, reply_env(7, "late")));
  EXPECT_TRUE(call.on_reply(0, reply_env(7, "dup")));
  EXPECT_FALSE(complete);
  EXPECT_FALSE(call.complete());
  EXPECT_EQ(call.accepted_count(), 1u);
}

TEST_F(QuorumCallTest, FiredTimerIdsAreZeroed) {
  QuorumCallOptions opts;
  opts.deadline = 5000;
  opts.retransmit_period = 1000;
  QuorumCall call(
      sim_, transport_, {0, 1, 2, 3}, 3, request(),
      [](std::uint32_t, const Envelope&) { return true; }, [] {}, [] {}, opts);
  EXPECT_NE(call.retransmit_timer_id(), 0u);
  EXPECT_NE(call.deadline_timer_id(), 0u);
  sim_.run_until(20'000);  // deadline fires, retransmissions stop
  // Both ids are stale now (deadline fired, retransmit cancelled by the
  // timeout path) and must be zeroed, the holder's half of the Scheduler
  // contract: ~QuorumCall cancels whatever ids it still holds (pre-fix,
  // both stayed nonzero here).
  EXPECT_EQ(call.retransmit_timer_id(), 0u);
  EXPECT_EQ(call.deadline_timer_id(), 0u);
}

TEST_F(QuorumCallTest, CompletionZeroesTimerIds) {
  QuorumCallOptions opts;
  opts.deadline = 5000;
  QuorumCall call(
      sim_, transport_, {0, 1}, 2, request(),
      [](std::uint32_t, const Envelope&) { return true; }, [] {}, [] {}, opts);
  call.on_reply(0, reply_env(7, "a"));
  call.on_reply(1, reply_env(7, "b"));
  ASSERT_TRUE(call.complete());
  EXPECT_EQ(call.retransmit_timer_id(), 0u);
  EXPECT_EQ(call.deadline_timer_id(), 0u);
}

TEST_F(QuorumCallTest, NoTimeoutWhenCompletedFirst) {
  QuorumCallOptions opts;
  opts.deadline = 5000;
  int timeouts = 0;
  QuorumCall call(
      sim_, transport_, {0, 1}, 2, request(),
      [](std::uint32_t, const Envelope&) { return true; }, [] {},
      [&] { ++timeouts; }, opts);
  call.on_reply(0, reply_env(7, "a"));
  call.on_reply(1, reply_env(7, "b"));
  sim_.run_until(20'000);
  EXPECT_EQ(timeouts, 0);
}

TEST_F(QuorumCallTest, DestructionCancelsTimers) {
  {
    QuorumCallOptions opts;
    opts.retransmit_period = 1000;
    opts.deadline = 5000;
    QuorumCall call(
        sim_, transport_, {0, 1, 2, 3}, 3, request(),
        [](std::uint32_t, const Envelope&) { return true; }, [] {},
        [] { FAIL() << "timeout after destruction"; }, opts);
  }
  sim_.run_until(20'000);  // must not fire the destroyed call's timers
  for (sim::NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(received_[n].size(), 1u);
  }
}

// Encode-once accounting: one QuorumCall fan-out serializes the request
// exactly once and ships the shared buffer to every target — N sends,
// N × wire-size bytes, one encode_calls tick.
TEST_F(QuorumCallTest, EncodeOnceFanOutAccounting) {
  const Envelope req = request();
  const std::size_t wire_size = req.encode().size();
  QuorumCall call(
      sim_, transport_, {0, 1, 2, 3}, 3, req,
      [](std::uint32_t, const Envelope&) { return true; }, [] {});
  sim_.run_until(200);
  EXPECT_EQ(net_.counters().get("msgs_sent"), 4u);
  EXPECT_EQ(net_.counters().get("encode_calls"), 1u);
  EXPECT_EQ(net_.counters().get("bytes_sent"), 4u * wire_size);
}

TEST_F(QuorumCallTest, InitialFanoutRestrictsFirstTransmit) {
  QuorumCallOptions opts;
  opts.initial_fanout = 3;
  QuorumCall call(
      sim_, transport_, {0, 1, 2, 3}, 3, request(),  // rpc_id 7 % 4 = 3
      [](std::uint32_t, const Envelope&) { return true; }, [] {}, nullptr,
      opts);
  sim_.run_until(200);
  // Rotation starts at rpc_id % n = 3: replicas 3, 0, 1 are contacted,
  // replica 2 is spared.
  EXPECT_EQ(received_[3].size(), 1u);
  EXPECT_EQ(received_[0].size(), 1u);
  EXPECT_EQ(received_[1].size(), 1u);
  EXPECT_EQ(received_[2].size(), 0u);
  EXPECT_EQ(net_.counters().get("msgs_sent"), 3u);
}

TEST_F(QuorumCallTest, RetransmitExpandsPastInitialFanout) {
  QuorumCallOptions opts;
  opts.initial_fanout = 3;
  opts.retransmit_period = 1000;
  QuorumCall call(
      sim_, transport_, {0, 1, 2, 3}, 3, request(),
      [](std::uint32_t, const Envelope&) { return true; }, [] {}, nullptr,
      opts);
  sim_.run_until(150);
  ASSERT_EQ(received_[2].size(), 0u);  // spared on the first transmit
  // Two preferred replicas answer, one stays silent: the retransmit goes
  // to every not-yet-accepted replica, reaching the spared one too.
  call.on_reply(3, reply_env(7, "a"));
  call.on_reply(0, reply_env(7, "b"));
  sim_.run_until(1500);
  EXPECT_EQ(received_[2].size(), 1u);  // now contacted
  EXPECT_EQ(received_[1].size(), 2u);  // initial + retransmit
  EXPECT_EQ(received_[3].size(), 1u);  // responders are not re-contacted
  EXPECT_EQ(received_[0].size(), 1u);
}

TEST_F(QuorumCallTest, AcceptedBitmapTracksRepliers) {
  QuorumCall call(
      sim_, transport_, {0, 1, 2, 3}, 3, request(),
      [](std::uint32_t, const Envelope&) { return true; }, [] {});
  call.on_reply(2, reply_env(7, "x"));
  call.on_reply(0, reply_env(7, "y"));
  EXPECT_TRUE(call.accepted()[0]);
  EXPECT_FALSE(call.accepted()[1]);
  EXPECT_TRUE(call.accepted()[2]);
  EXPECT_FALSE(call.accepted()[3]);
}

TEST_F(QuorumCallTest, PartitionDuringCallThenHealRetransmitResumes) {
  // Partition the caller from every replica BEFORE the call starts, so
  // the initial burst and every retransmission during the window is
  // dropped; after healing, the periodic retransmission must get the
  // request through without any external prodding.
  for (sim::NodeId n = 0; n < 4; ++n) net_.partition(99, n);

  bool complete = false;
  QuorumCall call(
      sim_, transport_, {0, 1, 2, 3}, 3, request(),
      [](std::uint32_t, const Envelope&) { return true; },
      [&] { complete = true; });

  // Three retransmit periods under partition: nothing arrives.
  sim_.run_until(3 * 20 * sim::kMillisecond);
  for (sim::NodeId n = 0; n < 4; ++n) {
    EXPECT_TRUE(received_[n].empty()) << "node " << n;
  }
  EXPECT_FALSE(complete);

  for (sim::NodeId n = 0; n < 4; ++n) net_.heal(99, n);

  // One more period after the heal: the retransmission goes through.
  sim_.run_until(5 * 20 * sim::kMillisecond);
  for (sim::NodeId n = 0; n < 4; ++n) {
    EXPECT_FALSE(received_[n].empty()) << "node " << n;
  }

  EXPECT_TRUE(call.on_reply(0, reply_env(7, "a")));
  EXPECT_TRUE(call.on_reply(1, reply_env(7, "b")));
  EXPECT_TRUE(call.on_reply(2, reply_env(7, "c")));
  EXPECT_TRUE(complete);
}

TEST_F(QuorumCallTest, MidFlightPartitionOnlyBlocksTheWindow) {
  // The initial burst is already in flight when the partition lands:
  // whether those first deliveries survive is a delivery-time question,
  // but after set+clear the call must still reach every target and
  // complete — a transient partition never wedges a QuorumCall.
  bool complete = false;
  QuorumCall call(
      sim_, transport_, {0, 1, 2, 3}, 3, request(),
      [](std::uint32_t, const Envelope&) { return true; },
      [&] { complete = true; });
  for (sim::NodeId n = 0; n < 4; ++n) net_.partition(99, n);
  sim_.run_until(2 * 20 * sim::kMillisecond);
  for (sim::NodeId n = 0; n < 4; ++n) net_.heal(99, n);
  sim_.run_until(4 * 20 * sim::kMillisecond);
  for (sim::NodeId n = 0; n < 4; ++n) {
    EXPECT_FALSE(received_[n].empty()) << "node " << n;
  }
  EXPECT_TRUE(call.on_reply(0, reply_env(7, "a")));
  EXPECT_TRUE(call.on_reply(1, reply_env(7, "b")));
  EXPECT_TRUE(call.on_reply(2, reply_env(7, "c")));
  EXPECT_TRUE(complete);
}

}  // namespace
}  // namespace bftbc::rpc
