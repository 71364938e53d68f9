// SimTransport: encode-once sends and same-tick coalescing (kBatch)
// through rpc::SendCoalescer.
#include <gtest/gtest.h>

#include <memory>

#include "rpc/transport.h"

namespace bftbc::rpc {
namespace {

class TransportTest : public ::testing::Test {
 protected:
  TransportTest()
      : net_(sim_, Rng(9),
             [] {
               sim::LinkConfig c;
               c.base_delay = 100;
               c.jitter_mean = 0;
               return c;
             }()) {}

  Envelope envelope(std::uint64_t rpc_id, const std::string& body) {
    Envelope env;
    env.type = MsgType::kReadTs;
    env.rpc_id = rpc_id;
    env.sender = 1;
    env.body = to_bytes(body);
    return env;
  }

  sim::Simulator sim_;
  sim::Network net_;
};

TEST_F(TransportTest, CoalescesSameTickSendsIntoOneWireMessage) {
  SimTransport sender(net_, 1, &sim_);
  SimTransport receiver(net_, 2);
  std::vector<Envelope> got;
  receiver.set_receiver(
      [&](sim::NodeId, const Envelope& env) { got.push_back(env); });

  sender.send(2, envelope(1, "a"));
  sender.send(2, envelope(2, "b"));
  sender.send(2, envelope(3, "c"));
  sim_.run_until(500);

  // One kBatch on the wire, three envelopes out of the receiving
  // transport — protocol code never sees the bundle.
  EXPECT_EQ(net_.counters().get("msgs_sent"), 1u);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].rpc_id, 1u);
  EXPECT_EQ(got[1].rpc_id, 2u);
  EXPECT_EQ(got[2].rpc_id, 3u);
  EXPECT_EQ(to_string(got[2].body), "c");
}

TEST_F(TransportTest, SingleSendPerTickSkipsBatchFraming) {
  SimTransport sender(net_, 1, &sim_);
  SimTransport receiver(net_, 2);
  std::vector<Envelope> got;
  receiver.set_receiver(
      [&](sim::NodeId, const Envelope& env) { got.push_back(env); });

  sender.send(2, envelope(1, "solo"));
  sim_.run_until(500);

  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].type, MsgType::kReadTs);  // not wrapped in kBatch
  EXPECT_EQ(net_.counters().get("msgs_sent"), 1u);
  // The wire carried exactly the envelope's own encoding.
  EXPECT_EQ(net_.counters().get("bytes_sent"),
            envelope(1, "solo").encode().size());
}

TEST_F(TransportTest, DifferentTicksAreNotCoalesced) {
  SimTransport sender(net_, 1, &sim_);
  SimTransport receiver(net_, 2);
  int delivered = 0;
  receiver.set_receiver([&](sim::NodeId, const Envelope&) { ++delivered; });

  sender.send(2, envelope(1, "a"));
  sim_.run_until(50);  // flush fires at tick 0; next send is a new tick
  sender.send(2, envelope(2, "b"));
  sim_.run_until(500);

  EXPECT_EQ(net_.counters().get("msgs_sent"), 2u);
  EXPECT_EQ(delivered, 2);
}

TEST_F(TransportTest, CoalescingGroupsPerDestination) {
  SimTransport sender(net_, 1, &sim_);
  SimTransport r2(net_, 2);
  SimTransport r3(net_, 3);
  int got2 = 0, got3 = 0;
  r2.set_receiver([&](sim::NodeId, const Envelope&) { ++got2; });
  r3.set_receiver([&](sim::NodeId, const Envelope&) { ++got3; });

  sender.send(2, envelope(1, "a"));
  sender.send(3, envelope(2, "b"));
  sender.send(2, envelope(3, "c"));
  sim_.run_until(500);

  // Two wire messages: one kBatch to node 2, one bare envelope to node 3.
  EXPECT_EQ(net_.counters().get("msgs_sent"), 2u);
  EXPECT_EQ(got2, 2);
  EXPECT_EQ(got3, 1);
}

TEST_F(TransportTest, OversizeBatchSplitsAtBundleCap) {
  SimTransport sender(net_, 1, &sim_);
  SimTransport receiver(net_, 2);
  std::vector<Envelope> got;
  receiver.set_receiver(
      [&](sim::NodeId, const Envelope& env) { got.push_back(env); });

  // 6 x 20KiB cannot fit one bundle: the same cap that keeps a live
  // bundle inside one UDP datagram splits the simulated one.
  const std::string big(20 * 1024, 'x');
  for (std::uint64_t i = 0; i < 6; ++i) sender.send(2, envelope(i + 1, big));
  sim_.run_until(500);

  EXPECT_GT(net_.counters().get("msgs_sent"), 1u);
  EXPECT_LT(net_.counters().get("msgs_sent"), 6u);
  EXPECT_LE(net_.counters().get("bytes_sent"),
            net_.counters().get("msgs_sent") *
                (SendCoalescer::kMaxBundleBytes + 64));
  ASSERT_EQ(got.size(), 6u);
  for (std::uint64_t i = 0; i < 6; ++i) EXPECT_EQ(got[i].rpc_id, i + 1);
}

TEST_F(TransportTest, NestedBatchEnvelopesAreDropped) {
  SimTransport sender(net_, 1);  // no coalescing: craft the batch by hand
  SimTransport receiver(net_, 2);
  int delivered = 0;
  receiver.set_receiver([&](sim::NodeId, const Envelope&) { ++delivered; });

  // A hand-built bundle containing a legitimate envelope and a nested
  // kBatch (which a Byzantine sender could use for recursion).
  Envelope inner_batch;
  inner_batch.type = MsgType::kBatch;
  inner_batch.body = to_bytes("bogus");
  Writer w;
  w.put_u32(2);
  w.put_bytes(envelope(1, "ok").encode());
  w.put_bytes(inner_batch.encode());
  Envelope batch;
  batch.type = MsgType::kBatch;
  batch.body = std::move(w).take();
  sender.send(2, batch);
  sim_.run_until(500);

  EXPECT_EQ(delivered, 1);  // the nested bundle was dropped, not recursed
}

TEST_F(TransportTest, DestructionFlushesPendingCoalescedEnvelopes) {
  SimTransport receiver(net_, 2);
  std::vector<Envelope> got;
  receiver.set_receiver(
      [&](sim::NodeId, const Envelope& env) { got.push_back(env); });
  {
    SimTransport sender(net_, 1, &sim_);
    sender.send(2, envelope(1, "a"));
    sender.send(2, envelope(2, "b"));
    // Destroyed before the delay-0 flush timer fires: teardown must ship
    // the coalescing remainder — an accepted envelope never just
    // vanishes (the pre-fix transport silently discarded both here).
  }
  sim_.run_until(500);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].rpc_id, 1u);
  EXPECT_EQ(got[1].rpc_id, 2u);
  // Still one wire message: the teardown flush coalesces like the timer.
  EXPECT_EQ(net_.counters().get("msgs_sent"), 1u);
}

TEST_F(TransportTest, NoEnvelopeUnaccountedAcrossTeardown) {
  // Sent-side accounting across a teardown flush: everything handed to
  // send() before destruction is either delivered or counted dropped.
  SimTransport receiver(net_, 2);
  int delivered = 0;
  receiver.set_receiver([&](sim::NodeId, const Envelope&) { ++delivered; });
  {
    SimTransport sender(net_, 1, &sim_);
    sender.send(2, envelope(1, "a"));
    sim_.run_until(500);  // first tick's flush fires and delivers
    sender.send(2, envelope(2, "b"));
    sender.send(2, envelope(3, "c"));
  }
  sim_.run_until(1000);
  EXPECT_EQ(delivered + static_cast<int>(net_.counters().get("msgs_dropped")),
            3);
  EXPECT_EQ(delivered, 3);
}

TEST_F(TransportTest, MidBundleReceiverClearStopsDeliverySafely) {
  SimTransport sender(net_, 1, &sim_);
  SimTransport receiver(net_, 2);
  std::vector<std::uint64_t> got;
  receiver.set_receiver([&](sim::NodeId, const Envelope& env) {
    got.push_back(env.rpc_id);
    // React to the first sub-envelope by unhooking — e.g. a node
    // shutting down mid-bundle. The transport must not invoke the now
    // empty std::function for the remaining sub-envelopes (pre-fix this
    // threw std::bad_function_call).
    receiver.set_receiver({});
  });

  sender.send(2, envelope(1, "a"));
  sender.send(2, envelope(2, "b"));
  sender.send(2, envelope(3, "c"));
  sim_.run_until(500);

  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 1u);
}

TEST_F(TransportTest, EncodeOnceAcrossRepeatSends) {
  SimTransport sender(net_, 1);
  SimTransport r2(net_, 2);
  SimTransport r3(net_, 3);
  const Envelope env = envelope(1, "shared");
  sender.send(2, env);
  sender.send(3, env);
  sender.send(2, env);  // retransmit reuses the cached buffer too
  sim_.run_until(500);
  EXPECT_EQ(net_.counters().get("msgs_sent"), 3u);
  EXPECT_EQ(net_.counters().get("encode_calls"), 1u);
}

// The coalescing path encodes once too: a broadcast to four nodes over
// two instants (the second a retransmission) is one encode, and every
// datagram carries the same shared buffer. Each destination's lone
// envelope ships bare, so no bundle is encoded either.
TEST_F(TransportTest, CoalescedBroadcastEncodesOnce) {
  SimTransport sender(net_, 1, &sim_);
  std::vector<std::unique_ptr<SimTransport>> receivers;
  std::vector<Envelope> got;
  for (sim::NodeId n = 2; n <= 5; ++n) {
    receivers.push_back(std::make_unique<SimTransport>(net_, n));
    receivers.back()->set_receiver(
        [&](sim::NodeId, const Envelope& e) { got.push_back(e); });
  }
  const Envelope env = envelope(7, "broadcast");
  for (sim::NodeId n = 5; n >= 2; --n) sender.send(n, env);
  sim_.run_until(50);
  EXPECT_EQ(net_.counters().get("encode_calls"), 1u);
  EXPECT_EQ(env.shared_encoding().use_count(), 1 + 4)  // env + in flight
      << "every datagram holds the envelope's own buffer";
  for (sim::NodeId n = 2; n <= 5; ++n) sender.send(n, env);
  sim_.run_until(500);
  EXPECT_EQ(net_.counters().get("encode_calls"), 1u);
  EXPECT_EQ(net_.counters().get("msgs_sent"), 8u);
  EXPECT_EQ(net_.counters().get("bytes_sent"), 8 * env.encode().size());
  ASSERT_EQ(got.size(), 8u);
  for (const Envelope& e : got) EXPECT_EQ(to_string(e.body), "broadcast");
}

}  // namespace
}  // namespace bftbc::rpc
