// Transport abstraction: how a protocol node sends and receives envelopes.
//
// Protocol code (clients, replicas, baselines, Byzantine behaviors) is
// written against this interface only, so the same state machines run on
// the deterministic simulator and, through net::UdpTransport, on sockets.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "rpc/message.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace bftbc::rpc {

class Transport {
 public:
  virtual ~Transport() = default;

  // This node's address.
  virtual sim::NodeId node_id() const = 0;

  // Fire-and-forget send; the network may lose/duplicate/reorder it.
  virtual void send(sim::NodeId to, const Envelope& env) = 0;

  // Delivery callback. Malformed payloads are dropped before reaching it.
  using Receiver = std::function<void(sim::NodeId from, const Envelope& env)>;
  virtual void set_receiver(Receiver receiver) = 0;
};

// Same-instant send coalescing, shared by SimTransport and
// net::UdpTransport. Every envelope queued for one destination before the
// delay-0 flush timer runs (one virtual-time instant, or one live loop
// wakeup) ships as one MsgType::kBatch wire message — one packet in a
// deployment; a lone envelope ships bare. The receiving transport
// unbundles through deliver(), so protocol code sees the same
// per-envelope delivery either way — but the sub-envelopes now arrive at
// the same tick, which is what feeds the replica's same-tick batches
// real multi-message batches.
//
// The owner supplies how one wire envelope goes out and how a first-time
// encode is counted, and calls flush() before its wire goes away: an
// envelope accepted by send() never silently vanishes.
class SendCoalescer {
 public:
  // A bundle closes before its sub-envelopes, each with a worst-case
  // length prefix, would pass this many bytes, so a live bundle plus its
  // framing fits one UDP datagram (65,507 payload bytes on loopback). A
  // single envelope above the cap ships alone.
  static constexpr std::size_t kMaxBundleBytes = 60 * 1024;

  using SendFn = std::function<void(sim::NodeId to, const Envelope& env)>;

  SendCoalescer(sim::Scheduler& scheduler, SendFn send,
                std::function<void()> note_encode)
      : scheduler_(scheduler),
        send_(std::move(send)),
        note_encode_(std::move(note_encode)) {}
  ~SendCoalescer() { scheduler_.cancel(flush_timer_); }

  SendCoalescer(const SendCoalescer&) = delete;
  SendCoalescer& operator=(const SendCoalescer&) = delete;

  void send(sim::NodeId to, const Envelope& env);

  // Ships everything pending now, as the flush timer would.
  void flush();

  // Hands a received wire envelope to `receiver`, unpacking a kBatch
  // bundle into its sub-envelopes.
  static void deliver(const Transport::Receiver& receiver, sim::NodeId from,
                      const Envelope& env);

 private:
  sim::Scheduler& scheduler_;
  SendFn send_;
  std::function<void()> note_encode_;
  std::map<sim::NodeId, std::vector<Envelope>> pending_;
  sim::TimerId flush_timer_ = 0;  // 0: no flush pending
};

// Transport bound to the simulated network. With a simulator handle
// (`coalesce_sim`), outgoing sends go through a SendCoalescer; without
// one, each envelope is sent at once, so wire counts stay one per
// envelope.
class SimTransport final : public Transport {
 public:
  SimTransport(sim::Network& network, sim::NodeId id,
               sim::Simulator* coalesce_sim = nullptr)
      : network_(network), id_(id) {
    if (coalesce_sim != nullptr) {
      coalescer_.emplace(
          *coalesce_sim,
          [this](sim::NodeId to, const Envelope& env) { send_now(to, env); },
          [this] { network_.note_encode(); });
    }
    network_.register_node(
        id_, [this](sim::NodeId from, const EncodedMessage& payload) {
          if (!receiver_) return;
          auto env = Envelope::decode(payload.view());
          if (!env.has_value()) return;  // corrupted / garbage: drop silently
          SendCoalescer::deliver(receiver_, from, *env);
        });
  }

  ~SimTransport() override {
    if (coalescer_) coalescer_->flush();
    network_.unregister_node(id_);
  }

  SimTransport(const SimTransport&) = delete;
  SimTransport& operator=(const SimTransport&) = delete;

  sim::NodeId node_id() const override { return id_; }

  void send(sim::NodeId to, const Envelope& env) override {
    if (coalescer_) {
      coalescer_->send(to, env);
    } else {
      send_now(to, env);
    }
  }

  void set_receiver(Receiver receiver) override {
    receiver_ = std::move(receiver);
  }

 private:
  void send_now(sim::NodeId to, const Envelope& env) {
    // Encode-once fan-out: serialize on the first send of this envelope,
    // then hand the same shared buffer to every target and retransmit.
    if (!env.has_cached_encoding()) network_.note_encode();
    network_.send(id_, to, env.shared_encoding());
  }

  sim::Network& network_;
  sim::NodeId id_;
  Receiver receiver_;
  std::optional<SendCoalescer> coalescer_;
};

}  // namespace bftbc::rpc
