// Transport abstraction: how a protocol node sends and receives envelopes.
//
// Protocol code (clients, replicas, baselines, Byzantine behaviors) is
// written against this interface only, so the same state machines run on
// the deterministic simulator today and could run on sockets unchanged.
#pragma once

#include <functional>
#include <map>
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

// Transport bound to the simulated network.
//
// With a simulator handle (`coalesce_sim`), outgoing sends coalesce:
// every envelope queued for one destination within a single virtual-time
// instant ships as one MsgType::kBatch wire message (one syscall/packet
// in a deployment). The receiving transport unbundles transparently, so
// protocol code sees the same per-envelope delivery either way — but the
// sub-envelopes now arrive at the same tick, which is what feeds the
// replica's same-tick batches real multi-message batches.
class SimTransport final : public Transport {
 public:
  SimTransport(sim::Network& network, sim::NodeId id,
               sim::Simulator* coalesce_sim = nullptr)
      : network_(network), id_(id), coalesce_sim_(coalesce_sim) {
    network_.register_node(
        id_, [this](sim::NodeId from, const EncodedMessage& payload) {
          if (!receiver_) return;
          auto env = Envelope::decode(payload.view());
          if (!env.has_value()) return;  // corrupted / garbage: drop silently
          if (env->type == MsgType::kBatch) {
            deliver_bundle(from, env->body);
            return;
          }
          receiver_(from, *env);
        });
  }

  ~SimTransport() override {
    if (flush_scheduled_) {
      coalesce_sim_->cancel(flush_timer_);
      // Teardown must not silently lose envelopes the caller already
      // handed over: ship the coalescing remainder exactly as the
      // cancelled flush timer would have (a live transport drains its
      // socket queue the same way on close).
      flush_sends();
    }
    network_.unregister_node(id_);
  }

  SimTransport(const SimTransport&) = delete;
  SimTransport& operator=(const SimTransport&) = delete;

  sim::NodeId node_id() const override { return id_; }

  void send(sim::NodeId to, const Envelope& env) override {
    if (coalesce_sim_ == nullptr) {
      send_now(to, env);
      return;
    }
    pending_[to].push_back(env);
    if (!flush_scheduled_) {
      flush_scheduled_ = true;
      // Delay 0 fires after every event already queued for this instant,
      // so one flush gathers the whole tick's sends.
      flush_timer_ = coalesce_sim_->schedule(0, [this] { flush_sends(); });
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

  void flush_sends() {
    flush_scheduled_ = false;
    std::map<sim::NodeId, std::vector<Envelope>> pending;
    pending.swap(pending_);
    for (auto& [to, envs] : pending) {
      if (envs.size() == 1) {
        send_now(to, envs.front());
        continue;
      }
      Writer w;
      w.put_u32(static_cast<std::uint32_t>(envs.size()));
      for (const Envelope& sub : envs) {
        if (!sub.has_cached_encoding()) network_.note_encode();
        w.put_bytes(sub.shared_encoding().view());
      }
      Envelope batch;
      batch.type = MsgType::kBatch;
      batch.body = std::move(w).take();
      send_now(to, batch);
    }
  }

  void deliver_bundle(sim::NodeId from, BytesView body) {
    Reader r(body);
    const std::uint32_t count = r.get_u32();
    for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
      // Re-checked every iteration: a handler may react to one
      // sub-envelope by clearing the receiver (shutdown, node
      // unregistration), and invoking an empty std::function is UB.
      if (!receiver_) return;
      auto sub = Envelope::decode(r.get_bytes());
      // Nested bundles are never produced; drop them so a Byzantine
      // sender cannot build unbounded recursion.
      if (!sub.has_value() || sub->type == MsgType::kBatch) continue;
      receiver_(from, *sub);
    }
  }

  sim::Network& network_;
  sim::NodeId id_;
  sim::Simulator* coalesce_sim_;
  Receiver receiver_;

  // Same-tick coalescing state (used only with coalesce_sim_).
  std::map<sim::NodeId, std::vector<Envelope>> pending_;
  sim::TimerId flush_timer_ = 0;
  bool flush_scheduled_ = false;
};

}  // namespace bftbc::rpc
