// In-memory span recorder plus the decorators that feed it.
//
// The benchmark records spans only at the seams the protocol already
// exposes: rpc::Transport (send and the receiver callback), sim::Scheduler
// (tasks a Replica or Client schedules, e.g. Replica::flush_batch), and each
// net::EventLoop::poll_once call made by the benchmark's driver loop.
// Nothing inside src/ is instrumented.
//
// Spans nest strictly (everything runs on one thread), so self time is kept
// online with a stack: when a span closes, its duration is added to its
// parent's child time, and its own duration minus its child time is added to
// its layer's self total. All spans are also kept in memory and can be
// written out as CSV when the run ends.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "rpc/transport.h"
#include "sim/simulator.h"

namespace livebench {

enum class Layer : std::uint8_t {
  kNet,      // EventLoop::poll_once minus the callbacks it dispatched
  kNetIdle,  // poll_once calls that dispatched nothing
  kRpcSend,  // rpc::Transport::send (queueing into the UDP transport)
  kReplica,  // replica receive callbacks and scheduled tasks
  kClient,   // client receive callbacks, timers and operation invocation
  kBench,    // load generator: operation callbacks and history recording
  kByz,      // the Byzantine client building and signing its PREPAREs
  kProbe,    // the core-speed probe (speed_probe.h)
  kCount
};

inline constexpr std::array<const char*, static_cast<std::size_t>(Layer::kCount)>
    kLayerNames = {"net", "net_idle", "rpc_send", "replica",
                   "client", "bench", "byz", "probe"};

inline std::uint64_t mono_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class SpanTracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  struct Span {
    std::uint64_t start_ns = 0;
    std::uint64_t dur_ns = 0;
    std::uint32_t parent = kNoParent;  // index into spans(), or kNoParent
    Layer layer = Layer::kNet;
    std::uint32_t node = 0;     // request id part 1: the sending node
    std::uint64_t rpc_id = 0;   // request id part 2: the envelope's rpc_id
  };

  bool enabled() const { return enabled_; }
  // Only toggle with no span open (between poll_once calls).
  void set_enabled(bool on) { enabled_ = on; }

  // Returns a token for close(); kNoParent when tracing is off.
  std::uint32_t open(Layer layer, std::uint32_t node = 0,
                     std::uint64_t rpc_id = 0) {
    if (!enabled_) return kNoParent;
    const auto idx = static_cast<std::uint32_t>(spans_.size());
    Span s;
    s.parent = stack_.empty() ? kNoParent : stack_.back().index;
    s.layer = layer;
    s.node = node;
    s.rpc_id = rpc_id;
    spans_.push_back(s);
    stack_.push_back(Frame{idx, 0});
    spans_.back().start_ns = mono_ns();
    return idx;
  }

  // Closes the innermost span; `layer` may re-classify it (a poll that
  // dispatched nothing becomes idle time).
  void close(std::uint32_t token, Layer layer) {
    if (token == kNoParent) return;
    const std::uint64_t end = mono_ns();
    const Frame frame = stack_.back();
    stack_.pop_back();
    Span& s = spans_[frame.index];
    s.dur_ns = end - s.start_ns;
    s.layer = layer;
    const std::uint64_t self =
        s.dur_ns > frame.child_ns ? s.dur_ns - frame.child_ns : 0;
    self_ns_[static_cast<std::size_t>(layer)] += self;
    if (!stack_.empty()) stack_.back().child_ns += s.dur_ns;
  }

  std::uint64_t self_ns(Layer layer) const {
    return self_ns_[static_cast<std::size_t>(layer)];
  }
  const std::vector<Span>& spans() const { return spans_; }
  void reserve(std::size_t n) { spans_.reserve(n); }

  // One line per span: index,parent,layer,node,rpc_id,start_ns,dur_ns.
  bool write_csv(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "index,parent,layer,node,rpc_id,start_ns,dur_ns\n");
    const std::uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out, "%zu,%lld,%s,%u,%llu,%llu,%llu\n", i,
                   s.parent == kNoParent ? -1LL
                                         : static_cast<long long>(s.parent),
                   kLayerNames[static_cast<std::size_t>(s.layer)], s.node,
                   static_cast<unsigned long long>(s.rpc_id),
                   static_cast<unsigned long long>(s.start_ns - base),
                   static_cast<unsigned long long>(s.dur_ns));
    }
    return std::fclose(out) == 0;
  }

 private:
  struct Frame {
    std::uint32_t index = 0;
    std::uint64_t child_ns = 0;
  };
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<Frame> stack_;
  std::array<std::uint64_t, static_cast<std::size_t>(Layer::kCount)>
      self_ns_{};
};

class ScopedSpan {
 public:
  ScopedSpan(SpanTracer& tracer, Layer layer, std::uint32_t node = 0,
             std::uint64_t rpc_id = 0)
      : tracer_(tracer), layer_(layer),
        token_(tracer.open(layer, node, rpc_id)) {}
  ~ScopedSpan() { tracer_.close(token_, layer_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanTracer& tracer_;
  Layer layer_;
  std::uint32_t token_;
};

// rpc::Transport decorator around one node's UdpTransport. Times send()
// and the receiver callback, and counts what the per-op metrics need:
// deliveries, sends, and new requests (so retransmissions show as sends
// beyond the first fan-out of each request).
class TracedTransport final : public bftbc::rpc::Transport {
 public:
  TracedTransport(bftbc::rpc::Transport& inner, SpanTracer& tracer,
                  Layer recv_layer)
      : inner_(inner), tracer_(tracer), recv_layer_(recv_layer) {}

  bftbc::sim::NodeId node_id() const override { return inner_.node_id(); }

  void send(bftbc::sim::NodeId to, const bftbc::rpc::Envelope& env) override {
    ++sends_;
    // Client rpc ids only grow, so a send above the largest id seen so
    // far is a new request; anything else is a retransmission.
    if (track_requests_ && env.rpc_id > max_request_id_) {
      max_request_id_ = env.rpc_id;
      ++requests_;
    }
    ScopedSpan span(tracer_, Layer::kRpcSend, inner_.node_id(), env.rpc_id);
    inner_.send(to, env);
  }

  void set_receiver(Receiver receiver) override {
    inner_.set_receiver([this, receiver = std::move(receiver)](
                            bftbc::sim::NodeId from,
                            const bftbc::rpc::Envelope& env) {
      ++deliveries_;
      ScopedSpan span(tracer_, recv_layer_, from, env.rpc_id);
      receiver(from, env);
    });
  }

  // Client transports track request ids; replica replies reuse the
  // request's rpc id, so counting them would double-count requests.
  void track_requests() { track_requests_ = true; }

  std::uint64_t sends() const { return sends_; }
  std::uint64_t requests() const { return requests_; }
  std::uint64_t deliveries() const { return deliveries_; }

 private:
  bftbc::rpc::Transport& inner_;
  SpanTracer& tracer_;
  Layer recv_layer_;
  bool track_requests_ = false;
  std::uint64_t max_request_id_ = 0;
  std::uint64_t sends_ = 0;
  std::uint64_t requests_ = 0;
  std::uint64_t deliveries_ = 0;
};

// sim::Scheduler decorator handed to one Replica or Client: every task it
// schedules (the replica's flush_batch, the client's retransmit timers)
// runs inside a span of that node's layer.
class TracedScheduler final : public bftbc::sim::Scheduler {
 public:
  TracedScheduler(bftbc::sim::Scheduler& inner, SpanTracer& tracer,
                  Layer layer)
      : inner_(inner), tracer_(tracer), layer_(layer) {}

  bftbc::sim::Time now() const override { return inner_.now(); }

  bftbc::sim::TimerId schedule(bftbc::sim::Time delay,
                               std::function<void()> fn) override {
    return inner_.schedule(delay, [this, fn = std::move(fn)] {
      ++tasks_;
      ScopedSpan span(tracer_, layer_);
      fn();
    });
  }

  void cancel(bftbc::sim::TimerId id) override { inner_.cancel(id); }

  std::uint64_t tasks() const { return tasks_; }

 private:
  bftbc::sim::Scheduler& inner_;
  SpanTracer& tracer_;
  Layer layer_;
  std::uint64_t tasks_ = 0;
};

}  // namespace livebench
