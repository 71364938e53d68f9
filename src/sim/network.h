// Simulated unreliable asynchronous network (the paper's §2 model).
//
// "...a network that may fail to deliver messages, delay them, duplicate
//  them, corrupt them, or deliver them out of order, and there are no
//  known bounds on message delays."
//
// Each of those behaviors is a knob:
//   - loss_probability          fail to deliver
//   - duplicate_probability     deliver twice (at independent delays)
//   - corrupt_probability       flip a byte (receivers must reject)
//   - delay distribution        base + exponential jitter → reordering
//   - partitions                temporary total loss between node pairs
//
// The liveness assumption ("a request retransmitted to a correct server
// eventually gets a reply") holds for any loss_probability < 1, since
// deliveries are independent Bernoulli trials.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "metrics/trace.h"
#include "sim/simulator.h"
#include "util/bytes.h"
#include "util/encoded_message.h"
#include "util/rng.h"
#include "util/stats.h"

namespace bftbc::sim {

using NodeId = std::uint32_t;

// Client c of a deployment is NodeId kClientNodeBase + c, above every
// replica's id. The simulated harness and the live tools share this
// convention (the harness gives shard s's legs their own multiple).
inline constexpr NodeId kClientNodeBase = 0x10000;

inline NodeId client_node(std::uint32_t c) { return kClientNodeBase + c; }

struct LinkConfig {
  Time base_delay = 500 * kMicrosecond;   // propagation floor
  Time jitter_mean = 200 * kMicrosecond;  // exponential jitter (reordering)
  double loss_probability = 0.0;
  double duplicate_probability = 0.0;
  double corrupt_probability = 0.0;
};

class Network {
 public:
  Network(Simulator& simulator, Rng rng, LinkConfig default_link = {});

  // Handlers receive the shared immutable wire buffer: retaining it past
  // the callback is one refcount bump, never a copy.
  using Handler = std::function<void(NodeId from, const EncodedMessage& payload)>;

  // Register a node; messages addressed to `id` invoke `handler` at
  // delivery (virtual) time. Re-registering replaces the handler.
  void register_node(NodeId id, Handler handler);
  void unregister_node(NodeId id);

  // Queue a message. Applies the link's loss/duplication/corruption/delay
  // model; delivery happens via simulator events. The payload buffer is
  // shared (refcounted) across queueing and duplicate delivery; only the
  // corruption model copies, into a private buffer.
  void send(NodeId from, NodeId to, const EncodedMessage& payload);
  void send(NodeId from, NodeId to, Bytes payload) {
    send(from, to, EncodedMessage::wrap(std::move(payload)));
  }

  // Serialization accounting for the encode-once fan-out: the transport
  // calls this once per fresh Envelope::encode() (cache misses only), so
  // "encode_calls" vs "msgs_sent" measures buffer reuse.
  void note_encode();

  // Per-directed-link override (from → to).
  void set_link(NodeId from, NodeId to, LinkConfig cfg);
  void set_default_link(LinkConfig cfg) { default_link_ = cfg; }
  const LinkConfig& default_link() const { return default_link_; }

  // Symmetric partition management: while partitioned, all messages
  // between a and b are dropped.
  void partition(NodeId a, NodeId b);
  void heal(NodeId a, NodeId b);
  void partition_group(const std::vector<NodeId>& group_a,
                       const std::vector<NodeId>& group_b);
  void heal_all();
  bool is_partitioned(NodeId a, NodeId b) const;

  // A crashed node silently drops all traffic addressed to it (models
  // benign failure; Byzantine behaviors live in src/faults).
  void crash(NodeId id) { crashed_.insert(id); }
  void recover(NodeId id) { crashed_.erase(id); }
  bool is_crashed(NodeId id) const { return crashed_.count(id) != 0; }

  // Cumulative traffic accounting for the message-complexity
  // experiments: "msgs_sent", "msgs_delivered", "msgs_dropped",
  // "msgs_duplicated", "msgs_corrupted", "bytes_sent", "bytes_delivered"
  // and "encode_calls". All eight are present from construction on (at
  // zero until something happens), so a registry fold lists every one.
  const Counters& counters() const { return counters_; }

  // Optional event tracer: message send/deliver/drop events are recorded
  // into the ring buffer (null disables).
  void set_tracer(metrics::Tracer* tracer) { tracer_ = tracer; }

 private:
  const LinkConfig& link_for(NodeId from, NodeId to) const;
  Time draw_delay(const LinkConfig& cfg);
  void deliver_later(NodeId from, NodeId to, EncodedMessage payload,
                     Time delay);

  Simulator& sim_;
  Rng rng_;
  LinkConfig default_link_;
  std::map<NodeId, Handler> handlers_;
  std::map<std::pair<NodeId, NodeId>, LinkConfig> link_overrides_;
  std::set<std::pair<NodeId, NodeId>> partitions_;  // normalized (min,max)
  std::set<NodeId> crashed_;
  Counters counters_;
  metrics::Tracer* tracer_ = nullptr;
};

}  // namespace bftbc::sim
