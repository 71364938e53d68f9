#include "sim/network.h"

#include "util/log.h"

namespace bftbc::sim {

Network::Network(Simulator& simulator, Rng rng, LinkConfig default_link)
    : sim_(simulator), rng_(rng), default_link_(default_link) {
  for (const char* name :
       {"msgs_sent", "msgs_delivered", "msgs_dropped", "msgs_duplicated",
        "msgs_corrupted", "bytes_sent", "bytes_delivered", "encode_calls"}) {
    counters_.inc(name, 0);
  }
}

void Network::register_node(NodeId id, Handler handler) {
  handlers_[id] = std::move(handler);
}

void Network::unregister_node(NodeId id) { handlers_.erase(id); }

void Network::note_encode() { counters_.inc("encode_calls"); }

const LinkConfig& Network::link_for(NodeId from, NodeId to) const {
  auto it = link_overrides_.find({from, to});
  return it == link_overrides_.end() ? default_link_ : it->second;
}

Time Network::draw_delay(const LinkConfig& cfg) {
  Time d = cfg.base_delay;
  if (cfg.jitter_mean > 0) {
    d += static_cast<Time>(
        rng_.next_exponential(static_cast<double>(cfg.jitter_mean)));
  }
  return d;
}

void Network::deliver_later(NodeId from, NodeId to, EncodedMessage payload,
                            Time delay) {
  // Capturing the EncodedMessage bumps the refcount on the shared wire
  // buffer; the bytes themselves are never copied into the event queue.
  sim_.schedule(delay, [this, from, to, payload = std::move(payload)]() {
    if (crashed_.count(to) != 0 || handlers_.find(to) == handlers_.end()) {
      counters_.inc("msgs_dropped");
      if (tracer_) {
        tracer_->record(sim_.now(), metrics::TraceKind::kMsgDrop, from, to,
                        crashed_.count(to) ? "crashed" : "unregistered");
      }
      return;
    }
    counters_.inc("msgs_delivered");
    counters_.inc("bytes_delivered", payload.size());
    if (tracer_) {
      tracer_->record(sim_.now(), metrics::TraceKind::kMsgDeliver, from, to);
    }
    handlers_.at(to)(from, payload);
  });
}

void Network::send(NodeId from, NodeId to, const EncodedMessage& payload) {
  counters_.inc("msgs_sent");
  counters_.inc("bytes_sent", payload.size());
  if (tracer_) {
    tracer_->record(sim_.now(), metrics::TraceKind::kMsgSend, from, to,
                    std::to_string(payload.size()) + "B");
  }

  if (is_partitioned(from, to) || crashed_.count(to) != 0) {
    counters_.inc("msgs_dropped");
    if (tracer_) {
      tracer_->record(sim_.now(), metrics::TraceKind::kMsgDrop, from, to,
                      is_partitioned(from, to) ? "partitioned" : "crashed");
    }
    return;
  }

  const LinkConfig& cfg = link_for(from, to);
  if (rng_.next_bool(cfg.loss_probability)) {
    counters_.inc("msgs_dropped");
    if (tracer_) {
      tracer_->record(sim_.now(), metrics::TraceKind::kMsgDrop, from, to,
                      "loss");
    }
    return;
  }

  EncodedMessage to_deliver = payload;  // refcount bump, not a byte copy
  if (rng_.next_bool(cfg.corrupt_probability) && to_deliver.size() > 0) {
    // Flip one random byte in a *private* copy; receivers must treat it
    // as garbage, and other holders of the shared buffer must not see it.
    Bytes mutated = to_deliver.copy();
    const std::size_t idx =
        static_cast<std::size_t>(rng_.next_below(mutated.size()));
    mutated[idx] ^= static_cast<std::uint8_t>(1 + rng_.next_below(255));
    to_deliver = EncodedMessage::wrap(std::move(mutated));
    counters_.inc("msgs_corrupted");
  }

  if (rng_.next_bool(cfg.duplicate_probability)) {
    counters_.inc("msgs_duplicated");
    // The duplicate shares the same buffer as the original delivery.
    deliver_later(from, to, to_deliver, draw_delay(cfg));
  }
  deliver_later(from, to, std::move(to_deliver), draw_delay(cfg));
}

void Network::set_link(NodeId from, NodeId to, LinkConfig cfg) {
  link_overrides_[{from, to}] = cfg;
}

namespace {
std::pair<NodeId, NodeId> normalized(NodeId a, NodeId b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}
}  // namespace

void Network::partition(NodeId a, NodeId b) {
  partitions_.insert(normalized(a, b));
}

void Network::heal(NodeId a, NodeId b) { partitions_.erase(normalized(a, b)); }

void Network::partition_group(const std::vector<NodeId>& group_a,
                              const std::vector<NodeId>& group_b) {
  for (NodeId a : group_a)
    for (NodeId b : group_b) partition(a, b);
}

void Network::heal_all() { partitions_.clear(); }

bool Network::is_partitioned(NodeId a, NodeId b) const {
  return partitions_.count(normalized(a, b)) != 0;
}

}  // namespace bftbc::sim
