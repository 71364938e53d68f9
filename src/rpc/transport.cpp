#include "rpc/transport.h"

#include <algorithm>

namespace bftbc::rpc {

namespace {
constexpr std::size_t kMaxLengthPrefix = 5;  // varint of a u32 length
}  // namespace

void SendCoalescer::send(sim::NodeId to, const Envelope& env) {
  if (!env.has_cached_encoding()) note_encode_();
  pending_.push_back(Queued{to, static_cast<std::uint32_t>(pending_.size()),
                            env.shared_encoding()});
  if (flush_timer_ == 0) {
    // Delay 0 fires after every event already queued for this instant,
    // so one flush gathers the whole tick's sends.
    flush_timer_ = scheduler_.schedule(0, [this] { flush(); });
  }
}

void SendCoalescer::flush() {
  scheduler_.cancel(flush_timer_);
  flush_timer_ = 0;
  // send_ never re-enters the coalescer (a delivery is always a
  // scheduled event), so flushing_ holds still while it ships.
  flushing_.swap(pending_);
  std::sort(flushing_.begin(), flushing_.end(),
            [](const Queued& a, const Queued& b) {
              return a.to != b.to ? a.to < b.to : a.seq < b.seq;
            });
  for (std::size_t first = 0; first < flushing_.size();) {
    const sim::NodeId to = flushing_[first].to;
    // Extend the bundle [first, end) while it stays under the cap.
    std::size_t end = first;
    std::size_t bytes = 0;
    std::size_t body = 4;  // the count, then each prefixed encoding
    while (end < flushing_.size() && flushing_[end].to == to) {
      const std::size_t size = flushing_[end].payload.size();
      if (end > first && bytes + size + kMaxLengthPrefix > kMaxBundleBytes) {
        break;
      }
      bytes += size + kMaxLengthPrefix;
      body += varint_size(size) + size;
      ++end;
    }
    if (end - first == 1) {
      send_(to, flushing_[first].payload);
    } else {
      send_bundle(to, first, end, body);
    }
    first = end;
  }
  flushing_.clear();
}

void SendCoalescer::send_bundle(sim::NodeId to, std::size_t first,
                                std::size_t end, std::size_t body_size) {
  // The bytes of Envelope{kBatch, 0, 0, body}, written in one pass.
  note_encode_();
  Writer w;
  w.reserve(Envelope::header_size(body_size) + body_size);
  Envelope::put_header(w, MsgType::kBatch, 0, 0, body_size);
  w.put_u32(static_cast<std::uint32_t>(end - first));
  for (std::size_t i = first; i < end; ++i) {
    w.put_bytes(flushing_[i].payload.view());
  }
  send_(to, EncodedMessage::wrap(std::move(w).take()));
}

void SendCoalescer::deliver(const Transport::Receiver& receiver,
                            sim::NodeId from, const Envelope& env) {
  if (env.type != MsgType::kBatch) {
    receiver(from, env);
    return;
  }
  Reader r(env.body);
  const std::uint32_t count = r.get_u32();
  for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
    // Re-checked every iteration: a handler may react to one
    // sub-envelope by clearing the receiver (shutdown, node
    // unregistration), and invoking an empty std::function is UB.
    if (!receiver) return;
    auto sub = Envelope::decode(r.get_bytes());
    // Nested bundles are never produced; drop them so a Byzantine
    // sender cannot build unbounded recursion.
    if (!sub.has_value() || sub->type == MsgType::kBatch) continue;
    receiver(from, *sub);
  }
}

}  // namespace bftbc::rpc
