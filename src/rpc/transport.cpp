#include "rpc/transport.h"

namespace bftbc::rpc {

namespace {
constexpr std::size_t kMaxLengthPrefix = 5;  // varint of a u32 length
}  // namespace

void SendCoalescer::send(sim::NodeId to, const Envelope& env) {
  pending_[to].push_back(env);
  if (flush_timer_ == 0) {
    // Delay 0 fires after every event already queued for this instant,
    // so one flush gathers the whole tick's sends.
    flush_timer_ = scheduler_.schedule(0, [this] { flush(); });
  }
}

void SendCoalescer::flush() {
  scheduler_.cancel(flush_timer_);
  flush_timer_ = 0;
  std::map<sim::NodeId, std::vector<Envelope>> pending;
  pending.swap(pending_);
  for (auto& [to, envs] : pending) {
    for (std::size_t first = 0; first < envs.size();) {
      // Extend the bundle [first, end) while it stays under the cap.
      std::size_t end = first;
      std::size_t bytes = 0;
      while (end < envs.size()) {
        const Envelope& sub = envs[end];
        if (!sub.has_cached_encoding()) note_encode_();
        const std::size_t size = sub.shared_encoding().size() + kMaxLengthPrefix;
        if (end > first && bytes + size > kMaxBundleBytes) break;
        bytes += size;
        ++end;
      }
      if (end - first == 1) {
        send_(to, envs[first++]);
        continue;
      }
      Writer w;
      w.reserve(4 + bytes);  // the count, then each prefixed encoding
      w.put_u32(static_cast<std::uint32_t>(end - first));
      for (; first < end; ++first) {
        w.put_bytes(envs[first].shared_encoding().view());
      }
      Envelope batch;
      batch.type = MsgType::kBatch;
      batch.body = std::move(w).take();
      send_(to, batch);
    }
  }
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
