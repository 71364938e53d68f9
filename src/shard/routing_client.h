// Shard-routing client: one BFT-BC protocol client per replica group,
// fronted by a single read/write interface that routes by object id.
//
// Each inner core::Client speaks to exactly one 3f+1 group through its
// own transport and that group's keystore; the router never touches
// protocol state. What the router adds:
//
//   - deterministic object→shard routing (shard_map.h),
//   - a CROSS-SHARD pipeline window: submit_write admits up to
//     `max_inflight_total` writes across all shards at once (0 =
//     unlimited), queueing FIFO past that. Inner clients keep their own
//     per-shard windows and the per-object FIFO that BFT-linearizability
//     rests on — the router only widens concurrency across groups, never
//     reorders within an object,
//   - whole-op latency summaries ("client.write.total_ms" /
//     "client.read.total_ms") measured around the routed call, claimed
//     via MetricsRegistry::claim_unique so they can never silently alias
//     an inner client's summaries, and
//   - routed-op counters, total and per shard ("writes", "reads",
//     "shard/<i>/routed_writes", "shard/<i>/routed_reads" under the
//     registry; Counters mirror the totals for fold-based reporting).
//
// One shard stalling (partition, crash beyond f) only stalls ops routed
// to it; the other groups keep completing — the property the
// PartitionedShard test pins.
#pragma once

#include <deque>
#include <string>
#include <vector>

#include "bftbc/client.h"
#include "metrics/registry.h"
#include "shard/shard_map.h"
#include "sim/simulator.h"
#include "util/stats.h"

namespace bftbc::shard {

struct RoutingClientOptions {
  // Cross-shard pipeline window for submit_write; 0 = unlimited (each
  // inner client's own max_inflight still applies).
  std::uint32_t max_inflight_total = 0;
  // Observability sink shared with the inner clients (may be null).
  metrics::MetricsRegistry* registry = nullptr;
};

class RoutingClient {
 public:
  using WriteCallback = core::Client::WriteCallback;
  using ReadCallback = core::Client::ReadCallback;

  // `clients[s]` must be the protocol client bound to shard s's replica
  // group; borrowed, not owned, and must outlive the router. All inner
  // clients share `scheduler` (one virtual clock per process).
  RoutingClient(ShardMap map, std::vector<core::Client*> clients,
                sim::Scheduler& scheduler,
                RoutingClientOptions options = RoutingClientOptions());

  // The client id every leg shares.
  quorum::ClientId id() const { return clients_.front()->id(); }
  std::uint32_t shards() const { return map_.shards(); }
  const ShardMap& map() const { return map_; }
  std::uint32_t shard_of(quorum::ObjectId object) const {
    return map_.shard_of(object);
  }
  core::Client& shard_client(std::uint32_t s) { return *clients_.at(s); }

  // Routed single ops (at most one in flight per object, like
  // core::Client::write/read).
  void write(quorum::ObjectId object, Bytes value, WriteCallback cb);
  void read(quorum::ObjectId object, ReadCallback cb);

  // Routed pipelined write: admits into the cross-shard window (or the
  // router FIFO past it), then dispatches through the owning shard's
  // submit_write.
  void submit_write(quorum::ObjectId object, Bytes value, WriteCallback cb);

  // Router-level queue + window occupancy (inner clients may hold more).
  std::size_t queued_writes() const { return queue_.size(); }
  std::uint32_t inflight_total() const { return inflight_; }

  // Counters: "writes", "reads", "queued_writes", "inflight_peak".
  const Counters& metrics() const { return metrics_; }

 private:
  struct Pending {
    quorum::ObjectId object = 0;
    Bytes value;
    WriteCallback cb;
    sim::Time started = 0;  // admission time: latency includes queueing
  };

  void pump();
  void dispatch(Pending p);

  ShardMap map_;
  std::vector<core::Client*> clients_;
  sim::Scheduler& sim_;
  RoutingClientOptions options_;
  Counters metrics_;

  std::deque<Pending> queue_;
  std::uint32_t inflight_ = 0;
  std::uint64_t inflight_peak_ = 0;
  bool pumping_ = false;
  bool repump_ = false;

  // Registry handles (null without options.registry).
  Summary* write_total_ = nullptr;
  Summary* read_total_ = nullptr;
  std::vector<metrics::Counter*> shard_writes_;
  std::vector<metrics::Counter*> shard_reads_;
};

}  // namespace bftbc::shard
