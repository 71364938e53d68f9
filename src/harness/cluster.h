// Test/bench harness: S independent BFT-BC replica groups (shards) in ONE
// simulator and ONE network, fronted by shard::RoutingClient instances.
// S = 1, the default, is the plain single-group cluster.
//
// Owns the Simulator, Network, one Keystore per shard, S x (3f+1)
// replicas, and any number of clients; provides synchronous write/read
// helpers that drive the event loop until the operation's callback
// fires. Replicas can be constructed through a factory hook so the
// fault-injection module can swap Byzantine implementations in.
//
// Sharding composes with the protocol because BFT-BC is per-object end to
// end: every certificate, prepare list, and timestamp chain names a
// single object, and an object lives in exactly one group. Each shard
// gets its OWN keystore (seed derived via shard::shard_key_seed; shard 0
// keeps the base seed), so a quorum certificate minted by group A's
// replicas can never validate against group B — cross-shard certificate
// replay fails closed even with colluding Byzantine replicas in both
// groups.
//
// Node addressing:
//   replica r of shard s   -> NodeId s * kShardNodeStride + r
//   client c's shard-s leg -> NodeId kClientNodeBase * (s + 1) + c
// so shard 0 puts replica r at NodeId r and client c at
// kClientNodeBase + c.
//
// Metrics: one registry for the whole fleet. At S = 1 the names are
// unscoped ("replica/<r>/...", "client/<id>/...", one shared
// "client.write.total_ms", bare keystore counters) and the router
// registers and folds nothing. At S > 1 replicas record under
// "shard/<s>/replica/<r>/...", legs under "shard/<s>/client...",
// keystore counters under "shard/<s>/", and each router claims the
// aggregate "client.write.total_ms"/"client.read.total_ms" summaries plus
// the "client/<id>/writes|reads" folds — the names the bench compare
// gate watches — so single- and multi-shard runs emit comparable JSON.
#pragma once

#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "bftbc/client.h"
#include "bftbc/replica.h"
#include "metrics/registry.h"
#include "metrics/trace.h"
#include "shard/routing_client.h"
#include "shard/shard_map.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace bftbc::harness {

inline constexpr sim::NodeId kClientNodeBase = 0x10000;
inline constexpr sim::NodeId kShardNodeStride = 0x100;

inline sim::NodeId shard_replica_node(std::uint32_t shard,
                                      quorum::ReplicaId r) {
  return static_cast<sim::NodeId>(shard) * kShardNodeStride + r;
}

inline sim::NodeId shard_client_node(std::uint32_t shard,
                                     quorum::ClientId c) {
  return kClientNodeBase * (static_cast<sim::NodeId>(shard) + 1) + c;
}

inline sim::NodeId client_node(quorum::ClientId c) {
  return shard_client_node(0, c);
}

// Node ids of shard `shard`'s replica group, in replica-id order.
std::vector<sim::NodeId> replica_nodes(std::uint32_t n,
                                       std::uint32_t shard = 0);

// Starts one asynchronous operation — `start` receives the completion
// callback — and runs `sim` until that callback fires. kInternal when
// the event queue drains or max_events trips first.
template <typename Value, typename Start>
Result<Value> run_op(sim::Simulator& sim, const Start& start,
                     std::size_t max_events =
                         sim::Simulator::kDefaultMaxEvents) {
  std::optional<Result<Value>> result;
  start([&result](Result<Value> r) { result = std::move(r); });
  sim.run_while_pending([&result] { return !result.has_value(); },
                        max_events);
  if (!result.has_value()) {
    return Status(StatusCode::kInternal,
                  "simulation drained before the operation completed");
  }
  return std::move(*result);
}

using ReplicaFactory = std::function<std::unique_ptr<core::Replica>(
    const quorum::QuorumConfig&, quorum::ReplicaId, crypto::Keystore&,
    rpc::Transport&, sim::Scheduler&, const core::ReplicaOptions&)>;

// Factory for any Replica subclass with the base-class constructor (the
// faults:: Byzantine species).
template <typename T>
ReplicaFactory replica_factory() {
  return [](const quorum::QuorumConfig& config, quorum::ReplicaId id,
            crypto::Keystore& keystore, rpc::Transport& transport,
            sim::Scheduler& scheduler, const core::ReplicaOptions& opts)
             -> std::unique_ptr<core::Replica> {
    return std::make_unique<T>(config, id, keystore, transport, scheduler,
                               opts);
  };
}

struct ClusterOptions {
  std::uint32_t shards = 1;
  std::uint32_t f = 1;
  bool optimized = false;  // applied to replicas and default client options
  bool strong = false;
  // MAC-authenticator mode (§3.3.2); applied to replicas and every
  // default-option client so both sides of the point-to-point channels
  // agree.
  bool mac_auth = false;
  crypto::SignatureScheme scheme = crypto::SignatureScheme::kHmacSim;
  std::size_t rsa_bits = 512;  // when scheme == kRsa
  std::uint64_t seed = 1;
  sim::LinkConfig link;
  core::ReplicaOptions replica;        // mode flags overridden by the above
  core::ClientOptions client_defaults; // mode flags overridden by the above
  // Router options for add_client; at S > 1 the registry is filled in.
  shard::RoutingClientOptions routing;
  // Per-slot construction hook, applied to the SAME slot in EVERY shard
  // (a Byzantine slot in each independent group stays within each
  // group's f budget); nullptr slots fall back to the default correct
  // replica. Keyed by in-group replica id.
  std::map<quorum::ReplicaId, ReplicaFactory> replica_factories;
  // Ring-buffer event-trace capacity (0 disables tracing — hot benches).
  std::size_t trace_capacity = metrics::Tracer::kDefaultCapacity;
  // Same-tick send coalescing on every node's transport: envelopes bound
  // for one destination within a virtual-time instant travel as a single
  // wire message, feeding the replicas' same-tick batch verification
  // real multi-message batches (and the reply-signing amortization that
  // rides on them). Off by default: message-level tests count wire
  // traffic one envelope at a time.
  bool coalesce_sends = false;
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions options = ClusterOptions());
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  std::uint32_t shards() const { return map_.shards(); }
  const shard::ShardMap& map() const { return map_; }
  std::uint32_t shard_of(quorum::ObjectId object) const {
    return map_.shard_of(object);
  }
  const quorum::QuorumConfig& config() const { return config_; }
  sim::Simulator& sim() { return sim_; }
  sim::Network& net() { return net_; }
  crypto::Keystore& keystore(std::uint32_t shard = 0) {
    return *groups_.at(shard).keystore;
  }
  Rng& rng() { return rng_; }

  core::Replica& replica(quorum::ReplicaId r, std::uint32_t shard = 0) {
    return *groups_.at(shard).replicas.at(r);
  }
  std::vector<sim::NodeId> replica_nodes(std::uint32_t shard = 0) const {
    return harness::replica_nodes(config_.n, shard);
  }

  // Creates (or returns the existing) routing client with this id: one
  // protocol leg per shard, all driven by one router. The one-argument
  // form applies the cluster's client defaults and mode flags; explicit
  // per-client options are used as given (set the mode flags yourself),
  // with the cluster's router options unless `routing` is passed.
  shard::RoutingClient& add_client(quorum::ClientId id);
  shard::RoutingClient& add_client(quorum::ClientId id,
                                   core::ClientOptions options);
  shard::RoutingClient& add_client(quorum::ClientId id,
                                   core::ClientOptions options,
                                   shard::RoutingClientOptions routing);

  // Raw transport bound to an otherwise-unused node id — building block
  // for colluders and custom Byzantine actors.
  std::unique_ptr<rpc::SimTransport> make_transport(sim::NodeId node);

  // ---- synchronous convenience (drives the simulator) ----------------
  Result<core::Client::WriteResult> write(shard::RoutingClient& c,
                                          quorum::ObjectId object,
                                          Bytes value);
  Result<core::Client::ReadResult> read(shard::RoutingClient& c,
                                        quorum::ObjectId object);
  // Runs the simulator until `done` returns true (or the event queue
  // drains / max_events trips). Returns true iff done() held.
  bool run_until(const std::function<bool()>& done,
                 std::size_t max_events = kMaxEvents);
  // Let all in-flight events settle.
  void settle();

  // ---- observability --------------------------------------------------
  // The cluster-wide registry. Replica/client hot paths record latencies
  // and grant totals into it directly; Counters sources (network,
  // replicas, clients, keystores) are folded in by snapshot_metrics().
  // Each cluster owns its own registry so concurrent experiments in one
  // process do not bleed into each other.
  metrics::MetricsRegistry& metrics_registry() { return metrics_; }
  // One ring for the whole fleet: every shard's traffic and client legs.
  metrics::Tracer& tracer() { return tracer_; }

  // Folds the network / replica / client / keystore Counters into the
  // registry (SET semantics — safe to call repeatedly) and returns it.
  // Call before reading or serializing cluster metrics.
  metrics::MetricsRegistry& snapshot_metrics();

  // Dumps the event ring buffer (oldest first) — for test failure paths.
  void dump_trace(std::ostream& os) const { tracer_.dump(os); }

  // ---- fault controls -------------------------------------------------
  void crash_replica(quorum::ReplicaId r, std::uint32_t shard = 0);
  void recover_replica(quorum::ReplicaId r, std::uint32_t shard = 0);
  // Fail-stop restart with amnesia: destroys replica r of `shard` (all
  // in-memory state — ObjectStates, prepare lists, ACL), rebuilds it on a
  // fresh transport via the same factory hook the constructor used,
  // heals its network links, and starts a STATE-XFER recovery of the
  // named objects this shard owns from the group's surviving peers.
  // Asynchronous: the caller drives the simulator until
  // `replica(r, shard).recovering()` clears.
  void restart_replica(quorum::ReplicaId r,
                       const std::vector<quorum::ObjectId>& objects,
                       std::uint32_t shard = 0);
  // Cuts every link between `shard`'s replica group and the client legs
  // that talk to it — ops routed there stall; other shards are untouched.
  void partition_shard(std::uint32_t shard);
  void heal_shard(std::uint32_t shard);
  // The paper's STOP event, fleet-wide: the client's key becomes unusable
  // for new signatures in every shard's keystore, and every replica drops
  // it from its ACL.
  void stop_client(quorum::ClientId c);

 private:
  static constexpr std::size_t kMaxEvents = 20'000'000;

  // One 3f+1 replica group. Replicas die before their transports (each
  // replica's constructor registered a receiver on its transport).
  struct Group {
    std::unique_ptr<crypto::Keystore> keystore;
    std::vector<std::unique_ptr<rpc::SimTransport>> transports;
    std::vector<std::unique_ptr<core::Replica>> replicas;
  };
  // A routing client plus the per-shard protocol legs it routes through.
  struct ClientEntry {
    std::vector<std::unique_ptr<rpc::SimTransport>> transports;
    std::vector<std::unique_ptr<core::Client>> legs;
    std::unique_ptr<shard::RoutingClient> router;
  };

  // Shared by the constructor and restart_replica: mode-flag overlay and
  // (S > 1) scoped metrics name, then factory-or-default construction
  // into slot r of shard s (transport first — the replica's ctor
  // registers its receiver).
  void construct_replica(std::uint32_t s, quorum::ReplicaId r);

  ClusterOptions options_;
  shard::ShardMap map_;
  quorum::QuorumConfig config_;
  sim::Simulator sim_;
  Rng rng_;
  // Declared before net_ / replicas / clients: they hold resolved handles
  // into these, so the sinks must outlive the recorders.
  metrics::MetricsRegistry metrics_;
  metrics::Tracer tracer_;
  sim::Network net_;

  std::vector<Group> groups_;
  std::map<quorum::ClientId, ClientEntry> clients_;
};

}  // namespace bftbc::harness
