#include "harness/cluster.h"

#include <string>
#include <utility>

namespace bftbc::harness {

std::vector<sim::NodeId> replica_nodes(std::uint32_t n, std::uint32_t shard) {
  std::vector<sim::NodeId> nodes(n);
  for (quorum::ReplicaId r = 0; r < n; ++r) {
    nodes[r] = shard_replica_node(shard, r);
  }
  return nodes;
}

Cluster::Cluster(ClusterOptions options)
    : options_(std::move(options)),
      map_(options_.shards),
      config_(quorum::QuorumConfig::bft_bc(options_.f)),
      sim_(),
      rng_(options_.seed),
      tracer_(options_.trace_capacity),
      net_(sim_, rng_.split(), options_.link) {
  net_.bind_metrics(metrics_, "net");
  if (tracer_.enabled()) net_.set_tracer(&tracer_);

  const std::uint64_t key_base = options_.seed ^ 0x5eedc0de;
  groups_.resize(map_.shards());
  for (std::uint32_t s = 0; s < map_.shards(); ++s) {
    Group& group = groups_[s];
    group.keystore = std::make_unique<crypto::Keystore>(
        options_.scheme, shard::shard_key_seed(key_base, s),
        options_.rsa_bits);
    group.transports.resize(config_.n);
    group.replicas.resize(config_.n);
    for (quorum::ReplicaId r = 0; r < config_.n; ++r) construct_replica(s, r);
  }
}

Cluster::~Cluster() = default;

std::unique_ptr<rpc::SimTransport> Cluster::make_transport(sim::NodeId node) {
  return std::make_unique<rpc::SimTransport>(
      net_, node, options_.coalesce_sends ? &sim_ : nullptr);
}

void Cluster::construct_replica(std::uint32_t s, quorum::ReplicaId r) {
  core::ReplicaOptions ropts = options_.replica;
  ropts.optimized = options_.optimized;
  ropts.strong = options_.strong;
  ropts.mac_auth = options_.mac_auth;
  if (ropts.registry == nullptr) ropts.registry = &metrics_;
  if (shards() > 1) {
    ropts.metrics_scope =
        "shard/" + std::to_string(s) + "/replica/" + std::to_string(r);
  }

  Group& group = groups_[s];
  auto transport = make_transport(shard_replica_node(s, r));
  std::unique_ptr<core::Replica> replica;
  auto factory = options_.replica_factories.find(r);
  if (factory != options_.replica_factories.end() && factory->second) {
    replica =
        factory->second(config_, r, *group.keystore, *transport, sim_, ropts);
  } else {
    replica = std::make_unique<core::Replica>(config_, r, *group.keystore,
                                              *transport, sim_, ropts);
  }
  group.transports[r] = std::move(transport);
  group.replicas[r] = std::move(replica);
}

shard::RoutingClient& Cluster::add_client(quorum::ClientId id) {
  core::ClientOptions copts = options_.client_defaults;
  copts.optimized = options_.optimized;
  copts.strong = options_.strong;
  copts.mac_auth = options_.mac_auth;
  return add_client(id, std::move(copts), options_.routing);
}

shard::RoutingClient& Cluster::add_client(quorum::ClientId id,
                                          core::ClientOptions copts) {
  return add_client(id, std::move(copts), options_.routing);
}

shard::RoutingClient& Cluster::add_client(
    quorum::ClientId id, core::ClientOptions copts,
    shard::RoutingClientOptions routing) {
  auto existing = clients_.find(id);
  if (existing != clients_.end()) return *existing->second.router;

  if (copts.registry == nullptr) copts.registry = &metrics_;
  if (copts.tracer == nullptr && tracer_.enabled()) copts.tracer = &tracer_;
  ClientEntry entry;
  std::vector<core::Client*> legs;
  for (std::uint32_t s = 0; s < shards(); ++s) {
    core::ClientOptions leg_opts = copts;
    // Distinct per-shard prefixes: the legs' latency streams must never
    // alias each other or the router's aggregate summaries.
    if (shards() > 1) {
      leg_opts.metrics_prefix = "shard/" + std::to_string(s) + "/";
    }
    auto transport = make_transport(shard_client_node(s, id));
    auto leg = std::make_unique<core::Client>(
        config_, id, *groups_[s].keystore, *transport, sim_, replica_nodes(s),
        rng_.split(), leg_opts);
    legs.push_back(leg.get());
    entry.transports.push_back(std::move(transport));
    entry.legs.push_back(std::move(leg));
    // Clients created through the harness are authorized writers (only
    // relevant when replicas enforce the ACL).
    for (auto& replica : groups_[s].replicas) replica->authorize(id);
  }
  if (shards() > 1 && routing.registry == nullptr) routing.registry = &metrics_;
  entry.router = std::make_unique<shard::RoutingClient>(map_, std::move(legs),
                                                        sim_, routing);
  shard::RoutingClient& ref = *entry.router;
  clients_[id] = std::move(entry);
  return ref;
}

metrics::MetricsRegistry& Cluster::snapshot_metrics() {
  const bool sharded = shards() > 1;
  for (std::uint32_t s = 0; s < shards(); ++s) {
    const std::string group = sharded ? "shard/" + std::to_string(s) : "";
    const std::string scope = sharded ? group + "/" : "";
    for (quorum::ReplicaId r = 0; r < config_.n; ++r) {
      metrics_.fold_counters(scope + "replica/" + std::to_string(r),
                             replica(r, s).metrics());
    }
    // Keystore counters: "sig_cache_hit", "sig_cache_miss",
    // "sig_verify_calls", "sign", "verify" (unscoped at S = 1).
    metrics_.fold_counters(group, keystore(s).counters());
    for (const auto& [id, entry] : clients_) {
      metrics_.fold_counters(scope + "client/" + std::to_string(id),
                             entry.legs[s]->metrics());
    }
  }
  // At S > 1 router totals land under the names the bench compare gate
  // parses ("client/<id>/writes"); at S = 1 the one leg already has them.
  if (sharded) {
    for (const auto& [id, entry] : clients_) {
      metrics_.fold_counters("client/" + std::to_string(id),
                             entry.router->metrics());
    }
  }
  return metrics_;
}

Result<core::Client::WriteResult> Cluster::write(shard::RoutingClient& c,
                                                 quorum::ObjectId object,
                                                 Bytes value) {
  return run_op<core::Client::WriteResult>(
      sim_,
      [&](core::Client::WriteCallback done) {
        c.write(object, std::move(value), std::move(done));
      },
      kMaxEvents);
}

Result<core::Client::ReadResult> Cluster::read(shard::RoutingClient& c,
                                               quorum::ObjectId object) {
  return run_op<core::Client::ReadResult>(
      sim_,
      [&](core::Client::ReadCallback done) { c.read(object, std::move(done)); },
      kMaxEvents);
}

bool Cluster::run_until(const std::function<bool()>& done,
                        std::size_t max_events) {
  return !sim_.run_while_pending([&done] { return !done(); }, max_events);
}

void Cluster::settle() { sim_.run(); }

void Cluster::crash_replica(quorum::ReplicaId r, std::uint32_t shard) {
  net_.crash(shard_replica_node(shard, r));
}

void Cluster::recover_replica(quorum::ReplicaId r, std::uint32_t shard) {
  net_.recover(shard_replica_node(shard, r));
}

void Cluster::restart_replica(quorum::ReplicaId r,
                              const std::vector<quorum::ObjectId>& objects,
                              std::uint32_t shard) {
  // Fail-stop restart with amnesia: everything in memory is gone.
  // Destruction order matters — the replica's constructor registered a
  // receiver on its transport, so the replica dies first, then the
  // transport (which unregisters the node from the network).
  Group& group = groups_.at(shard);
  group.replicas[r].reset();
  group.transports[r].reset();
  construct_replica(shard, r);
  net_.recover(shard_replica_node(shard, r));

  // The ACL was part of the lost state; re-authorize the current client
  // population as an administrator config push would. Stopped clients
  // get re-added too, harmlessly: their keys are revoked, so no new
  // signature of theirs verifies regardless of the ACL.
  for (const auto& entry : clients_) group.replicas[r]->authorize(entry.first);

  std::vector<sim::NodeId> peers;
  peers.reserve(config_.n - 1);
  for (quorum::ReplicaId p = 0; p < config_.n; ++p) {
    if (p != r) peers.push_back(shard_replica_node(shard, p));
  }
  // Only objects this shard owns are transferable: other groups hold
  // unrelated keyspaces, and their certificates would not validate here.
  std::vector<quorum::ObjectId> owned;
  for (quorum::ObjectId obj : objects) {
    if (map_.shard_of(obj) == shard) owned.push_back(obj);
  }
  group.replicas[r]->begin_recovery(owned, std::move(peers));
}

void Cluster::partition_shard(std::uint32_t shard) {
  // Cut the group off from every client leg that talks to it. Links
  // inside the group (and every other shard) stay up.
  std::vector<sim::NodeId> outside;
  for (const auto& entry : clients_) {
    outside.push_back(shard_client_node(shard, entry.first));
  }
  net_.partition_group(replica_nodes(shard), outside);
}

void Cluster::heal_shard(std::uint32_t shard) {
  for (sim::NodeId node : replica_nodes(shard)) {
    for (const auto& entry : clients_) {
      net_.heal(node, shard_client_node(shard, entry.first));
    }
  }
}

void Cluster::stop_client(quorum::ClientId c) {
  // Both halves of the paper's administrator action: the key can no
  // longer mint new signatures, and the ACL entry disappears.
  for (Group& group : groups_) {
    group.keystore->revoke(quorum::client_principal(c));
    for (auto& replica : group.replicas) replica->deauthorize(c);
  }
}

}  // namespace bftbc::harness
