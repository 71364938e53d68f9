// bftbc_bench — closed-loop multi-client load driver for a live cluster.
//
// The measurement half of the tentpole: real core::Client state machines
// on a net::EventLoop + net::UdpTransport, driving a cluster of bftbcd
// daemons over UDP. Each simulated client is closed-loop (one operation
// outstanding; the completion callback immediately issues the next), the
// standard way to measure a quorum system's per-op latency without
// open-loop queueing artifacts.
//
//   bftbc_bench --config bench/cluster_localhost.json --json BENCH_live.json
//
// runs 4 clients with 200 measured and 20 warmup ops each (--clients,
// --ops and --warmup change that).
//
// Sharded clusters need no extra flags: every client is a
// shard::RoutingClient over one protocol leg per replica group listed in
// the config's "shards" array (a legacy single-group config is a
// one-leg router — same code path). Each leg gets its own UDP socket and
// that shard's keystore (cluster.shard_seed), and ops route by object id
// through the shared shard::ShardMap static hash.
//
// Key popularity is a knob: --key-dist fixed pins object 1+(i mod
// objects) per client (the historical behavior, keeps baselines
// comparable), uniform draws a fresh key per op, and zipfian draws from
// a YCSB-style skewed distribution (--theta, default 0.99) so a few hot
// objects dominate — the workload shape that actually exercises routing
// balance and the replicas' resident-object cache.
//
// Phases per client: `warmup` uncounted ops (cache warmup, address
// learning), `ops` measured ops, then uncounted cooldown ops until every
// client has finished measuring — so the load stays constant across the
// whole measurement window instead of draining client by client.
//
// The JSON artifact is the repo's standard schema-v1 bench report
// (scripts/check_bench_json.py validates it): per-op latency summaries
// ("*_ms" with p50/p90/p99/p999), a throughput gauge over the measured
// window, the sig-cache counters, and the transport/client counter folds
// that the --compare ratio tracking reads.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bftbc/client.h"
#include "metrics/bench_report.h"
#include "net/cluster_config.h"
#include "net/event_loop.h"
#include "net/udp_transport.h"
#include "shard/routing_client.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace {

using namespace bftbc;

enum class KeyDist { kFixed, kUniform, kZipfian };

struct BenchClient {
  // One socket + protocol client per shard, one router over them.
  std::vector<std::unique_ptr<net::UdpTransport>> transports;
  std::vector<std::unique_ptr<core::Client>> legs;
  std::unique_ptr<shard::RoutingClient> router;
  quorum::ObjectId fixed_object = 0;
  Rng rng{0};
  std::uint64_t done_ops = 0;     // completed, any phase
  std::uint64_t measured = 0;     // completed measured ops
  bool finished_measuring = false;
};

struct Driver {
  net::EventLoop& loop;
  metrics::BenchReport& report;
  std::vector<std::unique_ptr<BenchClient>> clients;

  std::uint64_t warmup_ops = 0;
  std::uint64_t measured_ops = 0;
  double read_fraction = 0.0;
  std::size_t value_bytes = 0;
  KeyDist key_dist = KeyDist::kFixed;
  std::uint64_t n_objects = 1;
  const ZipfGenerator* zipf = nullptr;  // set iff key_dist == kZipfian

  std::uint64_t clients_measuring = 0;  // still inside their window
  std::uint64_t failures = 0;
  sim::Time window_start = 0;
  sim::Time window_end = 0;

  bool all_done() const { return clients_measuring == 0; }

  quorum::ObjectId pick_object(BenchClient& c) {
    switch (key_dist) {
      case KeyDist::kUniform:
        return 1 + c.rng.next_below(n_objects);
      case KeyDist::kZipfian:
        // Rank 0 is the hottest key; ShardMap's mix64 spreads the hot
        // ranks across groups, so skew stresses balance, not one shard.
        return 1 + zipf->next(c.rng);
      case KeyDist::kFixed:
        break;
    }
    return c.fixed_object;
  }

  void start(BenchClient& c) {
    if (all_done()) return;  // cooldown over: stop issuing
    const bool in_warmup = c.done_ops < warmup_ops;
    const bool in_window = !in_warmup && !c.finished_measuring;
    if (in_window && c.measured == 0 && window_start == 0) {
      window_start = loop.now();
    }
    // The very first op must be a write (reads need a written object).
    const bool do_read = c.done_ops > 0 &&
                         read_fraction > 0.0 &&
                         c.rng.next_below(1000) <
                             static_cast<std::uint64_t>(read_fraction * 1000);
    const quorum::ObjectId object = pick_object(c);
    const sim::Time t0 = loop.now();
    auto finish = [this, &c, in_window, do_read, t0](bool ok) {
      const double ms =
          static_cast<double>(loop.now() - t0) / sim::kMillisecond;
      ++c.done_ops;
      if (!ok) ++failures;
      if (in_window) {
        report.summary(do_read ? "client.read.total_ms"
                               : "client.write.total_ms")
            .add(ms);
        if (++c.measured >= measured_ops) {
          c.finished_measuring = true;
          if (--clients_measuring == 0) {
            window_end = loop.now();
            loop.stop();
            return;
          }
        }
      }
      start(c);
    };
    if (do_read) {
      c.router->read(object, [finish](Result<core::Client::ReadResult> r) {
        finish(r.is_ok());
      });
    } else {
      Bytes value(value_bytes, 0);
      for (auto& b : value) b = static_cast<std::uint8_t>(c.rng.next_u64());
      c.router->write(object, std::move(value),
                      [finish](Result<core::Client::WriteResult> r) {
                        finish(r.is_ok());
                      });
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  metrics::BenchArgs bench_args = metrics::parse_bench_args(argc, argv);

  FlagSet flags;
  auto& config_path =
      flags.add_string("config", "", "path to the cluster JSON file");
  auto& n_clients =
      flags.add_int("clients", 4, "number of closed-loop clients");
  auto& ops = flags.add_int("ops", 200, "measured operations per client");
  auto& warmup = flags.add_int("warmup", 20, "uncounted warmup ops per client");
  auto& value_bytes = flags.add_int("value-bytes", 256, "write payload size");
  auto& objects =
      flags.add_int("objects", 0, "distinct objects (0 = one per client)");
  auto& read_fraction =
      flags.add_double("read-fraction", 0.0, "fraction of ops that are reads");
  auto& key_dist_flag = flags.add_string(
      "key-dist", "fixed",
      "key popularity: fixed (per-client object), uniform, zipfian");
  auto& theta =
      flags.add_double("theta", 0.99, "zipfian skew (0 <= theta < 1)");
  auto& seed = flags.add_u64("seed", 7, "workload rng seed");
  auto& deadline_ms =
      flags.add_int("deadline-ms", 5000, "per-op deadline (0 = none)");
  flags.parse(bench_args.argc, bench_args.argv);

  if ((*config_path).empty()) {
    std::fprintf(stderr, "bftbc_bench: --config is required\n%s",
                 flags.usage("bftbc_bench").c_str());
    return 2;
  }
  KeyDist key_dist = KeyDist::kFixed;
  if (*key_dist_flag == "uniform") {
    key_dist = KeyDist::kUniform;
  } else if (*key_dist_flag == "zipfian") {
    key_dist = KeyDist::kZipfian;
  } else if (*key_dist_flag != "fixed") {
    std::fprintf(stderr, "bftbc_bench: unknown --key-dist '%s'\n",
                 (*key_dist_flag).c_str());
    return 2;
  }
  if (*theta < 0.0 || *theta >= 1.0) {
    std::fprintf(stderr, "bftbc_bench: --theta must be in [0, 1)\n");
    return 2;
  }
  auto loaded = net::ClusterConfig::load(*config_path);
  if (!loaded.is_ok()) {
    std::fprintf(stderr, "bftbc_bench: %s\n",
                 loaded.status().message().c_str());
    return 2;
  }
  const net::ClusterConfig& cluster = loaded.value();
  const std::uint32_t shards = cluster.shard_count();
  const shard::ShardMap shard_map(shards);

  metrics::BenchReport report("bftbc_bench", bench_args);
  // Smoke mode (the CI loopback job): tiny budget, same code path.
  const auto clients_n = static_cast<std::uint32_t>(
      report.smoke() ? 2 : *n_clients);
  const std::uint64_t measured_ops = report.smoke() ? 20 : *ops;
  const std::uint64_t warmup_ops = report.smoke() ? 5 : *warmup;
  if (clients_n == 0 || measured_ops == 0 ||
      clients_n > cluster.max_clients) {
    std::fprintf(stderr,
                 "bftbc_bench: need 1 <= clients <= max_clients (%u) "
                 "and ops >= 1\n",
                 cluster.max_clients);
    return 2;
  }

  // One keystore per shard: certificate signatures are group-local, so a
  // client leg must hold the SAME key material as its group's daemons
  // (bftbcd --shard derives the same per-shard seed).
  std::vector<std::unique_ptr<crypto::Keystore>> keystores;
  std::vector<std::map<sim::NodeId, net::UdpEndpoint>> peers;
  for (std::uint32_t s = 0; s < shards; ++s) {
    keystores.push_back(std::make_unique<crypto::Keystore>(
        cluster.signature_scheme(), cluster.shard_seed(s), cluster.rsa_bits));
    net::register_cluster_principals(cluster, *keystores.back());
    auto group = net::replica_endpoints(cluster, s);
    if (!group.is_ok()) {
      std::fprintf(stderr, "bftbc_bench: %s\n",
                   group.status().message().c_str());
      return 2;
    }
    peers.push_back(std::move(group.value()));
  }
  std::vector<sim::NodeId> replica_nodes;  // in-group ids, same every shard
  for (const auto& [node, ep] : peers.front()) replica_nodes.push_back(node);

  net::EventLoop loop;
  Driver driver{loop, report, {}, warmup_ops, measured_ops,
                *read_fraction, static_cast<std::size_t>(*value_bytes),
                key_dist};

  Rng rng(*seed);
  const auto n_objects =
      static_cast<std::uint64_t>(*objects > 0 ? *objects : clients_n);
  driver.n_objects = n_objects;
  std::unique_ptr<ZipfGenerator> zipf;
  if (key_dist == KeyDist::kZipfian) {
    zipf = std::make_unique<ZipfGenerator>(n_objects, *theta);
    driver.zipf = zipf.get();
  }
  auto bind_any = net::UdpEndpoint::parse("0.0.0.0", 0);
  for (std::uint32_t i = 0; i < clients_n; ++i) {
    auto c = std::make_unique<BenchClient>();
    std::vector<core::Client*> leg_ptrs;
    for (std::uint32_t s = 0; s < shards; ++s) {
      auto transport = std::make_unique<net::UdpTransport>(
          loop, net::client_node(i), *bind_any, peers[s]);
      if (!transport->valid()) {
        std::fprintf(stderr, "bftbc_bench: cannot bind client socket\n");
        return 1;
      }
      core::ClientOptions copts;
      copts.optimized = cluster.optimized();
      copts.strong = cluster.strong();
      copts.mac_auth = cluster.mac_auth();
      copts.op_deadline =
          static_cast<sim::Time>(*deadline_ms) * sim::kMillisecond;
      auto client_rng = Rng(rng.next_u64());
      c->legs.push_back(std::make_unique<core::Client>(
          cluster.quorum(), i, *keystores[s], *transport, loop,
          replica_nodes, client_rng, copts));
      c->transports.push_back(std::move(transport));
      leg_ptrs.push_back(c->legs.back().get());
    }
    c->router = std::make_unique<shard::RoutingClient>(
        shard_map, std::move(leg_ptrs), loop);
    c->fixed_object = 1 + (i % n_objects);
    c->rng = Rng(rng.next_u64());
    driver.clients.push_back(std::move(c));
  }
  driver.clients_measuring = clients_n;

  std::printf("bftbc_bench: %u clients x %llu ops (+%llu warmup) against %s "
              "cluster (f=%u, %s, %u shard%s, %s keys)\n",
              clients_n, static_cast<unsigned long long>(measured_ops),
              static_cast<unsigned long long>(warmup_ops),
              cluster.mode.c_str(), cluster.f, cluster.scheme.c_str(),
              shards, shards == 1 ? "" : "s", (*key_dist_flag).c_str());

  for (auto& c : driver.clients) driver.start(*c);
  loop.run();  // stopped by the last measured completion

  const double window_s = driver.window_end > driver.window_start
                              ? static_cast<double>(driver.window_end -
                                                    driver.window_start) /
                                    sim::kSecond
                              : 0.0;
  const double total_measured =
      static_cast<double>(measured_ops) * clients_n;
  const double throughput = window_s > 0 ? total_measured / window_s : 0.0;

  report.set_config("clients", static_cast<std::int64_t>(clients_n));
  report.set_config("ops", static_cast<std::int64_t>(measured_ops));
  report.set_config("warmup", static_cast<std::int64_t>(warmup_ops));
  report.set_config("value_bytes", *value_bytes);
  report.set_config("read_fraction", *read_fraction);
  report.set_config("key_dist", *key_dist_flag);
  if (key_dist == KeyDist::kZipfian) report.set_config("theta", *theta);
  report.set_config("objects", static_cast<std::int64_t>(n_objects));
  report.set_config("mode", cluster.mode);
  report.set_config("auth", cluster.auth);
  report.set_config("scheme", cluster.scheme);
  report.set_config("f", static_cast<std::int64_t>(cluster.f));
  report.set_config("shards", static_cast<std::int64_t>(shards));
  report.set_config("transport", std::string("udp"));
  report.registry().gauge("throughput_ops_per_sec").set(throughput);
  report.registry().gauge("measured_window_s").set(window_s);
  report.counter("op_failures").value = driver.failures;

  // Counter folds mirror the simulated benches so --compare ratio
  // tracking works across sim and live artifacts: per-client routed-op
  // counters under "client/<i>" (the writes/reads names the gate
  // parses), per-leg protocol counters under "shard/<s>/client/<i>", one
  // merged transport fold under "net/", and the keystores' signature
  // counters merged unscoped (identical to the single-keystore fold on a
  // one-shard config). The three sig-cache counters are resolved
  // unconditionally — the schema requires their presence even when a run
  // never exercised the cache.
  (void)report.counter("sig_cache_hit");
  (void)report.counter("sig_cache_miss");
  (void)report.counter("sig_verify_calls");
  Counters net_total;
  for (std::uint32_t i = 0; i < clients_n; ++i) {
    const auto& c = *driver.clients[i];
    report.registry().fold_counters("client/" + std::to_string(i),
                                    c.router->metrics());
    for (std::uint32_t s = 0; s < shards; ++s) {
      report.registry().fold_counters(
          "shard/" + std::to_string(s) + "/client/" + std::to_string(i),
          c.legs[s]->metrics());
      for (const auto& [name, value] : c.transports[s]->counters().all()) {
        net_total.inc(name, value);
      }
    }
  }
  report.registry().fold_counters("net", net_total);
  Counters keystore_total;
  for (const auto& ks : keystores) {
    for (const auto& [name, value] : ks->counters().all()) {
      keystore_total.inc(name, value);
    }
  }
  report.registry().fold_counters("", keystore_total);

  const auto write_snap = report.summary("client.write.total_ms").snapshot();
  std::printf("bftbc_bench: %.0f ops in %.3fs = %.1f ops/s; write p50=%.3fms "
              "p99=%.3fms; %llu failures\n",
              total_measured, window_s, throughput, write_snap.p50,
              write_snap.p99,
              static_cast<unsigned long long>(driver.failures));
  if (driver.failures > 0 &&
      driver.failures * 10 > measured_ops * clients_n) {
    std::fprintf(stderr, "bftbc_bench: >10%% of operations failed\n");
    (void)report.finish();
    return 1;
  }
  return report.finish();
}
