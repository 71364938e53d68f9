// E1 + E2 — Operation phase counts (paper §3.2 Figure 1, §6.2, §7.2).
//
// Paper claims:
//   base write      = 3 phases, always
//   optimized write = 2 phases uncontended, up to 3 under contention
//   strong write    = 3 phases uncontended, +2 when phase-1 disagrees
//   read            = 1 phase, 2 with write-back
//
// Prints, per protocol mode: a histogram of phases per write and per
// read, swept over write contention (number of concurrent writers).
#include <functional>

#include "harness/cluster.h"
#include "harness/table.h"
#include "metrics/bench_report.h"
#include "util/stats.h"

using namespace bftbc;
using harness::Cluster;
using harness::ClusterOptions;
using harness::Table;

namespace {

struct ModeSpec {
  const char* name;
  bool optimized;
  bool strong;
  const char* claim_write;
};

constexpr ModeSpec kModes[] = {
    {"base", false, false, "3"},
    {"optimized", true, false, "2 (contended: 2-3)"},
    {"strong", false, true, "3 (degraded: 5)"},
    {"strong+opt", true, true, "2-3 (degraded: +2)"},
};

struct PhaseStats {
  Histogram write_phases;
  Histogram read_phases;
};

// `writers` clients write `rounds` values each, concurrently (each client
// chains its next write as the previous completes); one reader reads
// between rounds.
PhaseStats run_workload(const ModeSpec& mode, int writers, int rounds,
                        std::uint64_t seed, metrics::BenchReport& report) {
  ClusterOptions o;
  o.optimized = mode.optimized;
  o.strong = mode.strong;
  o.seed = seed;
  Cluster cluster(o);

  PhaseStats stats;
  std::vector<shard::RoutingClient*> clients;
  for (int w = 0; w < writers; ++w) {
    clients.push_back(
        &cluster.add_client(static_cast<quorum::ClientId>(w + 1)));
  }
  auto& reader = cluster.add_client(1000);

  int done = 0;
  const int total = writers * rounds;
  std::function<void(int, int)> launch = [&](int w, int round) {
    if (round >= rounds) return;
    clients[static_cast<std::size_t>(w)]->write(
        1, to_bytes("w" + std::to_string(w) + "r" + std::to_string(round)),
        [&, w, round](Result<core::Client::WriteResult> r) {
          if (r.is_ok()) stats.write_phases.add(r.value().phases);
          ++done;
          launch(w, round + 1);
        });
  };
  for (int w = 0; w < writers; ++w) launch(w, 0);
  cluster.run_until([&] { return done == total; });

  // Reads: interleave with a fresh write stream to see write-back cases.
  for (int i = 0; i < 20; ++i) {
    auto r = cluster.read(reader, 1);
    if (r.is_ok()) stats.read_phases.add(r.value().phases);
  }
  report.merge(cluster.snapshot_metrics());
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  metrics::BenchArgs args = metrics::parse_bench_args(argc, argv);
  metrics::BenchReport report("bench_phases", args);
  const int rounds = report.smoke() ? 2 : 10;
  const std::vector<int> writer_sweep =
      report.smoke() ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};
  report.set_config("rounds", static_cast<std::int64_t>(rounds));
  report.set_config("max_writers", static_cast<std::int64_t>(
                                       writer_sweep.back()));

  harness::print_experiment_header(
      "E1/E2: write and read phase counts",
      "base writes take 3 phases; optimized writes take 2 (falling back to "
      "3 under contention); reads take 1 phase, 2 when a write-back is "
      "needed (Fig.1, 6.2)");

  Table table({"mode", "writers", "claimed write phases", "measured write phases",
               "mean", "read phases"});
  for (const ModeSpec& mode : kModes) {
    for (int writers : writer_sweep) {
      PhaseStats stats =
          run_workload(mode, writers, rounds, 42 + writers, report);
      report.add_histogram(std::string(mode.name) + ".write_phases",
                           stats.write_phases);
      report.add_histogram(std::string(mode.name) + ".read_phases",
                           stats.read_phases);
      table.add_row({mode.name, std::to_string(writers), mode.claim_write,
                     stats.write_phases.to_string(),
                     Table::num(stats.write_phases.mean()),
                     stats.read_phases.to_string()});
    }
  }
  table.print();

  std::cout << "\nNote: histogram entries are phases:count. Uncontended "
               "optimized writes hit the 2-phase fast path; contention and "
               "strong-mode phase-1 disagreement add fallback phases.\n";
  return report.finish();
}
