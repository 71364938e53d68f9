// E4 — Message and byte complexity (paper §3.3.1).
//
// "The number of messages exchanged by an operation in BFT-BC is O(|Q|)
//  ... The total message size for each operation is O(|Q|^2), because
//  some of the messages contain certificates whose size is O(|Q|)."
//
// Sweeps f = 1..5 (|Q| = 2f+1) and reports measured messages/op and
// bytes/op for writes and reads, plus the growth ratio against |Q| and
// |Q|^2 so the asymptotic shape is visible in the output.
#include "harness/cluster.h"
#include "harness/table.h"
#include "metrics/bench_report.h"

using namespace bftbc;
using harness::Cluster;
using harness::ClusterOptions;
using harness::Table;

namespace {

struct Cost {
  double msgs_per_op;
  double bytes_per_op;
};

Cost measure(std::uint32_t f, bool writes, bool optimized, int ops,
             metrics::BenchReport& report) {
  ClusterOptions o;
  o.f = f;
  o.seed = 33 + f;
  o.optimized = optimized;
  Cluster cluster(o);
  auto& client = cluster.add_client(1);
  // Warm up: one write so reads have data and the client holds a write
  // certificate (steady-state prepares carry one).
  (void)cluster.write(client, 1, to_bytes("warmup"));
  cluster.settle();

  const Counters& c = cluster.net().counters();
  const std::uint64_t msgs_before = c.get("msgs_sent");
  const std::uint64_t bytes_before = c.get("bytes_sent");
  for (int i = 0; i < ops; ++i) {
    if (writes) {
      (void)cluster.write(client, 1, to_bytes("v" + std::to_string(i)));
    } else {
      (void)cluster.read(client, 1);
    }
  }
  cluster.settle();
  report.merge(cluster.snapshot_metrics());
  return Cost{static_cast<double>(c.get("msgs_sent") - msgs_before) / ops,
              static_cast<double>(c.get("bytes_sent") - bytes_before) / ops};
}

}  // namespace

int main(int argc, char** argv) {
  metrics::BenchArgs args = metrics::parse_bench_args(argc, argv);
  metrics::BenchReport report("bench_msg_complexity", args);
  const int ops = report.smoke() ? 5 : 20;
  const std::uint32_t max_f = report.smoke() ? 2 : 5;
  report.set_config("ops_per_point", static_cast<std::int64_t>(ops));
  report.set_config("max_f", static_cast<std::int64_t>(max_f));

  harness::print_experiment_header(
      "E4: message complexity",
      "messages per op = O(|Q|) (three RPCs to a quorum); bytes per op = "
      "O(|Q|^2) (certificates of size O(|Q|) inside messages) (3.3.1)");

  for (bool optimized : {false, true}) {
    std::cout << (optimized ? "--- optimized protocol ---\n"
                            : "--- base protocol ---\n");
    Table table({"f", "|Q|", "write msgs/op", "write msgs ratio vs |Q|",
                 "write bytes/op", "write bytes ratio vs |Q|^2",
                 "read msgs/op", "read bytes/op"});
    double base_q = 0, base_wm = 0, base_wb = 0;
    for (std::uint32_t f = 1; f <= max_f; ++f) {
      const double q = 2.0 * f + 1;
      Cost w = measure(f, /*writes=*/true, optimized, ops, report);
      Cost r = measure(f, /*writes=*/false, optimized, ops, report);
      const std::string key = std::string(optimized ? "opt" : "base") +
                              "/f" + std::to_string(f);
      report.registry().gauge(key + "/write_msgs_per_op").set(w.msgs_per_op);
      report.registry().gauge(key + "/write_bytes_per_op").set(w.bytes_per_op);
      report.registry().gauge(key + "/read_msgs_per_op").set(r.msgs_per_op);
      report.registry().gauge(key + "/read_bytes_per_op").set(r.bytes_per_op);
      if (f == 1) {
        base_q = q;
        base_wm = w.msgs_per_op;
        base_wb = w.bytes_per_op;
      }
      // If msgs ~ c*|Q|, then (msgs/base_msgs)/(q/base_q) ~ 1.
      const double msg_ratio = (w.msgs_per_op / base_wm) / (q / base_q);
      const double byte_ratio =
          (w.bytes_per_op / base_wb) / ((q * q) / (base_q * base_q));
      table.add_row({std::to_string(f), Table::num(q, 0),
                     Table::num(w.msgs_per_op), Table::num(msg_ratio),
                     Table::num(w.bytes_per_op), Table::num(byte_ratio),
                     Table::num(r.msgs_per_op), Table::num(r.bytes_per_op)});
    }
    table.print();
    std::cout << "\n";
  }
  std::cout << "ratio columns ~= 1.00 across f confirm the claimed O(|Q|) "
               "message and O(|Q|^2) byte growth (constant factors differ "
               "between modes).\n";
  return report.finish();
}
