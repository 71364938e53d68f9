// E5 — Replica state size (paper §3.3.1).
//
// "The size of the prepare list is O(|C|), where |C| is the number of
//  allowed writers ... the list is small because when replicas receive
//  write certificates in phase 2, they remove old entries ... The size
//  of the prepare certificate is O(|Q|)."
//
// Measures per-replica state bytes and prepare-list occupancy as the
// number of writers grows, and certificate size as f grows. Also runs
// the DESIGN.md ablation: Plist occupancy with and without clients
// completing their writes (garbage collection working vs. suppressed).
#include <functional>

#include "faults/byzantine_client.h"
#include "harness/cluster.h"
#include "harness/table.h"
#include "metrics/bench_report.h"

using namespace bftbc;
using harness::Cluster;
using harness::ClusterOptions;
using harness::Table;

int main(int argc, char** argv) {
  metrics::BenchArgs args = metrics::parse_bench_args(argc, argv);
  metrics::BenchReport report("bench_state", args);
  const std::vector<int> writer_sweep =
      report.smoke() ? std::vector<int>{1, 4}
                     : std::vector<int>{1, 2, 4, 8, 16, 32};
  const std::uint32_t max_f = report.smoke() ? 2 : 5;
  report.set_config("max_writers",
                    static_cast<std::int64_t>(writer_sweep.back()));
  report.set_config("max_f", static_cast<std::int64_t>(max_f));

  harness::print_experiment_header(
      "E5: replica state size",
      "prepare list O(#writers) and kept small by write-certificate GC; "
      "prepare certificate size O(|Q|) (3.3.1)");

  // --- Plist occupancy vs CONCURRENT writers: all clients write at
  // once; occupancy is sampled every simulated millisecond while the
  // burst is in flight (the peak is what the O(|C|) bound caps), and
  // again after the burst settles (GC shrinks it back).
  {
    Table table({"concurrent writers", "peak plist entries",
                 "entries after settle", "state bytes/replica (peak)",
                 "claimed bound"});
    for (int writers : writer_sweep) {
      Cluster cluster([] { ClusterOptions o; o.seed = 5; return o; }());
      int done = 0;
      std::vector<shard::RoutingClient*> clients;
      for (int w = 1; w <= writers; ++w) {
        clients.push_back(
            &cluster.add_client(static_cast<quorum::ClientId>(w)));
      }
      for (int w = 0; w < writers; ++w) {
        clients[static_cast<std::size_t>(w)]->write(
            1, to_bytes("x" + std::to_string(w)),
            [&](Result<core::Client::WriteResult>) { ++done; });
      }
      std::size_t peak_plist = 0, peak_bytes = 0;
      std::function<void()> sample = [&] {
        for (quorum::ReplicaId r = 0; r < cluster.config().n; ++r) {
          const auto* st = cluster.replica(r).find_object(1);
          if (st == nullptr) continue;
          peak_plist = std::max(peak_plist, st->plist().size());
          peak_bytes = std::max(peak_bytes, st->state_bytes());
        }
        if (done < writers) {
          cluster.sim().schedule(sim::kMillisecond, sample);
        }
      };
      sample();
      cluster.run_until([&] { return done == writers; });
      cluster.settle();
      std::size_t after = 0;
      for (quorum::ReplicaId r = 0; r < cluster.config().n; ++r) {
        const auto* st = cluster.replica(r).find_object(1);
        if (st) after = std::max(after, st->plist().size());
      }
      const std::string key = "plist/w" + std::to_string(writers);
      report.registry().gauge(key + "/peak_entries")
          .set(static_cast<double>(peak_plist));
      report.registry().gauge(key + "/entries_after_settle")
          .set(static_cast<double>(after));
      report.registry().gauge(key + "/peak_state_bytes")
          .set(static_cast<double>(peak_bytes));
      report.merge(cluster.snapshot_metrics());
      table.add_row({std::to_string(writers), std::to_string(peak_plist),
                     std::to_string(after), std::to_string(peak_bytes),
                     "<= " + std::to_string(writers)});
    }
    table.print();
  }

  // --- Ablation: GC at work. Clients that complete writes leave at most
  // their latest entry; stashers that never complete phase 3 pin one
  // entry forever (the bounded damage).
  {
    std::cout << "\n--- ablation: write-certificate garbage collection ---\n";
    Table table({"scenario", "plist entries after workload", "note"});

    // (a) one client, many completed writes: entries keep getting GC'd.
    {
      Cluster cluster([] { ClusterOptions o; o.seed = 6; return o; }());
      auto& c = cluster.add_client(1);
      for (int i = 0; i < 10; ++i)
        (void)cluster.write(c, 1, to_bytes("v" + std::to_string(i)));
      cluster.settle();
      const auto* st = cluster.replica(0).find_object(1);
      table.add_row({"10 completed writes, 1 client",
                     std::to_string(st ? st->plist().size() : 0),
                     "last write's entry may linger until next GC"});
    }

    // (b) a stasher that never completes: exactly one pinned entry.
    {
      Cluster cluster([] { ClusterOptions o; o.seed = 7; return o; }());
      auto& good = cluster.add_client(1);
      (void)cluster.write(good, 1, to_bytes("base"));
      auto transport = cluster.make_transport(harness::client_node(66));
      faults::LurkingWriteStasher stasher(
          cluster.config(), 66, cluster.keystore(), *transport, cluster.sim(),
          cluster.replica_nodes(), cluster.rng().split());
      bool done = false;
      stasher.attack(1, 5, false,
                     [&](faults::LurkingWriteStasher::Outcome) { done = true; });
      cluster.run_until([&] { return done; });
      std::size_t pinned_before = 0;
      for (quorum::ReplicaId r = 0; r < cluster.config().n; ++r) {
        const auto* st = cluster.replica(r).find_object(1);
        if (st && st->plist().count(66)) ++pinned_before;
      }
      // Good writes eventually OVERTAKE the stashed timestamp; the write
      // certificates they carry then garbage-collect even the abandoned
      // entry — the same mechanism that masks lurking writes.
      for (int i = 0; i < 5; ++i)
        (void)cluster.write(good, 1, to_bytes("g" + std::to_string(i)));
      cluster.settle();
      std::size_t pinned_after = 0;
      for (quorum::ReplicaId r = 0; r < cluster.config().n; ++r) {
        const auto* st = cluster.replica(r).find_object(1);
        if (st && st->plist().count(66)) ++pinned_after;
      }
      table.add_row({"abandoned prepare (stasher)",
                     std::to_string(pinned_before) + " replicas -> " +
                         std::to_string(pinned_after) + " after 5 good writes",
                     "1 slot max, GC'd once overtaken"});
    }
    table.print();
  }

  // --- Ablation: §3.3.1's "propagate write certificates in read
  // requests" speed-up (ClientOptions::gc_in_reads). A client that
  // writes once and then only reads leaves its final plist entry pinned
  // at every replica — unless its reads carry the write certificate.
  {
    std::cout << "\n--- ablation: write-certificate propagation in reads ---\n";
    Table table({"gc_in_reads", "plist entries after write+reads",
                 "replicas still holding the entry"});
    for (bool gc : {false, true}) {
      Cluster cluster(ClusterOptions{});
      core::ClientOptions copts;
      copts.gc_in_reads = gc;
      auto& c = cluster.add_client(1, copts);
      (void)cluster.write(c, 1, to_bytes("once"));
      for (int i = 0; i < 3; ++i) (void)cluster.read(c, 1);
      cluster.settle();
      std::size_t holding = 0;
      for (quorum::ReplicaId r = 0; r < cluster.config().n; ++r) {
        const auto* st = cluster.replica(r).find_object(1);
        if (st && st->plist().count(1)) ++holding;
      }
      table.add_row({gc ? "on" : "off",
                     holding > 0 ? "1 (lingers)" : "0 (collected)",
                     std::to_string(holding) + "/" +
                         std::to_string(cluster.config().n)});
    }
    table.print();
  }

  // --- Certificate size vs f.
  {
    std::cout << "\n--- prepare certificate size vs f ---\n";
    Table table({"f", "|Q|", "cert bytes", "bytes per signature"});
    for (std::uint32_t f = 1; f <= max_f; ++f) {
      ClusterOptions o;
      o.f = f;
      o.seed = 40 + f;
      Cluster cluster(o);
      auto& c = cluster.add_client(1);
      (void)cluster.write(c, 1, to_bytes("value"));
      cluster.settle();
      const auto* st = cluster.replica(0).find_object(1);
      Writer w;
      st->pcert().encode(w);
      const double per_sig =
          static_cast<double>(w.size()) / st->pcert().signatures().size();
      report.registry().gauge("cert/f" + std::to_string(f) + "/bytes")
          .set(static_cast<double>(w.size()));
      table.add_row({std::to_string(f), std::to_string(2 * f + 1),
                     std::to_string(w.size()), Table::num(per_sig)});
    }
    table.print();
  }

  std::cout << "\nPlist stays <= #writers and certificates grow linearly in "
               "|Q| — the claimed O(|C|) and O(|Q|) state bounds.\n";
  return report.finish();
}
