// E11 — Timestamp-space exhaustion (paper §3.2 attack 3).
//
// "Choose a very large timestamp and exhaust the timestamp space."
//
// BFT-BC claim: impossible — a prepare is accepted only for
// t = succ(cert.ts, c), so the timestamp grows by exactly one per
// completed write regardless of attacker effort. The BQS baseline, by
// contrast, accepts any signed higher timestamp.
//
// Measures: final timestamp value after N good writes, with an attacker
// hammering huge timestamps, for BFT-BC vs BQS.
#include "faults/byzantine_client.h"
#include "harness/baseline_cluster.h"
#include "harness/cluster.h"
#include "harness/table.h"
#include "metrics/bench_report.h"

using namespace bftbc;
using harness::BaselineOptions;
using harness::BqsCluster;
using harness::Cluster;
using harness::ClusterOptions;
using harness::Table;

int main(int argc, char** argv) {
  metrics::BenchArgs args = metrics::parse_bench_args(argc, argv);
  metrics::BenchReport report("bench_ts_exhaustion", args);

  harness::print_experiment_header(
      "E11: timestamp-space exhaustion attack",
      "BFT-BC replicas only admit t = succ(cert.ts, c): timestamps grow by "
      "1 per completed write, so bad clients cannot exhaust the space "
      "(3.2); classic BQS accepts arbitrary jumps");

  const int kGoodWrites = report.smoke() ? 4 : 10;
  report.set_config("good_writes", static_cast<std::int64_t>(kGoodWrites));
  Table table({"protocol", "attack", "good writes", "final ts.val",
               "expected", "attack accepted by replicas"});

  // --- BFT-BC under attack.
  {
    Cluster cluster([] { ClusterOptions o; o.seed = 61; return o; }());
    auto& good = cluster.add_client(1);
    (void)cluster.write(good, 1, to_bytes("v0"));

    auto t = cluster.make_transport(harness::client_node(66));
    faults::TimestampHog hog(cluster.config(), 66, cluster.keystore(), *t,
                             cluster.sim(), cluster.replica_nodes(),
                             cluster.rng().split());
    std::optional<faults::TimestampHog::Outcome> out;
    hog.attack(1, /*jump=*/1'000'000'000, /*attempts=*/10,
               [&](faults::TimestampHog::Outcome o) { out = o; });
    cluster.run_until([&] { return out.has_value(); });

    for (int i = 1; i < kGoodWrites; ++i)
      (void)cluster.write(good, 1, to_bytes("v" + std::to_string(i)));
    auto r = cluster.read(good, 1);

    report.registry().gauge("bftbc/final_ts_attacked")
        .set(static_cast<double>(r.is_ok() ? r.value().ts.val : 0));
    report.counter("bftbc/attack_prepares_accepted")
        .set(static_cast<std::uint64_t>(out->accepted));
    report.merge(cluster.snapshot_metrics());
    table.add_row({"BFT-BC", "10x jump of 1e9", std::to_string(kGoodWrites),
                   std::to_string(r.is_ok() ? r.value().ts.val : 0),
                   std::to_string(kGoodWrites) + " (exactly 1/write)",
                   std::to_string(out->accepted) + " prepare replies"});
  }

  // --- BFT-BC without attack (control).
  {
    Cluster cluster([] { ClusterOptions o; o.seed = 62; return o; }());
    auto& good = cluster.add_client(1);
    for (int i = 0; i < kGoodWrites; ++i)
      (void)cluster.write(good, 1, to_bytes("v" + std::to_string(i)));
    auto r = cluster.read(good, 1);
    report.registry().gauge("bftbc/final_ts_control")
        .set(static_cast<double>(r.is_ok() ? r.value().ts.val : 0));
    report.merge(cluster.snapshot_metrics());
    table.add_row({"BFT-BC", "none (control)", std::to_string(kGoodWrites),
                   std::to_string(r.is_ok() ? r.value().ts.val : 0),
                   std::to_string(kGoodWrites), "-"});
  }

  // --- BQS baseline: the same attack succeeds.
  {
    BaselineOptions options;
    options.seed = 63;
    BqsCluster cluster(options);
    auto& good = cluster.add_client(1);
    (void)cluster.write(good, 1, to_bytes("v0"));

    // Authorized-but-Byzantine client injects ts.val = 1e9 directly.
    auto transport = cluster.make_transport(harness::client_node(66));
    auto signer =
        cluster.keystore().register_principal(quorum::client_principal(66));
    const quorum::Timestamp huge{1'000'000'000, 66};
    const Bytes value = to_bytes("jump");
    Writer w;
    w.put_u64(1);
    w.put_bytes(value);
    wire::put(w, huge);
    w.put_u32(66);
    auto sig = signer.sign(
        baselines::bqs_value_statement(1, huge, crypto::sha256(value)));
    w.put_bytes(sig.value());
    rpc::Envelope env;
    env.type = rpc::MsgType::kBqsWrite;
    env.rpc_id = 9;
    env.sender = quorum::client_principal(66);
    env.body = std::move(w).take();
    for (sim::NodeId n : cluster.replica_nodes()) transport->send(n, env);
    cluster.sim().run();

    for (int i = 1; i < kGoodWrites; ++i)
      (void)cluster.write(good, 1, to_bytes("v" + std::to_string(i)));
    auto r = cluster.read(good, 1);
    report.registry().gauge("bqs/final_ts_attacked")
        .set(static_cast<double>(r.is_ok() ? r.value().ts.val : 0));
    table.add_row({"BQS classic", "single jump of 1e9",
                   std::to_string(kGoodWrites),
                   std::to_string(r.is_ok() ? r.value().ts.val : 0),
                   "> 1e9 (space consumed)", "accepted"});
  }

  table.print();

  std::cout << "\nBFT-BC's final timestamp equals the number of completed "
               "writes no matter the attack; BQS's timestamp space is blown "
               "past 1e9 by one message.\n";
  return report.finish();
}
