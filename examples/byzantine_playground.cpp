// Example: the Byzantine playground — run every §3.2 attack against a
// live cluster and watch the protocol confine each one.
//
// A guided tour of the threat model for people evaluating the library:
// each section prints what the attacker attempted, what it achieved, and
// what the good clients observed.
#include <cstdio>

#include "checker/bft_linearizability.h"
#include "faults/byzantine_client.h"
#include "faults/byzantine_replica.h"
#include "harness/cluster.h"
#include "harness/recording.h"

using namespace bftbc;

namespace {

void banner(const char* title) { std::printf("\n===== %s =====\n", title); }

}  // namespace

int main() {
  banner("attack 1: equivocation (two values, one timestamp)");
  {
    harness::Cluster cluster([] { harness::ClusterOptions o; o.seed = 1; return o; }());
    auto t = cluster.make_transport(harness::client_node(66));
    faults::EquivocatorClient attacker(cluster.config(), 66,
                                       cluster.keystore(), *t, cluster.sim(),
                                       cluster.replica_nodes(),
                                       cluster.rng().split());
    std::optional<faults::EquivocatorClient::Outcome> out;
    attacker.attack(1, to_bytes("launch-missiles"), to_bytes("stand-down"),
                    [&](faults::EquivocatorClient::Outcome o) { out = o; });
    cluster.run_until([&] { return out.has_value(); });
    std::printf("attacker sought certificates for two values at one ts\n");
    std::printf("  certificate for value 1: %s\n", out->cert_v1 ? "OBTAINED" : "refused");
    std::printf("  certificate for value 2: %s\n", out->cert_v2 ? "OBTAINED" : "refused");
    std::printf("  verdict: %s\n",
                (out->cert_v1 && out->cert_v2)
                    ? "PROTOCOL BROKEN"
                    : "confined (a correct replica signs one prepare per "
                      "client, Figure 2 step 3)");
  }

  banner("attack 2: partial write (install at one replica only)");
  {
    harness::Cluster cluster([] { harness::ClusterOptions o; o.seed = 2; return o; }());
    auto& good = cluster.add_client(1);
    (void)cluster.write(good, 1, to_bytes("baseline"));
    auto t = cluster.make_transport(harness::client_node(66));
    faults::PartialWriter attacker(cluster.config(), 66, cluster.keystore(),
                                   *t, cluster.sim(), cluster.replica_nodes(),
                                   cluster.rng().split());
    bool done = false, prepared = false;
    attacker.attack(1, to_bytes("skewed"), [&](bool p) {
      prepared = p;
      done = true;
    });
    cluster.run_until([&] { return done; });
    std::printf("attacker prepared honestly then wrote to 1/4 replicas: %s\n",
                prepared ? "done" : "failed");
    auto r1 = cluster.read(good, 1);
    auto r2 = cluster.read(good, 1);
    std::printf("  reader sees \"%s\" then \"%s\" — reads repair via "
                "write-back, atomicity holds\n",
                r1.is_ok() ? to_string(r1.value().value).c_str() : "?",
                r2.is_ok() ? to_string(r2.value().value).c_str() : "?");
  }

  banner("attack 3: timestamp exhaustion");
  {
    harness::Cluster cluster([] { harness::ClusterOptions o; o.seed = 3; return o; }());
    auto& good = cluster.add_client(1);
    (void)cluster.write(good, 1, to_bytes("v"));
    auto t = cluster.make_transport(harness::client_node(66));
    faults::TimestampHog hog(cluster.config(), 66, cluster.keystore(), *t,
                             cluster.sim(), cluster.replica_nodes(),
                             cluster.rng().split());
    std::optional<faults::TimestampHog::Outcome> out;
    hog.attack(1, 1'000'000'000, 8,
               [&](faults::TimestampHog::Outcome o) { out = o; });
    cluster.run_until([&] { return out.has_value(); });
    auto w = cluster.write(good, 1, to_bytes("after"));
    std::printf("attacker sent %llu huge-timestamp prepares; replicas "
                "accepted %llu\n",
                static_cast<unsigned long long>(out->attempts),
                static_cast<unsigned long long>(out->accepted));
    std::printf("  good client's next timestamp: %s (still +1 per write)\n",
                w.is_ok() ? w.value().ts.to_string().c_str() : "?");
  }

  banner("attack 4: lurking writes via a colluder");
  {
    harness::Cluster cluster([] { harness::ClusterOptions o; o.seed = 4; return o; }());
    checker::History history;
    harness::Recorder rec(cluster, history);
    auto& good = cluster.add_client(1);
    (void)rec.write(good, 1, to_bytes("pre"));

    auto t = cluster.make_transport(harness::client_node(66));
    faults::LurkingWriteStasher stasher(cluster.config(), 66,
                                        cluster.keystore(), *t, cluster.sim(),
                                        cluster.replica_nodes(),
                                        cluster.rng().split());
    std::optional<faults::LurkingWriteStasher::Outcome> out;
    stasher.attack(1, /*goal=*/5, /*use_optlist=*/false,
                   [&](faults::LurkingWriteStasher::Outcome o) {
                     out = std::move(o);
                   });
    cluster.run_until([&] { return out.has_value(); });
    std::printf("attacker wanted 5 lurking writes, stashed %zu "
                "(prepare attempts: %llu)\n",
                out->stashed.size(),
                static_cast<unsigned long long>(out->prepare_attempts));

    auto ct = cluster.make_transport(harness::client_node(67));
    faults::Colluder colluder(*ct, cluster.replica_nodes());
    for (auto& env : out->stashed) colluder.stash(std::move(env));
    rec.stop_client(66);
    std::printf("client 66 stopped (key revoked); colluder replays stash\n");
    colluder.unleash();
    cluster.settle();

    for (int i = 0; i < 3; ++i) {
      (void)rec.read(good, 1);
      (void)rec.write(good, 1, to_bytes("post" + std::to_string(i)));
    }
    auto check = checker::check_bft_linearizability(history, {66});
    std::printf("  history: %s\n", check.summary().c_str());
    std::printf("  verdict: %d lurking write(s) surfaced (bound: 1)\n",
                check.lurking.count(66) ? check.lurking.at(66).count : 0);
  }

  banner("bonus: f Byzantine replicas of mixed species");
  {
    harness::ClusterOptions o;
    o.f = 2;
    o.seed = 5;
    o.replica_factories[0] =
        harness::replica_factory<faults::GarbageSigReplica>();
    o.replica_factories[1] =
        harness::replica_factory<faults::FlipValueReplica>();
    harness::Cluster cluster(o);
    auto& good = cluster.add_client(1);
    bool ok = true;
    for (int i = 0; i < 5 && ok; ++i) {
      ok = cluster.write(good, 1, to_bytes("v" + std::to_string(i))).is_ok();
      auto r = cluster.read(good, 1);
      ok = ok && r.is_ok() &&
           to_string(r.value().value) == "v" + std::to_string(i);
    }
    std::printf("7 replicas, 2 Byzantine (garbage sigs + value flipping): "
                "5 write/read rounds %s\n",
                ok ? "all correct" : "FAILED");
  }

  std::printf("\nAll attacks confined. See tests/byzantine_test.cpp for the "
              "assertion-backed versions.\n");
  return 0;
}
