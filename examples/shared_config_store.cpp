// Example: a replicated configuration store for a fleet of services.
//
// The motivating deployment for a Byzantine-client-tolerant register:
// many semi-trusted services share configuration objects; a compromised
// service must not be able to corrupt what the others read, wedge their
// updates, or leave time bombs behind after it is de-provisioned.
//
// This example runs several services updating config keys (one BFT-BC
// object per key), lets one "compromised" service attempt the §3.2
// attacks, then de-provisions it (the stop event) and shows the fleet
// continues with at most one stale surprise.
#include <cstdio>
#include <string>

#include "faults/byzantine_client.h"
#include "harness/cluster.h"
#include "harness/recording.h"
#include "checker/bft_linearizability.h"

using namespace bftbc;

namespace {

constexpr quorum::ObjectId kFrontendFlags = 1;
constexpr quorum::ObjectId kBackendLimits = 2;
constexpr quorum::ObjectId kRolloutPercent = 3;

void print_config(harness::Cluster& cluster, shard::RoutingClient& reader) {
  for (auto [name, object] :
       {std::pair{"frontend-flags", kFrontendFlags},
        std::pair{"backend-limits", kBackendLimits},
        std::pair{"rollout-percent", kRolloutPercent}}) {
    auto r = cluster.read(reader, object);
    std::printf("  %-16s = %-24s (ts %s)\n", name,
                r.is_ok() ? to_string(r.value().value).c_str() : "<error>",
                r.is_ok() ? r.value().ts.to_string().c_str() : "-");
  }
}

}  // namespace

int main() {
  harness::ClusterOptions options;
  options.f = 1;
  options.seed = 7;
  options.optimized = true;  // config updates are latency-sensitive
  harness::Cluster cluster(options);
  checker::History history;
  harness::Recorder rec(cluster, history);

  auto& deployer = cluster.add_client(1);
  auto& autoscaler = cluster.add_client(2);
  auto& dashboard = cluster.add_client(3);

  std::printf("== initial rollout ==\n");
  (void)rec.write(deployer, kFrontendFlags, to_bytes("dark-mode=off"));
  (void)rec.write(deployer, kBackendLimits, to_bytes("max-conn=100"));
  (void)rec.write(deployer, kRolloutPercent, to_bytes("5"));
  print_config(cluster, dashboard);

  std::printf("\n== concurrent updates from two services ==\n");
  (void)rec.write(autoscaler, kBackendLimits, to_bytes("max-conn=250"));
  (void)rec.write(deployer, kRolloutPercent, to_bytes("25"));
  print_config(cluster, dashboard);

  std::printf("\n== service 66 is compromised: attempts equivocation ==\n");
  auto transport = cluster.make_transport(harness::client_node(66));
  faults::EquivocatorClient attacker(cluster.config(), 66, cluster.keystore(),
                                     *transport, cluster.sim(),
                                     cluster.replica_nodes(),
                                     cluster.rng().split());
  std::optional<faults::EquivocatorClient::Outcome> outcome;
  attacker.attack(kRolloutPercent, to_bytes("100"), to_bytes("0"),
                  [&](faults::EquivocatorClient::Outcome o) { outcome = o; });
  cluster.run_until([&] { return outcome.has_value(); });
  std::printf("  attacker certificates: v1=%s v2=%s (needs both to split)\n",
              outcome->cert_v1 ? "YES" : "no", outcome->cert_v2 ? "YES" : "no");
  print_config(cluster, dashboard);

  std::printf("\n== compromised service de-provisioned (stop event) ==\n");
  rec.stop_client(66);
  (void)rec.write(deployer, kRolloutPercent, to_bytes("50"));
  (void)rec.read(dashboard, kRolloutPercent);
  print_config(cluster, dashboard);

  auto check = checker::check_bft_linearizability(history, {66});
  std::printf("\n== audit ==\n  %s\n  lurking writes by service 66: %d "
              "(protocol bound: 2 for the optimized variant)\n",
              check.summary().c_str(),
              check.lurking.count(66) ? check.lurking.at(66).count : 0);
  return check.ok(2) ? 0 : 1;
}
