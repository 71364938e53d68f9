// bftbcd — a BFT-BC replica as a standalone UDP daemon.
//
// The deployable half of the tentpole: the *same* core::Replica state
// machine the simulator drives in every test, wired to a net::EventLoop
// and net::UdpTransport instead. One process per replica:
//
//   bftbcd --config bench/cluster_localhost.json --replica 0
//
// All processes share the cluster config file, which pins the quorum
// parameters, the protocol mode, and the deterministic key seed — so the
// daemons and any bftbc_bench clients derive matching keys without a key
// exchange (see net/cluster_config.h).
//
// Shutdown: SIGINT/SIGTERM stop the loop; the replica prints its counter
// map on exit (reply/drop accounting) for post-run inspection.
#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>

#include "bftbc/replica.h"
#include "net/cluster_config.h"
#include "net/event_loop.h"
#include "net/udp_transport.h"
#include "util/flags.h"

namespace {

// The write end of a self-pipe whose read end the event loop watches.
// The signal handler only writes one byte (write() is async-signal-safe).
// A signal that lands before the loop's next epoll_wait leaves the byte
// buffered, so that wait returns at once: no signal goes unnoticed, and
// an idle daemon wakes for nothing else.
int g_stop_pipe = -1;

void handle_signal(int) {
  const int saved = errno;
  const char byte = 1;
  (void)!::write(g_stop_pipe, &byte, 1);
  errno = saved;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bftbc;

  FlagSet flags;
  auto& config_path =
      flags.add_string("config", "", "path to the cluster JSON file");
  auto& replica_id =
      flags.add_int("replica", -1, "this replica's index (0..3f)");
  auto& shard_id = flags.add_int(
      "shard", 0, "this replica's shard group (multi-shard configs)");
  flags.parse(argc, argv);

  if ((*config_path).empty() || *replica_id < 0) {
    std::fprintf(stderr, "bftbcd: --config and --replica are required\n%s",
                 flags.usage("bftbcd").c_str());
    return 2;
  }

  auto loaded = net::ClusterConfig::load(*config_path);
  if (!loaded.is_ok()) {
    std::fprintf(stderr, "bftbcd: %s\n", loaded.status().message().c_str());
    return 2;
  }
  const net::ClusterConfig& cluster = loaded.value();
  const auto r = static_cast<quorum::ReplicaId>(*replica_id);
  const quorum::QuorumConfig quorum = cluster.quorum();
  if (!quorum.valid_replica(r)) {
    std::fprintf(stderr, "bftbcd: --replica %d out of range (n=%u)\n",
                 static_cast<int>(*replica_id), quorum.n);
    return 2;
  }
  const auto shard = static_cast<std::uint32_t>(*shard_id);
  if (*shard_id < 0 || shard >= cluster.shard_count()) {
    std::fprintf(stderr, "bftbcd: --shard %d out of range (%u shards)\n",
                 static_cast<int>(*shard_id), cluster.shard_count());
    return 2;
  }

  // The keystore seed is shard-local: this group's certificates can
  // never validate in another group (and vice versa).
  crypto::Keystore keystore(cluster.signature_scheme(),
                            cluster.shard_seed(shard), cluster.rsa_bits);
  net::register_cluster_principals(cluster, keystore);

  net::EventLoop loop;
  auto peers = net::replica_endpoints(cluster, shard);
  if (!peers.is_ok()) {
    std::fprintf(stderr, "bftbcd: %s\n", peers.status().message().c_str());
    return 2;
  }
  const net::UdpEndpoint bind_to = peers.value().at(r);
  net::UdpTransport transport(loop, r, bind_to, peers.value());
  if (!transport.valid()) {
    std::fprintf(stderr, "bftbcd: cannot bind UDP %s\n",
                 bind_to.to_string().c_str());
    return 1;
  }

  core::ReplicaOptions ropts;
  ropts.optimized = cluster.optimized();
  ropts.strong = cluster.strong();
  ropts.mac_auth = cluster.mac_auth();
  core::Replica replica(quorum, r, keystore, transport, loop, ropts);

  int stop_pipe[2];
  if (::pipe2(stop_pipe, O_NONBLOCK | O_CLOEXEC) != 0) {
    std::fprintf(stderr, "bftbcd: pipe2: %s\n", std::strerror(errno));
    return 1;
  }
  g_stop_pipe = stop_pipe[1];
  loop.watch_fd(stop_pipe[0], [&loop] { loop.stop(); });
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  std::printf("bftbcd: shard %u replica %u (%s mode, %s auth, %s) "
              "listening on %s\n",
              shard, r, cluster.mode.c_str(), cluster.auth.c_str(),
              cluster.scheme.c_str(), bind_to.to_string().c_str());
  std::fflush(stdout);  // readiness marker for scripts tailing the log

  loop.run();

  std::printf("bftbcd: replica %u shutting down; counters:\n", r);
  for (const auto& [name, value] : replica.metrics().all()) {
    std::printf("  %-28s %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  }
  for (const auto& [name, value] : transport.counters().all()) {
    std::printf("  net/%-24s %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  }
  return 0;
}
