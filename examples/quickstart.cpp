// Quickstart: bring up a BFT-BC cluster (f=1 → 4 replicas), write a
// value, read it back.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "harness/cluster.h"

using namespace bftbc;

int main() {
  // A cluster tolerating f=1 Byzantine replica: 3f+1 = 4 replicas,
  // quorums of 2f+1 = 3. Runs on the deterministic network simulator.
  harness::ClusterOptions options;
  options.f = 1;
  options.seed = 2024;
  harness::Cluster cluster(options);

  // Clients are authorized principals; their ids embed into timestamps.
  auto& alice = cluster.add_client(1);
  auto& bob = cluster.add_client(2);

  // Write: three phases under the hood (READ-TS, PREPARE, WRITE), each a
  // quorum RPC with retransmission.
  constexpr quorum::ObjectId kObject = 42;
  auto write = cluster.write(alice, kObject, to_bytes("hello, byzantium"));
  if (!write.is_ok()) {
    std::printf("write failed: %s\n", write.status().to_string().c_str());
    return 1;
  }
  std::printf("alice wrote at timestamp %s in %d phases\n",
              write.value().ts.to_string().c_str(), write.value().phases);

  // Read: one phase when the quorum agrees; the value arrives with a
  // prepare certificate proving a quorum vouched for it.
  auto read = cluster.read(bob, kObject);
  if (!read.is_ok()) {
    std::printf("read failed: %s\n", read.status().to_string().c_str());
    return 1;
  }
  std::printf("bob read \"%s\" at timestamp %s in %d phase(s)\n",
              to_string(read.value().value).c_str(),
              read.value().ts.to_string().c_str(), read.value().phases);

  // The same API works with a crashed replica — any 2f+1 suffice.
  cluster.crash_replica(0);
  auto write2 = cluster.write(alice, kObject, to_bytes("still available"));
  std::printf("with a crashed replica: write %s (ts %s)\n",
              write2.is_ok() ? "succeeded" : "failed",
              write2.is_ok() ? write2.value().ts.to_string().c_str() : "-");

  return 0;
}
