// Scenario: one fully specified randomized run of the BFT-BC system.
//
// A Scenario is the unit the explorer samples, executes, shrinks, and
// serializes. It covers the cross product the repo already supports:
// f ∈ {1,2}, the three protocol modes, LinkConfig adversity knobs,
// correct-client workload mixes (including pipelined submit_write and
// mid-run stops), the four §3.2 attack clients (with replay-after-stop
// through a Colluder), Byzantine replica slots, replica partition
// windows and crash/restart plans, and the number of replica groups
// (shards).
//
// Scenarios are JSON-serializable both ways: to_json() via the metrics
// JsonWriter (the same emitter the bench pipeline uses), from_json() via
// util/json_value.h — so a failing run's minimal scenario can be
// replayed with `bftbc_explore --replay scenario.json`.
//
// Everything is derived deterministically from `seed`: the cluster rng,
// the per-client workload rngs, and the sampling itself. Two processes
// given the same scenario perform the identical event sequence.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "quorum/config.h"
#include "quorum/statements.h"
#include "quorum/timestamp.h"
#include "sim/network.h"

namespace bftbc::explore {

enum class Mode { kBase, kOptimized, kStrong };

enum class ByzSpecies {
  kSilent,
  kStale,
  kGarbageSig,
  kEquivocSign,
  kFlipValue,
};

enum class AttackKind {
  kEquivocate,    // §3.2 attack 1
  kPartialWrite,  // §3.2 attack 2
  kTimestampHog,  // §3.2 attack 3
  kLurkingStash,  // §3.2 attack 4 (optionally + Colluder replay-after-stop)
};

std::string_view mode_name(Mode m);
std::string_view species_name(ByzSpecies s);
std::string_view attack_name(AttackKind k);

struct ByzReplicaSlot {
  std::uint32_t slot = 0;
  ByzSpecies species = ByzSpecies::kSilent;
};

struct ClientPlan {
  quorum::ClientId id = 1;
  std::uint32_t ops = 4;
  double write_ratio = 0.5;  // ignored for pipelined clients (write-only)
  bool pipelined = false;    // issue all writes through submit_write
  std::uint32_t window = 2;  // max_inflight for pipelined clients
  // Stop (revoke key + record the paper's stop event) after this many
  // completed ops; 0 = never. Only meaningful for non-pipelined clients.
  std::uint32_t stop_after_ops = 0;
};

struct AttackPlan {
  AttackKind kind = AttackKind::kLurkingStash;
  quorum::ClientId id = 66;
  quorum::ObjectId object = 1;
  // Stash goal (kLurkingStash) or prepare attempts (kTimestampHog).
  std::uint32_t goal = 2;
  // kLurkingStash only: hand the stash to a colluder and replay it,
  // one envelope at a time with probe reads in between, after the stop.
  bool collude_replay = false;
  // Nonzero = this attack coordinates with every other attack carrying
  // the same group id: all members are lurking stashes against ONE
  // object, their stashes pool into a single colluder, and the replay
  // starts only after every member has stopped — the paper's worst
  // case, where the bound must hold PER stopped client even when the
  // writes were planned jointly. The sampler and mutators keep members'
  // kind and object aligned; the runner pools whichever members are
  // lurking stashes.
  std::uint32_t collusion_group = 0;
};

// Partition one replica from every client node for a virtual-time window.
struct PartitionPlan {
  std::uint32_t replica = 0;
  sim::Time at = 0;
  sim::Time heal_at = 0;
};

// Crash one replica slot with TRUE state loss at `at`, restart it at
// `restart_at` rebuilding its ObjectStates via STATE-XFER from the
// surviving quorum (harness restart_replica). In sharded runs the slot
// crashes in every group, mirroring how Byzantine slots apply. The
// checker's guarantees must hold straight through the downtime and the
// recovery — a restarted replica that forgot a lurking prepare would
// break Lemma 1, which is exactly what this dimension hunts.
struct CrashPlan {
  std::uint32_t replica = 0;
  sim::Time at = 0;
  sim::Time restart_at = 0;
};

struct Scenario {
  std::uint64_t seed = 1;
  std::uint32_t f = 1;
  Mode mode = Mode::kBase;
  // MAC-authenticator mode (§3.3.2) for point-to-point traffic; the
  // checker's guarantees must hold identically in both auth modes.
  bool mac_auth = false;
  // When false, run_scenario() installs more Byzantine replicas than f —
  // the deliberately-weakened configuration used to prove the explorer
  // detects and shrinks real violations. sample() always keeps it true.
  bool enforce_fault_budget = true;
  std::uint32_t objects = 1;
  // Number of independent replica groups in the harness::Cluster. Every
  // run goes through routing clients and takes its verdict per shard
  // (split_history + one checker instance per shard); 1 = the classic
  // single-group run. Byzantine slots apply to the same slot in every
  // shard; partitions cut the slot across all shards; attacks aim at the
  // shard owning their object.
  std::uint32_t shards = 1;

  // Link adversity (applied to the cluster-wide default link).
  double loss = 0.0;
  double dup = 0.0;
  double corrupt = 0.0;
  sim::Time base_delay = 500 * sim::kMicrosecond;
  sim::Time jitter_mean = 200 * sim::kMicrosecond;

  std::vector<ByzReplicaSlot> byz_replicas;
  std::vector<ClientPlan> clients;
  std::vector<AttackPlan> attacks;
  std::vector<PartitionPlan> partitions;
  std::vector<CrashPlan> crashes;

  std::uint32_t n() const { return 3 * f + 1; }
  bool within_fault_budget() const { return byz_replicas.size() <= f; }

  // Mode-correct lurking bound: 1 for base and strong, 2 for optimized.
  // Strong runs are additionally held to ok_plus(max_b(), 2) — the §7
  // overwrite-masking bound.
  int max_b() const { return mode == Mode::kOptimized ? 2 : 1; }

  // Deterministically samples a scenario from the supported cross
  // product; the result's `seed` is `run_seed`.
  static Scenario sample(std::uint64_t run_seed);

  std::string to_json() const;
  static std::optional<Scenario> from_json(std::string_view text);

  // Compact human label for reports: "f1-base-byz1-atk2-loss".
  std::string name() const;
};

}  // namespace bftbc::explore
