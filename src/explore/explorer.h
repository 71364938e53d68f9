// Explorer: seed-driven randomized scenario execution with BFT-
// linearizability checking and automatic shrinking (Jepsen-style, but
// fully deterministic on the discrete-event simulator).
//
// explore() samples and runs N scenarios derived from a base seed. Every
// run — one replica group or several — goes through the one runner,
// run_scenario(): it drives a harness::Cluster of Scenario::shards
// groups through routing clients, records correct-client operations
// through harness/recording.h into a checker::History, and holds each
// shard's slice of it to the mode-correct bound: CheckResult::ok(1) for
// base, ok(2) for optimized, ok_plus(1, 2) for strong (§7 overwrite
// masking). Liveness is asserted too: within the fault budget, every
// operation and attack must finish inside the event budget.
//
// On failure the explorer greedily shrinks the scenario — drop clients,
// attacks, Byzantine replicas, and partitions; halve op counts and stash
// goals; quiet the link — re-running after each candidate edit and
// keeping it only while the same failure class reproduces. The minimal
// scenario JSON plus its event-ring trace land in the artifacts dir for
// one-command replay: `bftbc_explore --replay scenario.json`.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "explore/scenario.h"

namespace bftbc::explore {

// The always-present correct client that seeds every object, probes
// between staged colluder replays, and performs the final quiescent
// reads. Scenario client ids must stay below it.
inline constexpr quorum::ClientId kProbeClient = 50;

// Colluder transports during staged replay live on node ids from here up
// (one per replaying attack); attack ids must stay below it.
inline constexpr quorum::ClientId kColluderNodeBase = 200;

struct RunOutcome {
  bool completed = false;  // workload + attacks finished within budget
  bool safety_ok = true;   // checker verdict at the mode-correct bound
  int max_lurking = 0;
  std::size_t events = 0;       // simulator events executed
  std::size_t history_ops = 0;  // completed recorded operations
  // Attack actors whose pre-attack pmax fetch starved (gave up at the
  // fetch deadline) — typically an attack aimed at an object whose
  // replicas were partitioned away. The attack then ran against a
  // default timestamp and proves nothing; the runner classifies these
  // so soak budgets are not mistaken for real adversarial coverage.
  int vacuous_attacks = 0;
  // Completed ops whose interval overlapped a replica's crash downtime.
  std::size_t ops_spanning_crashes = 0;
  // Behavioral coverage signals this run exercised (sorted, deduped):
  // replica counter branches (certificate paths, drop verdicts, GC and
  // eviction events, state-transfer machinery), prepare-list depth
  // buckets, checker near-misses, per-shard verdict branches, and the
  // scenario's structural knobs. Input to the guided explore loop's
  // CoverageMap.
  std::vector<std::string> signals;
  // Empty when clean; otherwise "safety: ..." or "liveness: ...". The
  // prefix is the failure class shrinking preserves.
  std::string failure;
  // Multi-shard runs only: one verdict per shard from its own checker
  // instance over its slice of the split history — "ok" or the checker
  // summary. Empty for single-group runs, which also carry no
  // "shard<s>:ok|fail" signals and no "shard <s>: " failure prefix.
  std::vector<std::string> shard_verdicts;

  bool failed() const { return !failure.empty(); }
};

struct ExplorerOptions {
  std::uint64_t seed = 1;
  std::uint32_t runs = 50;
  // Where minimal scenario JSON + traces are written; empty disables
  // artifact dumping (the library stays filesystem-free then).
  std::string artifacts_dir;
  // Max candidate executions one shrink is allowed to spend.
  std::uint32_t shrink_budget = 64;
  // Coverage-guided mutational mode: instead of sampling every scenario
  // fresh, rank a corpus of coverage-novel scenarios and mostly mutate
  // corpus entries (knob perturbation, plan splicing, attack reordering,
  // crash jiggle). Uniform sampling remains the fallback arm so the
  // search never starves. Fully seed-deterministic either way.
  bool guided = false;
  // Directory of scenario JSON files replayed (sorted by filename) as
  // the initial corpus before any sampling, and — guided mode only —
  // where newly admitted entries are saved afterwards. Empty disables
  // both; the library then touches no filesystem beyond artifacts_dir.
  std::string corpus_dir;
};

struct RunRecord {
  std::uint32_t run = 0;
  std::uint64_t seed = 0;
  std::string scenario;  // Scenario::name()
  // Where the scenario came from: "sampled", "corpus" (initial replay),
  // or "mutated" (guided mode).
  std::string origin = "sampled";
  // Coverage signals first seen in this run (novelty at absorption).
  std::uint32_t new_signals = 0;
  RunOutcome outcome;
  std::string minimal_json;  // shrunken scenario (failures only)
  std::uint32_t shrink_runs = 0;
};

struct Report {
  std::uint64_t seed = 0;
  std::uint32_t runs = 0;
  std::uint32_t failures = 0;
  bool guided = false;
  // Distinct coverage signals seen after the final run, the per-run
  // growth curve (cumulative distinct signals after each run), and the
  // corpus size at the end. The E13 experiment compares the curve of
  // guided vs uniform mode over the same run budget.
  std::uint32_t coverage = 0;
  std::vector<std::uint32_t> coverage_curve;
  std::uint32_t corpus_size = 0;
  // Every distinct signal seen across the whole exploration (sorted) —
  // the --coverage-report payload.
  std::vector<std::string> signals_seen;
  std::vector<RunRecord> records;
  std::vector<std::string> artifact_files;

  // Deterministic JSON rendering (no wall-clock anywhere): identical
  // inputs produce byte-identical reports.
  std::string to_json() const;
};

class Explorer {
 public:
  explicit Explorer(ExplorerOptions options) : options_(options) {}

  // Sample + run + (on failure) shrink and dump artifacts for
  // options_.runs scenarios.
  Report explore();

  // Execute one scenario start to finish; when `trace_out` is non-null
  // the cluster's event ring buffer (every shard's traffic) is dumped
  // into it at the end. With shards > 1 the outcome also names the
  // verdict of each shard (RunOutcome::shard_verdicts).
  RunOutcome run_scenario(const Scenario& scenario,
                          std::ostream* trace_out = nullptr);

  // Greedy shrink: returns the smallest scenario found that still
  // reproduces `failure`'s class. `runs_used` (may be null) receives the
  // number of candidate executions spent.
  Scenario shrink(const Scenario& scenario, const std::string& failure,
                  std::uint32_t* runs_used = nullptr);

  // "safety" / "liveness" — the part of the failure string before ':'.
  static std::string failure_class(const std::string& failure);

 private:
  ExplorerOptions options_;
};

}  // namespace bftbc::explore
