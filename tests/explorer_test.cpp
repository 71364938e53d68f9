// Tier-1 coverage for the randomized scenario explorer (src/explore):
// JSON parsing, scenario serialization round-trips, sampled-scenario
// cleanliness, cross-process-grade determinism, and the end-to-end
// canary — a deliberately weakened replica configuration must produce a
// checker violation that shrinks to a small replayable scenario within
// the acceptance budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>

#include "explore/corpus.h"
#include "explore/coverage.h"
#include "explore/explorer.h"
#include "util/json_value.h"

namespace bftbc::explore {
namespace {

// ------------------------------------------------------------------
// JsonValue

TEST(JsonValueTest, ParsesScalars) {
  auto v = JsonValue::parse("{\"a\": 1, \"b\": true, \"c\": \"hi\", "
                            "\"d\": 2.5, \"e\": null}");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->u64("a"), 1u);
  EXPECT_TRUE(v->boolean("b"));
  EXPECT_EQ(v->string("c"), "hi");
  EXPECT_DOUBLE_EQ(v->num("d"), 2.5);
  ASSERT_NE(v->find("e"), nullptr);
  EXPECT_EQ(v->find("e")->kind(), JsonValue::Kind::kNull);
  EXPECT_EQ(v->find("missing"), nullptr);
}

TEST(JsonValueTest, U64RoundTripsExactly) {
  // 2^63 + 1 is not representable in a double; the integral channel must
  // preserve it bit-for-bit (seeds above 2^53 are common).
  auto v = JsonValue::parse("{\"seed\": 9223372036854775809}");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->u64("seed"), 9223372036854775809ull);
}

TEST(JsonValueTest, ParsesNestedArraysAndEscapes) {
  auto v = JsonValue::parse(
      "{\"xs\": [1, [2, 3], {\"k\": \"a\\nb\\\"c\\u0041\"}]}");
  ASSERT_TRUE(v.has_value());
  const JsonValue* xs = v->find("xs");
  ASSERT_NE(xs, nullptr);
  ASSERT_TRUE(xs->is_array());
  ASSERT_EQ(xs->items().size(), 3u);
  EXPECT_EQ(xs->items()[1].items()[1].as_u64(), 3u);
  EXPECT_EQ(xs->items()[2].string("k"), "a\nb\"cA");
}

TEST(JsonValueTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(JsonValue::parse("").has_value());
  EXPECT_FALSE(JsonValue::parse("{").has_value());
  EXPECT_FALSE(JsonValue::parse("{\"a\": }").has_value());
  EXPECT_FALSE(JsonValue::parse("[1, 2,]").has_value());
  EXPECT_FALSE(JsonValue::parse("\"unterminated").has_value());
  EXPECT_FALSE(JsonValue::parse("{} trailing").has_value());
  EXPECT_FALSE(JsonValue::parse("truth").has_value());
}

TEST(JsonValueTest, RejectsAbsurdNesting) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += "[";
  for (int i = 0; i < 200; ++i) deep += "]";
  EXPECT_FALSE(JsonValue::parse(deep).has_value());
}

TEST(JsonValueTest, TruncationNeverParses) {
  const Scenario s = Scenario::sample(77);
  const std::string full = s.to_json();
  for (std::size_t cut = 0; cut + 1 < full.size(); cut += 7) {
    EXPECT_FALSE(JsonValue::parse(full.substr(0, cut)).has_value())
        << "prefix of length " << cut << " parsed";
  }
}

// ------------------------------------------------------------------
// Scenario serialization

TEST(ScenarioTest, JsonRoundTripIsExact) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const Scenario s = Scenario::sample(seed * 1297);
    const std::string rendered = s.to_json();
    const auto back = Scenario::from_json(rendered);
    ASSERT_TRUE(back.has_value()) << rendered;
    EXPECT_EQ(back->to_json(), rendered) << "seed " << seed;
    EXPECT_EQ(back->name(), s.name());
  }
}

TEST(ScenarioTest, SampleIsDeterministic) {
  for (std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
    EXPECT_EQ(Scenario::sample(seed).to_json(),
              Scenario::sample(seed).to_json());
  }
}

TEST(ScenarioTest, SampleStaysWithinFaultBudget) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const Scenario s = Scenario::sample(seed);
    EXPECT_TRUE(s.within_fault_budget());
    EXPECT_TRUE(s.enforce_fault_budget);
    for (const ClientPlan& c : s.clients) EXPECT_LT(c.id, kProbeClient);
    for (const AttackPlan& a : s.attacks) {
      EXPECT_GT(a.id, kProbeClient);
      EXPECT_LT(a.id, kColluderNodeBase);
    }
  }
}

TEST(ScenarioTest, FromJsonRejectsOutOfRangeConfigs) {
  const std::string base = Scenario::sample(5).to_json();
  EXPECT_TRUE(Scenario::from_json(base).has_value());
  EXPECT_FALSE(Scenario::from_json("{\"f\": 9}").has_value());
  EXPECT_FALSE(Scenario::from_json("{\"f\": 1, \"objects\": 0}").has_value());
  EXPECT_FALSE(
      Scenario::from_json("{\"f\": 1, \"objects\": 1, \"shards\": 9}")
          .has_value());
  EXPECT_FALSE(
      Scenario::from_json("{\"f\": 1, \"objects\": 1, \"shards\": 0}")
          .has_value());
  EXPECT_FALSE(Scenario::from_json("not json at all").has_value());
  // A byz slot beyond n() must be rejected, not silently dropped.
  EXPECT_FALSE(
      Scenario::from_json(
          "{\"f\": 1, \"objects\": 1, \"byz_replicas\": [{\"slot\": 7, "
          "\"species\": \"silent\"}]}")
          .has_value());
}

// ------------------------------------------------------------------
// Explorer

TEST(ExplorerTest, SampledScenariosPassTheChecker) {
  ExplorerOptions options;
  options.seed = 20260806;
  options.runs = 25;
  Explorer explorer(options);
  const Report report = explorer.explore();
  EXPECT_EQ(report.failures, 0u) << report.to_json();
  ASSERT_EQ(report.records.size(), 25u);
  for (const RunRecord& r : report.records) {
    EXPECT_TRUE(r.outcome.completed) << r.scenario;
    EXPECT_GT(r.outcome.history_ops, 0u);
  }
}

TEST(ExplorerTest, ReportIsByteIdenticalAcrossRepeats) {
  ExplorerOptions options;
  options.seed = 99;
  options.runs = 15;
  const Report a = Explorer(options).explore();
  const Report b = Explorer(options).explore();
  EXPECT_EQ(a.to_json(), b.to_json());
}

TEST(ExplorerTest, FailureClassSplitsOnColon) {
  EXPECT_EQ(Explorer::failure_class("safety: lurking[66]=2"), "safety");
  EXPECT_EQ(Explorer::failure_class("liveness: stalled"), "liveness");
  EXPECT_EQ(Explorer::failure_class("odd"), "odd");
}

// The deliberately weakened configuration: three EquivocSignReplica
// accomplices at f=1 (fault budget off) sign any prepare, so a
// LurkingWriteStasher can chain multiple lurking writes past the base
// protocol's bound of 1. The explorer must flag it, shrink it within the
// acceptance budget (< 10 candidate runs), and the minimal scenario must
// replay from its JSON.
Scenario weakened_scenario() {
  Scenario s;
  s.seed = 4242;
  s.f = 1;
  s.mode = Mode::kBase;
  s.enforce_fault_budget = false;
  s.objects = 1;
  s.byz_replicas = {{0, ByzSpecies::kEquivocSign},
                    {1, ByzSpecies::kEquivocSign},
                    {2, ByzSpecies::kEquivocSign}};
  ClientPlan client;
  client.id = 1;
  client.ops = 3;
  s.clients = {client};
  AttackPlan attack;
  attack.kind = AttackKind::kLurkingStash;
  attack.id = 66;
  attack.object = 1;
  attack.goal = 2;
  attack.collude_replay = true;
  s.attacks = {attack};
  return s;
}

TEST(ExplorerTest, WeakenedReplicasYieldCheckerViolation) {
  Explorer explorer(ExplorerOptions{});
  const RunOutcome outcome = explorer.run_scenario(weakened_scenario());
  EXPECT_TRUE(outcome.completed);
  ASSERT_TRUE(outcome.failed());
  EXPECT_EQ(Explorer::failure_class(outcome.failure), "safety");
  EXPECT_GE(outcome.max_lurking, 2);
}

TEST(ExplorerTest, ViolationShrinksToReplayableScenarioWithinBudget) {
  Explorer explorer(ExplorerOptions{});
  const Scenario original = weakened_scenario();
  const RunOutcome outcome = explorer.run_scenario(original);
  ASSERT_TRUE(outcome.failed());

  std::uint32_t used = 0;
  const Scenario minimal = explorer.shrink(original, outcome.failure, &used);
  EXPECT_LT(used, 10u);  // acceptance: under 10 runs' worth of work
  // The violation needs the attacker and all three accomplices; the
  // correct workload client is noise and must have been dropped.
  EXPECT_TRUE(minimal.clients.empty());
  EXPECT_EQ(minimal.attacks.size(), 1u);
  EXPECT_EQ(minimal.byz_replicas.size(), 3u);

  // One-command replay: the dumped JSON must parse back and reproduce
  // the same failure class.
  const auto reloaded = Scenario::from_json(minimal.to_json());
  ASSERT_TRUE(reloaded.has_value());
  const RunOutcome replayed = explorer.run_scenario(*reloaded);
  ASSERT_TRUE(replayed.failed());
  EXPECT_EQ(Explorer::failure_class(replayed.failure), "safety");
}

TEST(ExplorerTest, MultiShardScenarioYieldsPerShardVerdicts) {
  // A clean two-shard run: workload + an in-bound lurking attack on the
  // attack object's home shard. The outcome must carry one verdict per
  // shard, all "ok", and pass overall.
  Scenario s;
  s.seed = 11;
  s.f = 1;
  s.mode = Mode::kOptimized;
  s.shards = 2;
  s.objects = 4;
  ClientPlan seq;
  seq.id = 1;
  seq.ops = 4;
  ClientPlan piped;
  piped.id = 2;
  piped.ops = 4;
  piped.pipelined = true;
  piped.window = 2;
  s.clients = {seq, piped};
  AttackPlan attack;
  attack.kind = AttackKind::kLurkingStash;
  attack.id = 66;
  attack.object = 1;
  attack.goal = 1;
  attack.collude_replay = true;
  s.attacks = {attack};

  Explorer explorer(ExplorerOptions{});
  const RunOutcome outcome = explorer.run_scenario(s);
  EXPECT_TRUE(outcome.completed);
  EXPECT_FALSE(outcome.failed()) << outcome.failure;
  ASSERT_EQ(outcome.shard_verdicts.size(), 2u);
  for (const auto& verdict : outcome.shard_verdicts) {
    EXPECT_EQ(verdict, "ok");
  }
  EXPECT_GT(outcome.history_ops, 0u);
}

TEST(ExplorerTest, MultiShardViolationNamesTheGuiltyShard) {
  // The weakened-cartel violation, run under two shards: the per-shard
  // checker must flag exactly the attack object's home group, and the
  // failure string must say which.
  Scenario s = weakened_scenario();
  s.shards = 2;
  s.objects = 2;
  Explorer explorer(ExplorerOptions{});
  const RunOutcome outcome = explorer.run_scenario(s);
  EXPECT_TRUE(outcome.completed);
  ASSERT_TRUE(outcome.failed());
  EXPECT_EQ(Explorer::failure_class(outcome.failure), "safety");
  EXPECT_NE(outcome.failure.find("shard"), std::string::npos)
      << outcome.failure;
  ASSERT_EQ(outcome.shard_verdicts.size(), 2u);
  int bad = 0;
  for (const auto& verdict : outcome.shard_verdicts) {
    if (verdict != "ok") ++bad;
  }
  EXPECT_EQ(bad, 1);
}

// A small clean scenario whose probe seeds objects on both groups when
// run with two shards (objects 1 and 3 live on shard 1, 2 and 4 on 0).
Scenario shard_layout_scenario(std::uint32_t shards) {
  Scenario s;
  s.seed = 11;
  s.f = 1;
  s.shards = shards;
  s.objects = 4;
  ClientPlan seq;
  seq.id = 1;
  seq.ops = 4;
  s.clients = {seq};
  return s;
}

// Sender node ids of every SEND line in an event-ring dump.
std::set<std::uint64_t> trace_senders(const std::string& dump) {
  std::set<std::uint64_t> senders;
  std::istringstream lines(dump);
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t at = line.find(" SEND ");
    if (at == std::string::npos) continue;
    senders.insert(std::stoull(line.substr(at + 6)));
  }
  return senders;
}

TEST(ExplorerTest, MultiShardTraceHoldsBothGroups) {
  // The event ring covers every shard: replies leave both groups'
  // replica nodes (shard s, replica r at s * 0x100 + r).
  std::ostringstream trace;
  const RunOutcome outcome =
      Explorer(ExplorerOptions{}).run_scenario(shard_layout_scenario(2),
                                               &trace);
  EXPECT_FALSE(outcome.failed()) << outcome.failure;
  const std::set<std::uint64_t> senders = trace_senders(trace.str());
  bool group0 = false;
  bool group1 = false;
  for (std::uint64_t node : senders) {
    group0 = group0 || node < 4;
    group1 = group1 || (node >= 0x100 && node < 0x104);
  }
  EXPECT_TRUE(group0) << trace.str();
  EXPECT_TRUE(group1) << trace.str();
}

TEST(ExplorerTest, SingleGroupOutcomeCarriesNoShardEntries) {
  // At one shard the runner adds no per-shard verdicts, signals or
  // failure prefix, and every node sits in the single-group layout.
  std::ostringstream trace;
  const RunOutcome outcome =
      Explorer(ExplorerOptions{}).run_scenario(shard_layout_scenario(1),
                                               &trace);
  EXPECT_FALSE(outcome.failed()) << outcome.failure;
  EXPECT_TRUE(outcome.shard_verdicts.empty());
  for (const std::string& signal : outcome.signals) {
    EXPECT_NE(signal.rfind("shard", 0), 0u) << signal;
  }
  const std::set<std::uint64_t> senders = trace_senders(trace.str());
  ASSERT_FALSE(senders.empty());
  for (std::uint64_t node : senders) {
    EXPECT_TRUE(node < 4 || (node >= 0x10000 && node < 0x20000)) << node;
  }
}

// ------------------------------------------------------------------
// Coverage map + corpus (the guided loop's moving parts)

TEST(CoverageTest, Log2BucketsCoarsen) {
  EXPECT_EQ(log2_bucket(0), 0u);
  EXPECT_EQ(log2_bucket(1), 1u);
  EXPECT_EQ(log2_bucket(2), 2u);
  EXPECT_EQ(log2_bucket(3), 2u);
  EXPECT_EQ(log2_bucket(4), 3u);
  EXPECT_EQ(log2_bucket(7), 3u);
  EXPECT_EQ(log2_bucket(8), 4u);
}

TEST(CoverageTest, AbsorbCountsOnlyNovelSignals) {
  CoverageMap map;
  EXPECT_EQ(map.absorb({"a", "b"}), 2u);
  EXPECT_EQ(map.absorb({"b", "c"}), 1u);
  EXPECT_EQ(map.absorb({"a", "b", "c"}), 0u);
  EXPECT_EQ(map.size(), 3u);
  EXPECT_TRUE(map.would_add({"d"}));
  EXPECT_FALSE(map.would_add({"a", "c"}));
}

TEST(CorpusTest, MutateIsDeterministicAndKeepsIdInvariants) {
  const Scenario base = Scenario::sample(123);
  const Scenario donor = Scenario::sample(456);
  for (std::uint64_t child = 1; child <= 200; ++child) {
    const Scenario a = mutate_scenario(base, &donor, child);
    const Scenario b = mutate_scenario(base, &donor, child);
    EXPECT_EQ(a.to_json(), b.to_json()) << "child seed " << child;
    EXPECT_EQ(a.seed, child);
    // The runner's addressing invariants must survive every mutation.
    for (std::size_t i = 0; i < a.clients.size(); ++i) {
      EXPECT_EQ(a.clients[i].id, 1 + i);
    }
    for (std::size_t i = 0; i < a.attacks.size(); ++i) {
      EXPECT_EQ(a.attacks[i].id, 60 + i);
      EXPECT_LT(a.attacks[i].id, kColluderNodeBase);
    }
    // Mutants must stay loadable: the JSON codec enforces the same
    // range checks the sampler honors.
    EXPECT_TRUE(Scenario::from_json(a.to_json()).has_value())
        << a.to_json();
  }
}

TEST(CorpusTest, MutationsReachStructuralDimensions) {
  // Across a few hundred children of one base, the mutators must be able
  // to flip every structural knob: mode, auth, shards, f, crash
  // schedules, collusion. Otherwise guided search can never leave the
  // corpus's starting corner.
  const Scenario base = Scenario::sample(9);
  const Scenario donor = Scenario::sample(10);
  std::set<std::string> modes;
  std::set<std::uint32_t> fs, shards;
  bool saw_mac_flip = false, saw_crash = false, saw_collusion = false;
  for (std::uint64_t child = 1; child <= 400; ++child) {
    const Scenario m = mutate_scenario(base, &donor, child);
    modes.insert(std::string(mode_name(m.mode)));
    fs.insert(m.f);
    shards.insert(m.shards);
    saw_mac_flip |= m.mac_auth != base.mac_auth;
    saw_crash |= !m.crashes.empty();
    for (const AttackPlan& a : m.attacks) {
      saw_collusion |= a.collusion_group != 0;
    }
  }
  EXPECT_EQ(modes.size(), 3u);
  EXPECT_EQ(fs.size(), 2u);
  EXPECT_EQ(shards.size(), 2u);
  EXPECT_TRUE(saw_mac_flip);
  EXPECT_TRUE(saw_crash);
  EXPECT_TRUE(saw_collusion);
}

TEST(CorpusTest, PickIsNoveltyWeightedAndDeterministic) {
  Corpus corpus;
  corpus.add({Scenario::sample(1), /*novelty=*/0});
  corpus.add({Scenario::sample(2), /*novelty=*/50});
  Rng rng(7);
  int second = 0;
  for (int i = 0; i < 200; ++i) {
    if (corpus.pick(rng).novelty == 50) ++second;
  }
  // Weight 51 vs 1: the high-novelty entry dominates but the other stays
  // reachable.
  EXPECT_GT(second, 150);
  EXPECT_LT(second, 200);
}

TEST(ExplorerTest, RunOutcomeCarriesSortedSignals) {
  Explorer explorer(ExplorerOptions{});
  const RunOutcome outcome = explorer.run_scenario(Scenario::sample(3));
  ASSERT_FALSE(outcome.signals.empty());
  EXPECT_TRUE(std::is_sorted(outcome.signals.begin(), outcome.signals.end()));
  // Structural knobs are always present: the mode marker at minimum.
  bool has_mode = false;
  for (const std::string& s : outcome.signals) {
    if (s.rfind("mode:", 0) == 0) has_mode = true;
  }
  EXPECT_TRUE(has_mode);
}

TEST(ExplorerTest, GuidedReportIsByteIdenticalAcrossRepeats) {
  ExplorerOptions options;
  options.seed = 99;
  options.runs = 15;
  options.guided = true;
  const Report a = Explorer(options).explore();
  const Report b = Explorer(options).explore();
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_TRUE(a.guided);
  EXPECT_GT(a.coverage, 0u);
  EXPECT_GT(a.corpus_size, 0u);
  ASSERT_EQ(a.coverage_curve.size(), 15u);
  EXPECT_TRUE(std::is_sorted(a.coverage_curve.begin(),
                             a.coverage_curve.end()));
  EXPECT_EQ(a.coverage_curve.back(), a.coverage);
}

TEST(ExplorerTest, GuidedRunsStayClean) {
  // Mutants explore corners the sampler's own budget-respecting draws
  // never emit, so this doubles as a mutation-operator soundness check:
  // whatever the mutators produce must still satisfy the mode's bound.
  ExplorerOptions options;
  options.seed = 31337;
  options.runs = 40;
  options.guided = true;
  const Report report = Explorer(options).explore();
  EXPECT_EQ(report.failures, 0u) << report.to_json();
  // The guided loop actually mutated (not just sampled).
  int mutated = 0;
  for (const RunRecord& r : report.records) {
    if (r.origin == "mutated") ++mutated;
  }
  EXPECT_GT(mutated, 0);
}

// ------------------------------------------------------------------
// Crash/restart scenarios through the explorer

TEST(ExplorerTest, CrashRestartScenarioRunsCleanAndSignalsCrash) {
  Scenario s;
  s.seed = 2026;
  s.f = 1;
  s.mode = Mode::kBase;
  s.objects = 2;
  ClientPlan c1;
  c1.id = 1;
  c1.ops = 6;
  c1.write_ratio = 0.7;
  ClientPlan c2;
  c2.id = 2;
  c2.ops = 6;
  s.clients = {c1, c2};
  CrashPlan crash;
  crash.replica = 2;
  crash.at = 10 * sim::kMillisecond;
  crash.restart_at = 40 * sim::kMillisecond;
  s.crashes = {crash};

  Explorer explorer(ExplorerOptions{});
  const RunOutcome outcome = explorer.run_scenario(s);
  EXPECT_TRUE(outcome.completed);
  EXPECT_FALSE(outcome.failed()) << outcome.failure;
  const auto has = [&](const std::string& sig) {
    return std::find(outcome.signals.begin(), outcome.signals.end(), sig) !=
           outcome.signals.end();
  };
  EXPECT_TRUE(has("crash"));
  // The restarted replica actually went through state transfer.
  EXPECT_TRUE(has("r:state_recovered_objects")) << [&] {
    std::string all;
    for (const auto& sig : outcome.signals) all += sig + " ";
    return all;
  }();
}

TEST(ExplorerTest, CrashNeverRestartingIsStillWithinLiveness) {
  // restart_at == 0: the replica stays down. With f=1 the other three
  // replicas still form every quorum; the run must stay clean.
  Scenario s;
  s.seed = 77;
  s.f = 1;
  s.mode = Mode::kOptimized;
  s.objects = 1;
  ClientPlan c1;
  c1.id = 1;
  c1.ops = 5;
  c1.write_ratio = 0.5;
  s.clients = {c1};
  CrashPlan crash;
  crash.replica = 0;
  crash.at = 5 * sim::kMillisecond;
  crash.restart_at = 0;
  s.crashes = {crash};
  Explorer explorer(ExplorerOptions{});
  const RunOutcome outcome = explorer.run_scenario(s);
  EXPECT_TRUE(outcome.completed);
  EXPECT_FALSE(outcome.failed()) << outcome.failure;
}

TEST(ExplorerTest, ShardedCrashRestartRecoversEveryGroup) {
  // Sharded runs crash the same slot in every group; the restarted
  // replicas rebuild only the objects their shard owns.
  Scenario s;
  s.seed = 5150;
  s.f = 1;
  s.mode = Mode::kBase;
  s.shards = 2;
  s.objects = 4;
  ClientPlan c1;
  c1.id = 1;
  c1.ops = 8;
  c1.write_ratio = 0.6;
  s.clients = {c1};
  CrashPlan crash;
  crash.replica = 1;
  crash.at = 15 * sim::kMillisecond;
  crash.restart_at = 50 * sim::kMillisecond;
  s.crashes = {crash};
  Explorer explorer(ExplorerOptions{});
  const RunOutcome outcome = explorer.run_scenario(s);
  EXPECT_TRUE(outcome.completed);
  EXPECT_FALSE(outcome.failed()) << outcome.failure;
  ASSERT_EQ(outcome.shard_verdicts.size(), 2u);
  for (const auto& verdict : outcome.shard_verdicts) {
    EXPECT_EQ(verdict, "ok");
  }
}

TEST(ExplorerTest, WeakenedCrashRecoveryViolationShrinksToReplayable) {
  // Acceptance: the weakened configuration with a crash/recovery
  // schedule enabled still produces a violation that shrinks to a
  // replayable scenario. The crash is noise here — the shrinker may
  // drop it — but its presence must not mask the violation or wedge
  // the shrink loop.
  Scenario s = weakened_scenario();
  CrashPlan crash;
  crash.replica = 3;  // the one honest replica goes down and comes back
  crash.at = 20 * sim::kMillisecond;
  crash.restart_at = 45 * sim::kMillisecond;
  s.crashes = {crash};

  Explorer explorer(ExplorerOptions{});
  const RunOutcome outcome = explorer.run_scenario(s);
  EXPECT_TRUE(outcome.completed);
  ASSERT_TRUE(outcome.failed());
  EXPECT_EQ(Explorer::failure_class(outcome.failure), "safety");

  std::uint32_t used = 0;
  const Scenario minimal = explorer.shrink(s, outcome.failure, &used);
  EXPECT_LE(used, 32u);
  const auto reloaded = Scenario::from_json(minimal.to_json());
  ASSERT_TRUE(reloaded.has_value());
  const RunOutcome replayed = explorer.run_scenario(*reloaded);
  ASSERT_TRUE(replayed.failed());
  EXPECT_EQ(Explorer::failure_class(replayed.failure), "safety");
}

TEST(ExplorerTest, ModeBoundsAreEnforcedPerMode) {
  // The same weakened cartel under optimized mode: bound is 2, so two
  // lurking writes are LEGAL there — the checker must not over-flag.
  Scenario s = weakened_scenario();
  s.mode = Mode::kOptimized;
  s.attacks[0].goal = 2;
  Explorer explorer(ExplorerOptions{});
  const RunOutcome outcome = explorer.run_scenario(s);
  EXPECT_LE(outcome.max_lurking, 2);
  if (outcome.max_lurking <= 2) {
    EXPECT_FALSE(outcome.failed()) << outcome.failure;
  }
}

}  // namespace
}  // namespace bftbc::explore
