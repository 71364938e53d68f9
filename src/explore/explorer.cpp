#include "explore/explorer.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "checker/bft_linearizability.h"
#include "checker/history.h"
#include "explore/corpus.h"
#include "explore/coverage.h"
#include "faults/byzantine_client.h"
#include "faults/byzantine_replica.h"
#include "harness/cluster.h"
#include "harness/recording.h"
#include "metrics/json.h"
#include "util/stats.h"

namespace bftbc::explore {

namespace {

// ---- coverage-signal extraction (DESIGN.md §14) ------------------------
// Signals are short strings; the CoverageMap only cares about set
// membership, so everything here must be deterministic and bounded.

// Structural knobs: which corner of the scenario cross product ran.
void scenario_signals(const Scenario& s, std::set<std::string>& sig) {
  sig.insert("mode:" + std::string(mode_name(s.mode)));
  sig.insert("f:" + std::to_string(s.f));
  if (s.shards > 1) sig.insert("sharded");
  if (s.mac_auth) sig.insert("mac");
  if (!s.crashes.empty()) sig.insert("crash");
  if (!s.partitions.empty()) sig.insert("partition");
  if (s.loss > 0) sig.insert("lossy");
  for (const AttackPlan& a : s.attacks) {
    sig.insert("atk:" + std::string(attack_name(a.kind)));
    if (a.collusion_group != 0) sig.insert("collude");
  }
  for (const ByzReplicaSlot& b : s.byz_replicas) {
    sig.insert("byz:" + std::string(species_name(b.species)));
  }
}

// Counter branches: which certificate paths, drop verdicts, GC/eviction
// events, and state-transfer machinery fired at all. The name universe
// is the replica/attacker counter vocabulary — closed and small.
void counter_signals(const Counters& counters, const char* prefix,
                     std::set<std::string>& sig) {
  for (const auto& [name, value] : counters.all()) {
    if (value > 0) sig.insert(prefix + name);
  }
}

// Checker-derived signals: lurking counts and the near-miss brinks.
void checker_signals(const checker::CheckResult& check, const Scenario& s,
                     std::set<std::string>& sig) {
  const checker::CheckResult::NearMiss nm = check.near_misses(s.max_b(), 2);
  if (nm.at_lurking_bound > 0) sig.insert("nm:lurk_at_bound");
  if (nm.near_lurking_bound > 0) sig.insert("nm:lurk_near_bound");
  if (nm.at_masking_bound > 0) sig.insert("nm:mask_at_bound");
  sig.insert("lurk:" + std::to_string(check.max_lurking()));
}

// Conjunction signals: structural knob × behavioral event. The marginal
// signals above saturate within a few hundred uniform runs; the product
// lattice does not — "optimized-mode run that recovered a crashed
// replica while a collusion group was lurking" is a corner uniform
// sampling rarely lands on, and exactly the kind mutation reaches by
// perturbing one dimension of a corpus entry at a time. Call after every
// marginal signal has been inserted.
void compound_signals(const Scenario& s, std::set<std::string>& sig) {
  std::vector<std::string> left;
  left.push_back("mode:" + std::string(mode_name(s.mode)));
  left.push_back("f:" + std::to_string(s.f));
  if (s.shards > 1) left.push_back("sharded");
  if (s.mac_auth) left.push_back("mac");
  static const char* const kInteresting[] = {
      "crash",          "collude",          "partition",
      "lossy",          "atk:vacuous",      "atk:equivocate",
      "atk:partial_write", "atk:timestamp_hog", "atk:lurking_stash",
      "nm:lurk_at_bound", "nm:lurk_near_bound", "nm:mask_at_bound",
      "r:opt_tiebreak_overwrite", "r:gc_reclaimed", "r:objects_evicted",
      "r:state_recovered_objects", "r:drop_plist_conflict",
      "r:drop_recovering"};
  std::vector<std::string> right;
  for (const char* tag : kInteresting) {
    if (sig.count(tag) != 0) right.push_back(tag);
  }
  for (const std::string& l : left) {
    for (const std::string& r : right) sig.insert("x:" + l + "+" + r);
  }
}

harness::ReplicaFactory make_factory(ByzSpecies species) {
  switch (species) {
    case ByzSpecies::kSilent:
      return harness::replica_factory<faults::SilentReplica>();
    case ByzSpecies::kStale:
      return harness::replica_factory<faults::StaleReplica>();
    case ByzSpecies::kGarbageSig:
      return harness::replica_factory<faults::GarbageSigReplica>();
    case ByzSpecies::kEquivocSign:
      return harness::replica_factory<faults::EquivocSignReplica>();
    case ByzSpecies::kFlipValue:
      return harness::replica_factory<faults::FlipValueReplica>();
  }
  return harness::replica_factory<faults::SilentReplica>();
}

// Builds one attack actor aimed at the replica group (and keystore) of
// the shard that owns the plan's object, matching the cluster's auth
// mode; `attackers` owns it.
template <typename Actor>
Actor& add_attacker(
    harness::Cluster& cluster, const AttackPlan& plan,
    rpc::Transport& transport, bool mac_auth,
    std::vector<std::unique_ptr<faults::AttackClientBase>>& attackers) {
  const std::uint32_t home = cluster.shard_of(plan.object);
  auto actor = std::make_unique<Actor>(
      cluster.config(), plan.id, cluster.keystore(home), transport,
      cluster.sim(), cluster.replica_nodes(home), cluster.rng().split());
  actor->set_mac_auth(mac_auth);
  Actor& ref = *actor;
  attackers.push_back(std::move(actor));
  return ref;
}

// One workload client mid-flight: its plan, routing client, private rng,
// and the number of ops it will actually issue (shorter when the plan
// stops it mid-run).
struct WorkloadClient {
  const ClientPlan* plan = nullptr;
  shard::RoutingClient* client = nullptr;
  Rng rng;
  std::uint32_t target = 0;
  // An op of this client timed out: its write may still be in flight, so
  // the client cannot be certified quiescent and must not be stopped.
  bool aborted = false;
};

}  // namespace

std::string Explorer::failure_class(const std::string& failure) {
  const std::size_t colon = failure.find(':');
  return colon == std::string::npos ? failure : failure.substr(0, colon);
}

RunOutcome Explorer::run_scenario(const Scenario& s, std::ostream* trace_out) {
  RunOutcome out;
  const bool sharded = s.shards > 1;

  harness::ClusterOptions copts;
  copts.shards = s.shards;
  copts.f = s.f;
  copts.optimized = s.mode == Mode::kOptimized;
  copts.strong = s.mode == Mode::kStrong;
  copts.mac_auth = s.mac_auth;
  copts.seed = s.seed;
  copts.link.loss_probability = s.loss;
  copts.link.duplicate_probability = s.dup;
  copts.link.corrupt_probability = s.corrupt;
  copts.link.base_delay = s.base_delay;
  copts.link.jitter_mean = s.jitter_mean;
  // Install Byzantine replicas — the same in-group slot in every shard.
  // Within the fault budget at most f slots are filled;
  // enforce_fault_budget=false is the deliberately-weakened configuration
  // (the explorer's own canary) and installs them all.
  std::set<std::uint32_t> byz_slots;
  for (const ByzReplicaSlot& b : s.byz_replicas) {
    if (s.enforce_fault_budget && byz_slots.size() >= s.f) break;
    if (b.slot >= s.n()) continue;
    copts.replica_factories[b.slot] = make_factory(b.species);
    byz_slots.insert(b.slot);
  }

  harness::Cluster cluster(copts);
  checker::History history;
  harness::Recorder rec(cluster, history);

  // Liveness failures accumulate first-wins; a safety failure recorded at
  // the end overrides (it is the headline, and the class shrinking must
  // preserve).
  auto fail = [&out](std::string msg) {
    if (out.failure.empty()) out.failure = std::move(msg);
  };

  // --- Phase A: the probe client seeds every object. -------------------
  shard::RoutingClient& probe = cluster.add_client(kProbeClient);
  for (quorum::ObjectId obj = 1; obj <= s.objects; ++obj) {
    auto seeded =
        rec.write(probe, obj, to_bytes("seed-" + std::to_string(obj)));
    if (!seeded.is_ok() && s.within_fault_budget()) {
      fail("liveness: seed write failed on object " + std::to_string(obj));
    }
  }

  // --- Phase B: attack actors, each aimed at its object's shard. --------
  std::vector<std::unique_ptr<rpc::Transport>> attack_transports;
  std::vector<std::unique_ptr<faults::AttackClientBase>> attackers;
  std::vector<char> attack_done(s.attacks.size(), 0);
  std::vector<std::vector<rpc::Envelope>> stashes(s.attacks.size());

  for (std::size_t i = 0; i < s.attacks.size(); ++i) {
    const AttackPlan plan = s.attacks[i];
    const std::uint32_t home = cluster.shard_of(plan.object);
    attack_transports.push_back(cluster.make_transport(
        harness::shard_client_node(home, plan.id)));
    rpc::Transport& transport = *attack_transports.back();
    const sim::Time start =
        (10 + 15 * static_cast<sim::Time>(i)) * sim::kMillisecond;
    switch (plan.kind) {
      case AttackKind::kEquivocate: {
        auto& actor = add_attacker<faults::EquivocatorClient>(
            cluster, plan, transport, s.mac_auth, attackers);
        cluster.sim().schedule(start, [&actor, plan, i, &attack_done] {
          actor.attack(plan.object, to_bytes("equiv-a"), to_bytes("equiv-b"),
                       [i, &attack_done](faults::EquivocatorClient::Outcome) {
                         attack_done[i] = 1;
                       });
        });
        break;
      }
      case AttackKind::kPartialWrite: {
        auto& actor = add_attacker<faults::PartialWriter>(
            cluster, plan, transport, s.mac_auth, attackers);
        cluster.sim().schedule(start, [&actor, plan, i, &attack_done] {
          actor.attack(plan.object, to_bytes("partial"),
                       [i, &attack_done](bool) { attack_done[i] = 1; });
        });
        break;
      }
      case AttackKind::kTimestampHog: {
        auto& actor = add_attacker<faults::TimestampHog>(
            cluster, plan, transport, s.mac_auth, attackers);
        cluster.sim().schedule(start, [&actor, plan, i, &attack_done] {
          actor.attack(plan.object, 1'000'000, static_cast<int>(plan.goal),
                       [i, &attack_done](faults::TimestampHog::Outcome) {
                         attack_done[i] = 1;
                       });
        });
        break;
      }
      case AttackKind::kLurkingStash: {
        auto& actor = add_attacker<faults::LurkingWriteStasher>(
            cluster, plan, transport, s.mac_auth, attackers);
        auto on_done = [i, plan, &attack_done, &stashes,
                        &rec](faults::LurkingWriteStasher::Outcome o) {
          stashes[i] = std::move(o.stashed);
          // The paper's stop: key revoked, event in the history. Whatever
          // was stashed before this instant may legally lurk — but only
          // up to the mode bound.
          rec.stop_client(plan.id);
          attack_done[i] = 1;
        };
        if (s.mode == Mode::kStrong) {
          // Strong-mode prepares must justify against the predecessor's
          // write certificate; anchor on the probe's seed write. Resolve
          // the certificates at fire time, not scheduling time.
          quorum::ReplicaId correct = 0;
          for (quorum::ReplicaId r = 0; r < s.n(); ++r) {
            if (byz_slots.count(r) == 0) {
              correct = r;
              break;
            }
          }
          cluster.sim().schedule(start, [&actor, plan, home, correct,
                                         &cluster, &probe, on_done] {
            core::PrepareCertificate just =
                core::PrepareCertificate::genesis(plan.object);
            const auto* state =
                cluster.replica(correct, home).find_object(plan.object);
            if (state != nullptr) just = state->pcert();
            std::optional<core::WriteCertificate> wcert =
                probe.shard_client(home).last_write_cert(plan.object);
            actor.attack_chained(plan.object, std::move(just),
                                 std::move(wcert),
                                 static_cast<int>(plan.goal), on_done);
          });
        } else {
          const bool optlist = s.mode == Mode::kOptimized;
          cluster.sim().schedule(start, [&actor, plan, optlist, on_done] {
            actor.attack(plan.object, static_cast<int>(plan.goal), optlist,
                         on_done);
          });
        }
        break;
      }
    }
  }

  // --- Phase C: correct-client workload through the routers. ------------
  std::vector<WorkloadClient> workload;
  workload.reserve(s.clients.size());
  int completed_ops = 0;
  int failed_ops = 0;
  int expected_ops = 0;
  for (const ClientPlan& plan : s.clients) {
    core::ClientOptions client_opts;
    // Explicit per-client options do NOT inherit the cluster's mode
    // flags; set them or the client would speak base protocol at
    // optimized/strong replicas.
    client_opts.optimized = copts.optimized;
    client_opts.strong = copts.strong;
    client_opts.mac_auth = copts.mac_auth;
    shard::RoutingClientOptions routing;
    if (plan.pipelined) {
      client_opts.max_inflight = plan.window;
      // The cross-shard window rides on top of the per-shard one; with
      // one shard it would only duplicate the leg's own window.
      if (sharded) routing.max_inflight_total = plan.window;
    }
    shard::RoutingClient& c = cluster.add_client(plan.id, client_opts, routing);
    std::uint32_t target = plan.ops;
    if (!plan.pipelined && plan.stop_after_ops > 0 &&
        plan.stop_after_ops < plan.ops) {
      target = plan.stop_after_ops;
    }
    workload.push_back({&plan, &c, cluster.rng().split(), target});
    expected_ops += static_cast<int>(target);
  }

  // Sequential clients run op k+1 from op k's completion callback, so a
  // mid-run stop always lands between operations — never across one.
  std::function<void(std::size_t, std::uint32_t)> step =
      [&](std::size_t ci, std::uint32_t op) {
        WorkloadClient& wc = workload[ci];
        if (op >= wc.target) {
          // The administrator's stop is a distinct later event, not part
          // of the final op's completion instant: defer it one tick so
          // the checker's frontier (strict responded < stop.at) includes
          // everything this client completed. A client with a timed-out
          // op is skipped — its write may still be in flight, which is a
          // legal lurking write, not the quiescent stop being modeled.
          if (wc.target < wc.plan->ops && !wc.aborted) {
            const quorum::ClientId id = wc.plan->id;
            cluster.sim().schedule(sim::kMillisecond,
                                   [&rec, id] { rec.stop_client(id); });
          }
          return;
        }
        const quorum::ObjectId object =
            1 + static_cast<quorum::ObjectId>(wc.rng.next_below(s.objects));
        if (wc.rng.next_bool(wc.plan->write_ratio)) {
          const Bytes value = to_bytes("c" + std::to_string(wc.plan->id) +
                                       "-w" + std::to_string(op));
          const std::size_t token = history.begin_write(
              wc.plan->id, object, cluster.sim().now(), value);
          wc.client->write(
              object, value,
              [&, ci, op, token](Result<core::Client::WriteResult> r) {
                if (r.is_ok()) {
                  history.end_write(token, cluster.sim().now(), r.value().ts);
                  ++completed_ops;
                } else {
                  history.abort(token);
                  ++failed_ops;
                  workload[ci].aborted = true;
                }
                step(ci, op + 1);
              });
        } else {
          const std::size_t token =
              history.begin_read(wc.plan->id, object, cluster.sim().now());
          wc.client->read(
              object, [&, ci, op, token](Result<core::Client::ReadResult> r) {
                if (r.is_ok()) {
                  history.end_read(token, cluster.sim().now(), r.value().ts,
                                   r.value().hash, r.value().value);
                  ++completed_ops;
                } else {
                  history.abort(token);
                  ++failed_ops;
                  workload[ci].aborted = true;
                }
                step(ci, op + 1);
              });
        }
      };

  for (std::size_t ci = 0; ci < workload.size(); ++ci) {
    WorkloadClient& wc = workload[ci];
    if (!wc.plan->pipelined) {
      step(ci, 0);
      continue;
    }
    // Pipelined clients queue their whole write burst up front; the
    // client's FIFO per-object pipeline bounds the in-flight window.
    for (std::uint32_t op = 0; op < wc.target; ++op) {
      const quorum::ObjectId object =
          1 + static_cast<quorum::ObjectId>(wc.rng.next_below(s.objects));
      const Bytes value = to_bytes("c" + std::to_string(wc.plan->id) + "-p" +
                                   std::to_string(op));
      const std::size_t token =
          history.begin_write(wc.plan->id, object, cluster.sim().now(), value);
      wc.client->submit_write(object, value,
                              [&, token](Result<core::Client::WriteResult> r) {
                                if (r.is_ok()) {
                                  history.end_write(token, cluster.sim().now(),
                                                    r.value().ts);
                                  ++completed_ops;
                                } else {
                                  history.abort(token);
                                  ++failed_ops;
                                }
                              });
    }
  }

  // --- Phase D: partition windows — the slot across every shard. --------
  // Delays are relative to workload start.
  std::vector<quorum::ClientId> party_ids;
  party_ids.push_back(kProbeClient);
  for (const ClientPlan& plan : s.clients) party_ids.push_back(plan.id);
  for (const AttackPlan& plan : s.attacks) party_ids.push_back(plan.id);
  std::vector<sim::NodeId> party_nodes;
  for (std::uint32_t sh = 0; sh < s.shards; ++sh) {
    for (quorum::ClientId id : party_ids) {
      party_nodes.push_back(harness::shard_client_node(sh, id));
    }
  }
  for (const PartitionPlan& p : s.partitions) {
    if (p.replica >= s.n()) continue;
    cluster.sim().schedule(p.at, [&cluster, &party_nodes, p, shards = s.shards] {
      for (std::uint32_t sh = 0; sh < shards; ++sh) {
        const sim::NodeId node = harness::shard_replica_node(sh, p.replica);
        for (sim::NodeId peer : party_nodes) cluster.net().partition(node, peer);
      }
    });
    cluster.sim().schedule(p.heal_at, [&cluster, &party_nodes, p,
                                       shards = s.shards] {
      for (std::uint32_t sh = 0; sh < shards; ++sh) {
        const sim::NodeId node = harness::shard_replica_node(sh, p.replica);
        for (sim::NodeId peer : party_nodes) cluster.net().heal(node, peer);
      }
    });
  }

  // --- Phase D': crash/restart schedule — the slot in every group. ------
  // The crash cuts the replica off; the restart destroys it (true state
  // loss), rebuilds it through the factory hook, and recovers the
  // shard's ObjectStates via STATE-XFER from the surviving quorum.
  // Recovery is asynchronous — it completes during the remaining
  // workload or the post-quiescence settle. Outlives the scheduled
  // closures below.
  std::vector<quorum::ObjectId> all_objects;
  for (quorum::ObjectId obj = 1; obj <= s.objects; ++obj) {
    all_objects.push_back(obj);
  }
  for (const CrashPlan& c : s.crashes) {
    if (c.replica >= s.n()) continue;
    const auto replica = static_cast<quorum::ReplicaId>(c.replica);
    history.record_crash(c.replica, c.at, c.restart_at);
    cluster.sim().schedule(c.at, [&cluster, replica, shards = s.shards] {
      for (std::uint32_t sh = 0; sh < shards; ++sh) {
        cluster.crash_replica(replica, sh);
      }
    });
    if (c.restart_at != 0) {
      cluster.sim().schedule(
          c.restart_at, [&cluster, replica, shards = s.shards, &all_objects] {
            for (std::uint32_t sh = 0; sh < shards; ++sh) {
              cluster.restart_replica(replica, all_objects, sh);
            }
          });
    }
  }

  // --- Phase E: run to quiescence (bounded). ----------------------------
  const bool finished = cluster.run_until(
      [&] {
        if (completed_ops + failed_ops < expected_ops) return false;
        for (char done : attack_done) {
          if (!done) return false;
        }
        return true;
      },
      20'000'000);
  out.completed = finished;
  if (!finished && s.within_fault_budget()) {
    fail("liveness: workload/attacks did not quiesce within the event budget");
  }
  if (failed_ops > 0 && s.within_fault_budget() && s.partitions.empty()) {
    fail("liveness: " + std::to_string(failed_ops) +
         " correct-client operation(s) failed");
  }

  if (finished) {
    cluster.net().heal_all();
    // Drain deferred stop events (and any message tails) before the
    // replay/read phases, so every stop is recorded ahead of the reads
    // that probe for lurking writes.
    cluster.settle();

    // --- Phase F: staged colluder replay into the owning shard. ---------
    // Each stashed envelope is unleashed separately with a probe read in
    // between: every lurking write the replay manages to land must
    // surface as a distinct post-stop version, which is exactly what the
    // checker's Theorem-1 frontier counts. Collusion groups are pooled
    // below; independent stashes replay here.
    auto replay = [&](std::vector<rpc::Envelope>& stash,
                      rpc::Transport& colluder_transport, std::uint32_t home,
                      quorum::ObjectId object) {
      for (rpc::Envelope& env : stash) {
        faults::Colluder colluder(colluder_transport,
                                  cluster.replica_nodes(home));
        colluder.stash(env);
        colluder.unleash(2);
        cluster.settle();
        auto probed = rec.read(probe, object);
        if (!probed.is_ok() && s.within_fault_budget()) {
          fail("liveness: probe read failed during colluder replay");
        }
      }
    };
    for (std::size_t i = 0; i < s.attacks.size(); ++i) {
      const AttackPlan plan = s.attacks[i];
      if (plan.kind != AttackKind::kLurkingStash || !plan.collude_replay ||
          plan.collusion_group != 0) {
        continue;
      }
      const std::uint32_t home = cluster.shard_of(plan.object);
      auto colluder_transport = cluster.make_transport(
          harness::shard_client_node(
              home, kColluderNodeBase + static_cast<quorum::ClientId>(i)));
      replay(stashes[i], *colluder_transport, home, plan.object);
    }

    // Collusion groups: the members' stashes pool into ONE colluder and
    // replay only after every member has stopped (quiescence implies
    // it) — the paper's worst case, where the lurking writes were
    // planned jointly yet the bound must hold per stopped client.
    std::map<std::uint32_t, std::vector<std::size_t>> collusion_groups;
    for (std::size_t i = 0; i < s.attacks.size(); ++i) {
      const AttackPlan& plan = s.attacks[i];
      if (plan.kind == AttackKind::kLurkingStash && plan.collusion_group != 0)
        collusion_groups[plan.collusion_group].push_back(i);
    }
    for (const auto& [gid, members] : collusion_groups) {
      const quorum::ObjectId target = s.attacks[members.front()].object;
      const std::uint32_t home = cluster.shard_of(target);
      auto colluder_transport = cluster.make_transport(
          harness::shard_client_node(
              home, kColluderNodeBase + 100 +
                        static_cast<quorum::ClientId>(gid)));
      for (std::size_t i : members) {
        replay(stashes[i], *colluder_transport, home, target);
      }
    }

    // --- Phase G: final quiescent reads over every object. --------------
    for (quorum::ObjectId obj = 1; obj <= s.objects; ++obj) {
      auto final_read = rec.read(probe, obj);
      if (!final_read.is_ok() && s.within_fault_budget()) {
        fail("liveness: final read failed on object " + std::to_string(obj));
      }
    }
  }

  // --- Coverage extraction (the fleet is still alive). ------------------
  std::set<std::string> sig;
  scenario_signals(s, sig);
  std::size_t plist_max = 0;
  std::size_t optlist_max = 0;
  for (std::uint32_t sh = 0; sh < s.shards; ++sh) {
    for (quorum::ReplicaId r = 0; r < s.n(); ++r) {
      core::Replica& rep = cluster.replica(r, sh);
      counter_signals(rep.metrics(), "r:", sig);
      for (quorum::ObjectId obj = 1; obj <= s.objects; ++obj) {
        const core::ObjectState* state = rep.find_object(obj);
        if (state == nullptr) continue;
        plist_max = std::max(plist_max, state->plist().size());
        optlist_max = std::max(optlist_max, state->optlist().size());
      }
    }
  }
  sig.insert("plist:" + std::to_string(log2_bucket(plist_max)));
  if (s.mode == Mode::kOptimized) {
    sig.insert("optlist:" + std::to_string(log2_bucket(optlist_max)));
  }
  for (const auto& attacker : attackers) {
    counter_signals(attacker->metrics(), "a:", sig);
    if (attacker->metrics().get("pmax_unreachable") > 0) {
      ++out.vacuous_attacks;
    }
  }
  if (out.vacuous_attacks > 0) sig.insert("atk:vacuous");

  // --- Verdict: split the history and check each shard on its own. ------
  // Multi-shard runs also record one verdict and one ok/fail signal per
  // shard, and name the failing shard.
  std::set<checker::ClientId> bad_clients;
  for (const AttackPlan& plan : s.attacks) bad_clients.insert(plan.id);
  const shard::ShardMap& map = cluster.map();
  const std::vector<checker::History> parts = checker::split_history(
      history, s.shards,
      [&map](checker::ObjectId object) { return map.shard_of(object); });
  for (std::uint32_t sh = 0; sh < s.shards; ++sh) {
    const checker::CheckResult check =
        checker::check_bft_linearizability(parts[sh], bad_clients);
    out.max_lurking = std::max(out.max_lurking, check.max_lurking());
    checker_signals(check, s, sig);
    const bool ok = s.mode == Mode::kStrong ? check.ok_plus(s.max_b(), 2)
                                            : check.ok(s.max_b());
    if (sharded) {
      out.shard_verdicts.push_back(ok ? "ok" : check.summary());
      sig.insert("shard" + std::to_string(sh) + (ok ? ":ok" : ":fail"));
    }
    if (!ok && out.safety_ok) {
      out.safety_ok = false;
      out.failure = "safety: " +
                    (sharded ? "shard " + std::to_string(sh) + ": " : "") +
                    check.summary();
    }
  }

  out.events = cluster.sim().executed_events();
  out.history_ops = history.completed_count();
  out.ops_spanning_crashes = history.ops_spanning_crashes();
  if (!s.crashes.empty()) {
    sig.insert("xcrash:" +
               std::to_string(log2_bucket(out.ops_spanning_crashes)));
  }
  compound_signals(s, sig);
  sig.insert(out.failure.empty()
                 ? "verdict:ok"
                 : "verdict:" + Explorer::failure_class(out.failure));
  out.signals.assign(sig.begin(), sig.end());
  if (trace_out != nullptr) cluster.dump_trace(*trace_out);
  return out;
}

Scenario Explorer::shrink(const Scenario& scenario, const std::string& failure,
                          std::uint32_t* runs_used) {
  Scenario best = scenario;
  const std::string cls = failure_class(failure);
  std::uint32_t used = 0;

  auto reproduces = [&](const Scenario& candidate) {
    if (used >= options_.shrink_budget) return false;
    ++used;
    const RunOutcome outcome = run_scenario(candidate);
    return outcome.failed() && failure_class(outcome.failure) == cls;
  };

  // Single greedy pass, most-structural first. Each accepted edit keeps
  // the failure class reproducing; each rejected edit is rolled back.
  for (std::size_t i = best.clients.size(); i-- > 0;) {
    Scenario candidate = best;
    candidate.clients.erase(candidate.clients.begin() +
                            static_cast<std::ptrdiff_t>(i));
    if (reproduces(candidate)) best = std::move(candidate);
  }
  for (std::size_t i = best.attacks.size(); i-- > 0;) {
    Scenario candidate = best;
    candidate.attacks.erase(candidate.attacks.begin() +
                            static_cast<std::ptrdiff_t>(i));
    if (reproduces(candidate)) best = std::move(candidate);
  }
  for (std::size_t i = best.byz_replicas.size(); i-- > 0;) {
    Scenario candidate = best;
    candidate.byz_replicas.erase(candidate.byz_replicas.begin() +
                                 static_cast<std::ptrdiff_t>(i));
    if (reproduces(candidate)) best = std::move(candidate);
  }
  for (std::size_t i = best.partitions.size(); i-- > 0;) {
    Scenario candidate = best;
    candidate.partitions.erase(candidate.partitions.begin() +
                               static_cast<std::ptrdiff_t>(i));
    if (reproduces(candidate)) best = std::move(candidate);
  }
  for (std::size_t i = best.crashes.size(); i-- > 0;) {
    Scenario candidate = best;
    candidate.crashes.erase(candidate.crashes.begin() +
                            static_cast<std::ptrdiff_t>(i));
    if (reproduces(candidate)) best = std::move(candidate);
  }
  // Ungroup collusion once — if each member replaying independently
  // still reproduces, the coordination is not load-bearing.
  {
    bool grouped = false;
    for (const AttackPlan& a : best.attacks) grouped |= a.collusion_group != 0;
    if (grouped) {
      Scenario candidate = best;
      for (AttackPlan& a : candidate.attacks) a.collusion_group = 0;
      if (reproduces(candidate)) best = std::move(candidate);
    }
  }
  // Halve durations (op counts, stash goals) while it still reproduces.
  while (true) {
    Scenario candidate = best;
    bool any = false;
    for (ClientPlan& plan : candidate.clients) {
      if (plan.ops > 1) {
        plan.ops /= 2;
        if (plan.stop_after_ops >= plan.ops) plan.stop_after_ops = 0;
        any = true;
      }
    }
    for (AttackPlan& plan : candidate.attacks) {
      if (plan.goal > 2) {
        plan.goal /= 2;
        any = true;
      }
    }
    if (!any || !reproduces(candidate)) break;
    best = std::move(candidate);
  }
  // Quiet the link once — noise is rarely load-bearing for a violation.
  if (best.loss > 0 || best.dup > 0 || best.corrupt > 0) {
    Scenario candidate = best;
    candidate.loss = candidate.dup = candidate.corrupt = 0;
    if (reproduces(candidate)) best = std::move(candidate);
  }
  // Collapse to a single group once — a violation that still reproduces
  // without the routing layer is independent of sharding entirely.
  if (best.shards > 1) {
    Scenario candidate = best;
    candidate.shards = 1;
    if (reproduces(candidate)) best = std::move(candidate);
  }
  // Fall back to signature auth once — a violation that survives without
  // MAC authenticators is easier to reason about.
  if (best.mac_auth) {
    Scenario candidate = best;
    candidate.mac_auth = false;
    if (reproduces(candidate)) best = std::move(candidate);
  }

  if (runs_used != nullptr) *runs_used = used;
  return best;
}

Report Explorer::explore() {
  Report report;
  report.seed = options_.seed;
  report.runs = options_.runs;
  report.guided = options_.guided;
  Rng meta(options_.seed);
  CoverageMap coverage;
  Corpus corpus;

  // Initial corpus: scenario JSONs loaded sorted by filename. The first
  // half of the run budget at most is spent replaying them (their
  // coverage re-seeds the map); any surplus joins the corpus unreplayed
  // so mutation can still reach it.
  std::vector<CorpusEntry> seeds;
  if (!options_.corpus_dir.empty()) {
    seeds = Corpus::load_dir(options_.corpus_dir);
  }
  const std::size_t replay_budget =
      std::min<std::size_t>(seeds.size(), options_.runs / 2);
  for (std::size_t k = replay_budget; k < seeds.size(); ++k) {
    corpus.add(seeds[k]);
  }

  for (std::uint32_t i = 0; i < options_.runs; ++i) {
    const std::uint64_t run_seed = meta.next_u64();
    Scenario scenario;
    std::string origin = "sampled";
    if (i < replay_budget) {
      scenario = seeds[i].scenario;
      origin = "corpus";
    } else if (options_.guided && !corpus.empty() && meta.next_bool(0.75)) {
      // Mutate a novelty-weighted corpus pick; half the time splice
      // plans in from a second (donor) entry.
      const CorpusEntry& base = corpus.pick(meta);
      const Scenario* donor = nullptr;
      if (corpus.size() >= 2 && meta.next_bool(0.5)) {
        donor = &corpus.pick(meta).scenario;
      }
      scenario = mutate_scenario(base.scenario, donor, run_seed);
      origin = "mutated";
    } else {
      scenario = Scenario::sample(run_seed);
    }
    RunRecord record;
    record.run = i;
    record.seed = run_seed;
    record.scenario = scenario.name();
    record.origin = origin;
    record.outcome = run_scenario(scenario);
    const std::size_t novel = coverage.absorb(record.outcome.signals);
    record.new_signals = static_cast<std::uint32_t>(novel);
    if (novel > 0) {
      corpus.add({scenario, static_cast<std::uint32_t>(novel)});
    }
    report.coverage_curve.push_back(
        static_cast<std::uint32_t>(coverage.size()));
    if (record.outcome.failed()) {
      ++report.failures;
      std::uint32_t used = 0;
      const Scenario minimal =
          shrink(scenario, record.outcome.failure, &used);
      record.minimal_json = minimal.to_json();
      record.shrink_runs = used;
      if (!options_.artifacts_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(options_.artifacts_dir, ec);
        const std::string base = options_.artifacts_dir + "/scenario_seed" +
                                 std::to_string(run_seed);
        {
          std::ofstream json_out(base + ".json");
          json_out << record.minimal_json << "\n";
        }
        {
          std::ofstream trace(base + ".trace");
          const RunOutcome replay = run_scenario(minimal, &trace);
          trace << "replay failure: "
                << (replay.failed() ? replay.failure : "(did not reproduce)")
                << "\n";
        }
        report.artifact_files.push_back(base + ".json");
        report.artifact_files.push_back(base + ".trace");
      }
    }
    report.records.push_back(std::move(record));
  }
  report.coverage = static_cast<std::uint32_t>(coverage.size());
  report.corpus_size = static_cast<std::uint32_t>(corpus.size());
  report.signals_seen.assign(coverage.seen().begin(), coverage.seen().end());
  if (options_.guided && !options_.corpus_dir.empty()) {
    corpus.save_dir(options_.corpus_dir);
  }
  return report;
}

std::string Report::to_json() const {
  metrics::JsonWriter w;
  w.begin_object();
  w.key("explorer");
  w.begin_object();
  w.key("seed");
  w.value(seed);
  w.key("runs");
  w.value(static_cast<std::uint64_t>(runs));
  w.key("failures");
  w.value(static_cast<std::uint64_t>(failures));
  w.key("guided");
  w.value(guided);
  w.key("coverage");
  w.value(static_cast<std::uint64_t>(coverage));
  w.key("corpus_size");
  w.value(static_cast<std::uint64_t>(corpus_size));
  w.end_object();
  w.key("coverage_curve");
  w.begin_array();
  for (std::uint32_t c : coverage_curve) {
    w.value(static_cast<std::uint64_t>(c));
  }
  w.end_array();
  w.key("signals");
  w.begin_array();
  for (const std::string& s : signals_seen) w.value(s);
  w.end_array();
  w.key("runs_detail");
  w.begin_array();
  for (const RunRecord& r : records) {
    w.begin_object();
    w.key("run");
    w.value(static_cast<std::uint64_t>(r.run));
    w.key("seed");
    w.value(r.seed);
    w.key("scenario");
    w.value(r.scenario);
    w.key("origin");
    w.value(r.origin);
    w.key("new_signals");
    w.value(static_cast<std::uint64_t>(r.new_signals));
    w.key("ok");
    w.value(!r.outcome.failed());
    w.key("completed");
    w.value(r.outcome.completed);
    w.key("events");
    w.value(static_cast<std::uint64_t>(r.outcome.events));
    w.key("ops");
    w.value(static_cast<std::uint64_t>(r.outcome.history_ops));
    w.key("max_lurking");
    w.value(static_cast<std::int64_t>(r.outcome.max_lurking));
    if (r.outcome.vacuous_attacks > 0) {
      w.key("vacuous_attacks");
      w.value(static_cast<std::int64_t>(r.outcome.vacuous_attacks));
    }
    if (r.outcome.ops_spanning_crashes > 0) {
      w.key("ops_spanning_crashes");
      w.value(static_cast<std::uint64_t>(r.outcome.ops_spanning_crashes));
    }
    if (r.outcome.failed()) {
      w.key("failure");
      w.value(r.outcome.failure);
      w.key("shrink_runs");
      w.value(static_cast<std::uint64_t>(r.shrink_runs));
      w.key("minimal");
      w.value(r.minimal_json);
    }
    w.end_object();
  }
  w.end_array();
  w.key("artifacts");
  w.begin_array();
  for (const std::string& file : artifact_files) w.value(file);
  w.end_array();
  w.end_object();
  return std::move(w).take();
}

}  // namespace bftbc::explore
