// Multi-threaded smoke test for the components shared across real
// threads: the keystore's signature-verification cache, the metrics
// registry's resolve/fold/emit surface, and the logger sink.
//
// The simulator core stays single-threaded; these are the pieces the
// threading contract (src/util/thread_annotations.h annotations) allows
// concurrent callers on. The test's job is to give ThreadSanitizer
// (BFTBC_TSAN / the `tsan` preset) real interleavings to check —
// concurrent cache hits+misses+CLOCK eviction, a mid-run revocation purge,
// parallel metric folds into one shared registry while another thread
// snapshots JSON — and to assert the results are still correct, not just
// race-free.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "crypto/signature.h"
#include "metrics/registry.h"
#include "util/log.h"
#include "util/stats.h"

namespace bftbc {
namespace {

constexpr int kThreads = 4;
constexpr int kItersPerThread = 2000;

TEST(ThreadedSmokeTest, ConcurrentCachedVerifies) {
  crypto::Keystore ks(crypto::SignatureScheme::kHmacSim, /*seed=*/42);
  // 64 distinct keys (4 principals x 8 statements x good/bad signature)
  // in 16 slots: constant CLOCK eviction under load, so evictions race
  // lookups, inserts and the purge.
  ks.set_verify_cache_capacity(16);

  struct Fixture {
    crypto::PrincipalId principal;
    Bytes msg;
    Bytes good_sig;
    Bytes bad_sig;
  };
  std::vector<Fixture> fixtures;
  for (crypto::PrincipalId p = 1; p <= 4; ++p) {
    crypto::Signer signer = ks.register_principal(p);
    for (int m = 0; m < 8; ++m) {
      Fixture f;
      f.principal = p;
      f.msg = to_bytes("stmt-" + std::to_string(p) + "-" + std::to_string(m));
      auto sig = signer.sign(f.msg);
      ASSERT_TRUE(sig.is_ok());
      f.good_sig = std::move(sig).take();
      f.bad_sig = f.good_sig;
      f.bad_sig[0] ^= 0xff;
      fixtures.push_back(std::move(f));
    }
  }

  std::atomic<int> wrong_verdicts{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        const Fixture& f =
            fixtures[static_cast<std::size_t>(t * 31 + i) % fixtures.size()];
        const bool use_bad = ((t + i) % 3) == 0;
        const bool verdict = ks.verify_cached(
            f.principal, f.msg, use_bad ? f.bad_sig : f.good_sig);
        if (verdict == use_bad) wrong_verdicts.fetch_add(1);
      }
    });
  }
  // One extra thread revokes a principal mid-run: the purge must
  // interleave safely with lookups and inserts.
  threads.emplace_back([&] { ks.revoke(4); });
  for (auto& th : threads) th.join();

  EXPECT_EQ(wrong_verdicts.load(), 0);
  // Every call is either a hit or a miss; none may be lost.
  const auto& counts = ks.counters().all();
  const std::uint64_t hits =
      counts.count("sig_cache_hit") ? counts.at("sig_cache_hit") : 0;
  const std::uint64_t misses =
      counts.count("sig_cache_miss") ? counts.at("sig_cache_miss") : 0;
  EXPECT_EQ(hits + misses,
            static_cast<std::uint64_t>(kThreads) * kItersPerThread);
  // More misses than distinct keys: entries really were evicted and
  // looked up again.
  EXPECT_GT(misses, fixtures.size() * 2);
  EXPECT_LE(ks.verify_cache().size(), 16u);
}

TEST(ThreadedSmokeTest, ConcurrentMetricFolds) {
  metrics::MetricsRegistry reg;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each worker folds its own cumulative counters into a private
      // scope, re-snapshotting as the run progresses (exactly what the
      // harness does per cluster) — plus everyone hammers one shared
      // name to contend on resolution.
      Counters local;
      for (int i = 0; i < kItersPerThread; ++i) {
        local.inc("ops");
        if (i % 5 == 0) local.inc("checkpoints");
        reg.fold_counters("worker/" + std::to_string(t), local);
        reg.counter("shared/resolutions");
      }
    });
  }
  // A reader thread repeatedly serializes the registry while the folds
  // are in flight; the JSON must always be well-formed (non-empty, no
  // torn index state — TSan checks the rest).
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load()) {
      const std::string json = reg.to_json();
      ASSERT_FALSE(json.empty());
    }
  });
  for (auto& th : threads) th.join();
  done.store(true);
  reader.join();

  for (int t = 0; t < kThreads; ++t) {
    const std::string scope = "worker/" + std::to_string(t);
    EXPECT_EQ(reg.counter(scope + "/ops").value,
              static_cast<std::uint64_t>(kItersPerThread));
    EXPECT_EQ(reg.counter(scope + "/checkpoints").value,
              static_cast<std::uint64_t>(kItersPerThread) / 5);
  }
}

TEST(ThreadedSmokeTest, ConcurrentRegistryMerges) {
  // Bench reports merge per-cluster registries into one; do it from many
  // threads at once.
  metrics::MetricsRegistry sink;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        metrics::MetricsRegistry part;
        part.counter("merged/total").inc(1);
        part.counter("merged/per_thread_" + std::to_string(t)).inc(1);
        part.summary("lat_ms").add(static_cast<double>(i));
        sink.merge(part);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(sink.counter("merged/total").value,
            static_cast<std::uint64_t>(kThreads) * 200);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(sink.counter("merged/per_thread_" + std::to_string(t)).value,
              200u);
  }
}

TEST(ThreadedSmokeTest, ConcurrentLogEmission) {
  // The sink mutex must serialize emission and time-source swaps. Keep
  // the level at kOff so the suite stays quiet; LogLine still evaluates
  // the level check on every call from every thread.
  const LogLevel prev = log_level();
  set_log_level(LogLevel::kOff);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < 500; ++i) {
        BFTBC_LOG(kDebug) << "thread " << t << " line " << i;
        if (i % 100 == 0) {
          set_log_time_source([] { return std::uint64_t{7}; });
          clear_log_time_source();
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  set_log_level(prev);
  SUCCEED();
}

}  // namespace
}  // namespace bftbc
