// E8 — Cost of authentication (paper §3.3.2).
//
// Claims:
//   - public-key signatures are needed only for phase-2/3 responses
//     (statements shown to third parties); everything else can use MACs
//   - only the phase-2 response signature is on the critical path: the
//     phase-3 signature can be computed in the background after phase 2
//
// Six parts:
//   (a) google-benchmark microbenchmarks of the real crypto: RSA-512 /
//       1024 / 2048 sign+verify vs HMAC-SHA256 (the MAC-based authenticator),
//       establishing the gap that motivates the optimization — plus the
//       Montgomery-vs-schoolbook modexp split behind the RSA numbers and
//       the verify cache's hit and miss cost against a full table;
//   (b) a simulated-latency ablation: write latency with foreground vs
//       background phase-3 signing at a realistic 2006-era signing cost;
//   (c) the certificate-verification cache: a repeated-certificate write
//       workload with real RSA signatures, cached vs uncached, reporting
//       sig_cache_hit / sig_cache_miss / sig_verify_calls;
//   (d) verify-pool scaling: wall-clock for one batch of distinct RSA
//       signature checks as worker threads are added;
//   (e) MAC-authenticator mode vs signature mode through the full
//       protocol: RSA verifications per write in each mode;
//   (f) batched certificate validation: one quorum certificate checked
//       through verify_batch, inline vs pooled — the protocol entry
//       point for the part-(d) machinery.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>

#include "crypto/bigint.h"
#include "crypto/hmac.h"
#include "crypto/rsa.h"
#include "crypto/sha256_kernel.h"
#include "crypto/signature.h"
#include "crypto/verify_pool.h"
#include "harness/cluster.h"
#include "harness/table.h"
#include "metrics/bench_report.h"
#include "quorum/certificate.h"

using namespace bftbc;

namespace {

crypto::RsaKeyPair& rsa_key(std::size_t bits) {
  static std::map<std::size_t, crypto::RsaKeyPair> keys;
  auto it = keys.find(bits);
  if (it == keys.end()) {
    Rng rng(4242 + bits);
    it = keys.emplace(bits, crypto::rsa_generate(rng, bits)).first;
  }
  return it->second;
}

const Bytes kStatement = to_bytes(
    "PREPARE-REPLY object=1 ts=<12,3> hash=0123456789abcdef0123456789abcdef");

// Sign and verify through a prebuilt RsaContext, as Keystore does: the
// context's Montgomery constants are per-key set-up, not per-operation
// cost.
void BM_RsaSign(benchmark::State& state) {
  auto& kp = rsa_key(static_cast<std::size_t>(state.range(0)));
  const crypto::RsaContext ctx(kp.priv);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::rsa_sign(kp.priv, ctx, kStatement));
  }
}
BENCHMARK(BM_RsaSign)
    ->Arg(512)
    ->Arg(1024)
    ->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

void BM_RsaVerify(benchmark::State& state) {
  auto& kp = rsa_key(static_cast<std::size_t>(state.range(0)));
  const crypto::RsaContext ctx(kp.pub);
  const Bytes sig = crypto::rsa_sign(kp.priv, kStatement);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::rsa_verify(kp.pub, ctx, kStatement, sig));
  }
}
BENCHMARK(BM_RsaVerify)
    ->Arg(512)
    ->Arg(1024)
    ->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

void BM_HmacAuthenticator(benchmark::State& state) {
  const Bytes key(32, 0x5c);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmac_sha256(key, kStatement));
  }
}
BENCHMARK(BM_HmacAuthenticator)->Unit(benchmark::kMicrosecond);

void BM_Sha256_1KiB(benchmark::State& state) {
  const Bytes data(1024, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(data));
  }
}
BENCHMARK(BM_Sha256_1KiB)->Unit(benchmark::kMicrosecond);

// The modexp engine behind the RSA numbers: full private-exponent
// base^d mod n, Montgomery CIOS vs the schoolbook divmod ladder.
// (rsa_sign itself additionally splits the work with the CRT.)
void BM_ModExp(benchmark::State& state) {
  auto& kp = rsa_key(static_cast<std::size_t>(state.range(0)));
  const bool montgomery = state.range(1) != 0;
  const crypto::BigInt base =
      crypto::BigInt::from_bytes(kStatement) % kp.priv.n;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        montgomery
            ? crypto::BigInt::mod_exp(base, kp.priv.d, kp.priv.n)
            : crypto::BigInt::mod_exp_schoolbook(base, kp.priv.d, kp.priv.n));
  }
  state.SetLabel(montgomery ? "montgomery" : "schoolbook");
}
BENCHMARK(BM_ModExp)
    ->Args({512, 0})
    ->Args({512, 1})
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Unit(benchmark::kMicrosecond);

// ------------------------------------------------------------------
// Part (b): simulated write latency, foreground vs background signing.

double measure_write_latency(bool background_sigs, sim::Time sign_cost,
                             int writes, metrics::BenchReport& report) {
  harness::ClusterOptions o;
  o.seed = 99;
  o.replica.background_write_sigs = background_sigs;
  o.replica.sign_cost = sign_cost;
  o.replica.verify_cost = sign_cost / 20;  // verify ~ e=65537, much cheaper
  harness::Cluster cluster(o);
  auto& c = cluster.add_client(1);
  (void)cluster.write(c, 1, to_bytes("warmup"));

  Summary latency;
  for (int i = 0; i < writes; ++i) {
    const sim::Time start = cluster.sim().now();
    (void)cluster.write(c, 1, to_bytes("v" + std::to_string(i)));
    latency.add(static_cast<double>(cluster.sim().now() - start) /
                sim::kMillisecond);
  }
  report.add_summary(std::string("bg_ablation/") +
                         (background_sigs ? "bg" : "fg") + "_sign_write_ms",
                     latency);
  report.merge(cluster.snapshot_metrics());
  return latency.mean();
}

void report_background_ablation(metrics::BenchReport& report) {
  harness::print_experiment_header(
      "E8(b): background phase-3 signing ablation",
      "the phase-3 response signature can be done in the background after "
      "the phase-2 reply, removing one signing delay from the write path "
      "(3.3.2)");

  harness::Table table({"sign cost (simulated)", "write latency fg-sign (ms)",
                        "write latency bg-sign (ms)", "saved (ms)",
                        "expected saving"});
  const int writes = report.smoke() ? 5 : 20;
  std::vector<sim::Time> costs = {sim::Time{1} * sim::kMillisecond,
                                  sim::Time{5} * sim::kMillisecond,
                                  sim::Time{20} * sim::kMillisecond};
  if (report.smoke()) costs.resize(1);
  for (sim::Time cost : costs) {
    const double fg = measure_write_latency(false, cost, writes, report);
    const double bg = measure_write_latency(true, cost, writes, report);
    report.registry()
        .gauge("bg_ablation/cost" +
               std::to_string(cost / sim::kMillisecond) + "ms/saved_ms")
        .set(fg - bg);
    table.add_row({harness::Table::num(
                       static_cast<double>(cost) / sim::kMillisecond, 0) + "ms",
                   harness::Table::num(fg), harness::Table::num(bg),
                   harness::Table::num(fg - bg),
                   "~1 signing delay (phase 3 off the path)"});
  }
  table.print();
  std::cout << "\n";
}

// ------------------------------------------------------------------
// Part (c): certificate-verification cache, cached vs uncached.

// Microbenchmark: validating one 2f+1-signature RSA certificate with and
// without memoization.
crypto::Keystore& cert_keystore() {
  static crypto::Keystore ks(crypto::SignatureScheme::kRsa, /*seed=*/7,
                             /*rsa_bits=*/512);
  return ks;
}

quorum::PrepareCertificate make_bench_cert(const quorum::QuorumConfig& config) {
  quorum::SignatureSet sigs;
  const quorum::Timestamp ts{1, 1};
  const crypto::Digest h = crypto::sha256(as_bytes_view("hot value"));
  const Bytes stmt = quorum::prepare_reply_statement(1, ts, h);
  for (quorum::ReplicaId r = 0; r < config.q; ++r) {
    sigs[r] = cert_keystore()
                  .register_principal(quorum::replica_principal(r))
                  .sign(stmt)
                  .value();
  }
  return quorum::PrepareCertificate(1, ts, h, std::move(sigs));
}

void BM_CertValidateRsa(benchmark::State& state) {
  const bool cached = state.range(0) != 0;
  const quorum::QuorumConfig config = quorum::QuorumConfig::bft_bc(1);
  crypto::Keystore& ks = cert_keystore();
  static const quorum::PrepareCertificate cert = make_bench_cert(config);
  ks.set_verify_cache_capacity(cached ? crypto::VerifyCache::kDefaultCapacity
                                      : 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cert.validate(config, ks).is_ok());
  }
  state.SetLabel(cached ? "cached" : "uncached");
}
BENCHMARK(BM_CertValidateRsa)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// An HMAC-sim keystore whose verify cache holds its default 64k entries,
// as the live benchmark's replicas do after a few seconds.
struct FullCacheKeystore {
  crypto::Keystore ks{crypto::SignatureScheme::kHmacSim, 77};
  std::vector<Bytes> statements;
  std::vector<Bytes> sigs;

  FullCacheKeystore() {
    const crypto::Signer signer = ks.register_principal(1);
    for (std::size_t i = 0; i < crypto::VerifyCache::kDefaultCapacity; ++i) {
      statements.push_back(to_bytes("PREPARE-REPLY object=" +
                                    std::to_string(i) +
                                    " ts=<12,3> hash=0123456789abcdef"));
      sigs.push_back(signer.sign(statements.back()).value());
      (void)ks.verify_cached(1, statements.back(), sigs.back());
    }
  }
};

// Keystore::verify_cached on HMAC-sim, where the real check it saves is
// cheapest: 0 is the uncached verify (the reference), 1 a hit, 2 a miss
// on a fresh statement whose insert evicts an entry. The miss variant
// evicts the hit variant's entries, so each fills a keystore of its own.
void BM_VerifyCached(benchmark::State& state) {
  static std::map<bool, FullCacheKeystore> keystores;
  const int variant = static_cast<int>(state.range(0));
  FullCacheKeystore& full = keystores.try_emplace(variant == 2).first->second;
  const std::size_t n = full.statements.size();
  Bytes fresh = kStatement;
  std::uint64_t counter = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    // An odd stride visits every entry, in an order unrelated to the
    // slots' insertion order.
    i = (i + 40503) % n;
    if (variant == 0) {
      benchmark::DoNotOptimize(full.ks.verify(1, full.statements[i],
                                              full.sigs[i]));
    } else if (variant == 1) {
      benchmark::DoNotOptimize(full.ks.verify_cached(1, full.statements[i],
                                                     full.sigs[i]));
    } else {
      ++counter;
      std::memcpy(fresh.data() + fresh.size() - sizeof counter, &counter,
                  sizeof counter);
      benchmark::DoNotOptimize(full.ks.verify_cached(1, fresh, full.sigs[i]));
    }
  }
  state.SetLabel(variant == 0 ? "uncached verify"
                              : variant == 1 ? "hit" : "miss");
}
BENCHMARK(BM_VerifyCached)->Arg(0)->Arg(1)->Arg(2);

// Workload report: a client hammering one hot object through the full
// protocol over real RSA-512 signatures. Every write re-shows the same
// transferable certificates (phase-1 replies, PREPARE/WRITE carrying
// them, retransmits), so verification verdicts repeat heavily. The sim
// shares one Keystore across nodes, so this cache behaves like a
// per-process cache warmed by all replicas at once — an upper bound on a
// per-node deployment, but the per-hop repetition it exploits is real.
struct CacheWorkloadStats {
  std::uint64_t rsa_verifies = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

CacheWorkloadStats measure_cache_workload(bool cached, int writes) {
  harness::ClusterOptions o;
  o.seed = 42;
  o.scheme = crypto::SignatureScheme::kRsa;
  o.rsa_bits = 512;
  harness::Cluster cluster(o);
  if (!cached) cluster.keystore().set_verify_cache_capacity(0);
  auto& c = cluster.add_client(1);
  (void)cluster.write(c, 1, to_bytes("warmup"));
  cluster.keystore().reset_counters();

  for (int i = 0; i < writes; ++i) {
    (void)cluster.write(c, 1, to_bytes("v" + std::to_string(i)));
  }
  const Counters& ctr = cluster.keystore().counters();
  return {ctr.get("sig_verify_calls"), ctr.get("sig_cache_hit"),
          ctr.get("sig_cache_miss")};
}

void report_verification_cache(metrics::BenchReport& report) {
  harness::print_experiment_header(
      "E8(c): certificate-verification cache",
      "certificates are transferable proofs re-verified at every hop; "
      "memoizing (principal, statement, signature) verdicts removes the "
      "repeated RSA verifications from the hot path");

  const int kWrites = report.smoke() ? 3 : 10;
  const CacheWorkloadStats uncached = measure_cache_workload(false, kWrites);
  const CacheWorkloadStats cached = measure_cache_workload(true, kWrites);
  // The headline sig-cache counters: the CACHED workload's keystore stats.
  report.counter("sig_cache_hit").set(cached.hits);
  report.counter("sig_cache_miss").set(cached.misses);
  report.counter("sig_verify_calls").set(cached.rsa_verifies);
  report.counter("uncached_sig_verify_calls").set(uncached.rsa_verifies);

  harness::Table table({"mode", "writes (hot object)", "RSA verify calls",
                        "sig_cache_hit", "sig_cache_miss",
                        "verify calls / write"});
  table.add_row({"uncached", std::to_string(kWrites),
                 std::to_string(uncached.rsa_verifies),
                 std::to_string(uncached.hits),
                 std::to_string(uncached.misses),
                 harness::Table::num(static_cast<double>(uncached.rsa_verifies) /
                                     kWrites)});
  table.add_row({"cached", std::to_string(kWrites),
                 std::to_string(cached.rsa_verifies),
                 std::to_string(cached.hits), std::to_string(cached.misses),
                 harness::Table::num(static_cast<double>(cached.rsa_verifies) /
                                     kWrites)});
  table.print();
  const double reduction =
      cached.rsa_verifies == 0
          ? 0.0
          : static_cast<double>(uncached.rsa_verifies) /
                static_cast<double>(cached.rsa_verifies);
  std::cout << "RSA verify-call reduction: "
            << harness::Table::num(reduction, 1) << "x\n\n";
}

// ------------------------------------------------------------------
// Part (d): verify-pool scaling — one batch of distinct RSA checks.

void report_verify_pool(metrics::BenchReport& report) {
  harness::print_experiment_header(
      "E8(d): threaded verification pool",
      "a batch of independent signature checks is embarrassingly "
      "parallel; the keystore fans the cryptographic pass of "
      "verify_batch across a worker pool");

  const std::size_t batch = report.smoke() ? 8 : 48;
  const std::size_t q = quorum::QuorumConfig::bft_bc(1).n;
  crypto::Keystore ks(crypto::SignatureScheme::kRsa, /*seed=*/17,
                      /*rsa_bits=*/512);
  std::vector<crypto::Keystore::VerifyItem> base;
  for (std::size_t i = 0; i < batch; ++i) {
    const crypto::PrincipalId p =
        quorum::replica_principal(static_cast<quorum::ReplicaId>(i % q));
    crypto::Keystore::VerifyItem item;
    item.principal = p;
    item.statement = to_bytes("pool-stmt-" + std::to_string(i));
    item.sig = ks.register_principal(p).sign(item.statement).value();
    base.push_back(std::move(item));
  }
  // Every run must do the real crypto: no memoized verdicts.
  ks.set_verify_cache_capacity(0);

  harness::Table table({"threads", "batch", "wall time (ms)", "speedup"});
  double baseline_ms = 0;
  // Full mode covers the whole scaling ladder the nightly pool-scaling
  // job charts; smoke keeps the inline baseline plus one threaded point.
  std::vector<std::size_t> thread_counts{0, 2, 4, 8};
  if (report.smoke()) thread_counts.resize(2);
  for (std::size_t threads : thread_counts) {
    std::unique_ptr<crypto::VerifyPool> pool;
    if (threads > 0) {
      pool = std::make_unique<crypto::VerifyPool>(threads);
      ks.set_verify_pool(pool.get());
    } else {
      ks.set_verify_pool(nullptr);
    }
    auto items = base;
    const auto start = std::chrono::steady_clock::now();
    const std::size_t checks = ks.verify_batch(items);
    const auto stop = std::chrono::steady_clock::now();
    ks.set_verify_pool(nullptr);
    const double ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    if (threads == 0) baseline_ms = ms;
    for (const auto& item : items) {
      if (!item.valid) {
        std::cout << "verify_pool: UNEXPECTED invalid verdict\n";
        return;
      }
    }
    const double speedup = ms > 0 ? baseline_ms / ms : 0.0;
    report.registry()
        .gauge("verify_pool/threads" + std::to_string(threads) + "_ms")
        .set(ms);
    if (threads > 0) {
      report.registry()
          .gauge("verify_pool/threads" + std::to_string(threads) + "_speedup")
          .set(speedup);
    }
    table.add_row({std::to_string(threads) + (threads == 0 ? " (inline)" : ""),
                   std::to_string(checks), harness::Table::num(ms),
                   harness::Table::num(speedup, 2) + "x"});
  }
  table.print();
  std::cout << "\n";
}

// ------------------------------------------------------------------
// Part (f): batched certificate validation — a whole 2f+1-signature
// quorum certificate checked through Keystore::verify_batch, inline vs
// pooled. Unlike part (d)'s raw batch, this measures the protocol's own
// entry point (PrepareCertificate::validate), which chunks the quorum's
// signatures into one batch per pass so the early-exit-at-quorum
// property is preserved while the cryptographic work still fans out.

void report_batched_cert_validation(metrics::BenchReport& report) {
  harness::print_experiment_header(
      "E8(f): batched certificate validation",
      "certificate validation hands the quorum's signatures to "
      "verify_batch in one chunk; with workers attached, the 2f+1 RSA "
      "checks of a single certificate run concurrently instead of "
      "sequentially");

  const std::uint32_t f = report.smoke() ? 1 : 5;
  const quorum::QuorumConfig config = quorum::QuorumConfig::bft_bc(f);
  crypto::Keystore ks(crypto::SignatureScheme::kRsa, /*seed=*/29,
                      /*rsa_bits=*/512);
  quorum::SignatureSet sigs;
  const quorum::Timestamp ts{2, 1};
  const crypto::Digest h = crypto::sha256(as_bytes_view("batched value"));
  const Bytes stmt = quorum::prepare_reply_statement(1, ts, h);
  for (quorum::ReplicaId r = 0; r < config.q; ++r) {
    sigs[r] = ks.register_principal(quorum::replica_principal(r))
                  .sign(stmt)
                  .value();
  }
  const quorum::PrepareCertificate cert(1, ts, h, std::move(sigs));
  // Every validation must do the real crypto: no memoized verdicts.
  ks.set_verify_cache_capacity(0);

  const int iters = report.smoke() ? 2 : 10;
  harness::Table table({"threads", "sigs/cert", "per validate (ms)",
                        "speedup"});
  double baseline_ms = 0;
  std::vector<std::size_t> thread_counts{0, 2, 4};
  if (report.smoke()) thread_counts.resize(2);
  for (std::size_t threads : thread_counts) {
    std::unique_ptr<crypto::VerifyPool> pool;
    if (threads > 0) {
      pool = std::make_unique<crypto::VerifyPool>(threads);
      ks.set_verify_pool(pool.get());
    }
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      if (!cert.validate(config, ks).is_ok()) {
        std::cout << "cert_batch: UNEXPECTED invalid certificate\n";
        return;
      }
    }
    const auto stop = std::chrono::steady_clock::now();
    ks.set_verify_pool(nullptr);
    const double ms =
        std::chrono::duration<double, std::milli>(stop - start).count() /
        iters;
    if (threads == 0) baseline_ms = ms;
    const double speedup = ms > 0 ? baseline_ms / ms : 0.0;
    report.registry()
        .gauge("cert_batch/threads" + std::to_string(threads) + "_ms")
        .set(ms);
    if (threads > 0) {
      report.registry()
          .gauge("cert_batch/threads" + std::to_string(threads) + "_speedup")
          .set(speedup);
    }
    table.add_row({std::to_string(threads) + (threads == 0 ? " (inline)" : ""),
                   std::to_string(config.q), harness::Table::num(ms),
                   harness::Table::num(speedup, 2) + "x"});
  }
  table.print();
  std::cout << "\n";
}

// ------------------------------------------------------------------
// Part (e): MAC-authenticator mode vs signature mode, full protocol.

struct AuthModeStats {
  std::uint64_t sig_verifies = 0;
  std::uint64_t signs = 0;
  std::uint64_t mac_signs = 0;
  std::uint64_t mac_verifies = 0;
};

AuthModeStats measure_auth_mode(bool mac_auth, int writes) {
  harness::ClusterOptions o;
  o.seed = 77;
  o.scheme = crypto::SignatureScheme::kRsa;
  o.rsa_bits = 512;
  o.mac_auth = mac_auth;
  harness::Cluster cluster(o);
  // Verify cache at its default capacity: the comparison is between the
  // two modes as deployed, where memoization already absorbs repeated
  // certificate checks and the remaining RSA work is what each mode
  // genuinely demands per write.
  auto& c = cluster.add_client(1);
  (void)cluster.write(c, 1, to_bytes("warmup"));
  cluster.keystore().reset_counters();

  for (int i = 0; i < writes; ++i) {
    (void)cluster.write(c, 1, to_bytes("v" + std::to_string(i)));
  }
  const Counters& ctr = cluster.keystore().counters();
  return {ctr.get("sig_verify_calls"), ctr.get("sign"), ctr.get("mac_sign"),
          ctr.get("mac_verify")};
}

void report_auth_modes(metrics::BenchReport& report) {
  harness::print_experiment_header(
      "E8(e): MAC-authenticator mode vs signature mode",
      "point-to-point requests and replies carry MACs; RSA signatures "
      "remain only on the certificate statements third parties must "
      "check (3.3.2)");

  const int writes = report.smoke() ? 3 : 10;
  const AuthModeStats sig = measure_auth_mode(false, writes);
  const AuthModeStats mac = measure_auth_mode(true, writes);

  const double sig_per_write =
      static_cast<double>(sig.sig_verifies) / writes;
  const double mac_per_write =
      static_cast<double>(mac.sig_verifies) / writes;
  report.counter("authmode_sig_verify_calls").set(sig.sig_verifies);
  report.counter("authmode_mac_sig_verify_calls").set(mac.sig_verifies);
  report.counter("mac_sign").set(mac.mac_signs);
  report.counter("mac_verify").set(mac.mac_verifies);
  report.registry().gauge("auth_mode/sig/verify_per_write").set(sig_per_write);
  report.registry().gauge("auth_mode/mac/verify_per_write").set(mac_per_write);

  harness::Table table({"auth mode", "writes", "RSA verifies", "RSA signs",
                        "mac_sign", "mac_verify", "RSA verifies / write"});
  table.add_row({"sig", std::to_string(writes),
                 std::to_string(sig.sig_verifies), std::to_string(sig.signs),
                 std::to_string(sig.mac_signs),
                 std::to_string(sig.mac_verifies),
                 harness::Table::num(sig_per_write)});
  table.add_row({"mac", std::to_string(writes),
                 std::to_string(mac.sig_verifies), std::to_string(mac.signs),
                 std::to_string(mac.mac_signs),
                 std::to_string(mac.mac_verifies),
                 harness::Table::num(mac_per_write)});
  table.print();
  std::cout << "RSA verifications per write, sig -> mac: "
            << harness::Table::num(sig_per_write) << " -> "
            << harness::Table::num(mac_per_write) << "\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  metrics::BenchArgs args = metrics::parse_bench_args(argc, argv);
  metrics::BenchReport report("bench_auth_cost", args);
  // The same binary hashes through a different SHA-256 kernel on hosts
  // with and without the SHA extensions, so every run says which it had.
  const std::string kernel_name = crypto::sha256_kernel::active_name();
  report.set_config("sha256_kernel", kernel_name);

  report_background_ablation(report);
  report_verification_cache(report);
  report_verify_pool(report);
  report_batched_cert_validation(report);
  report_auth_modes(report);

  harness::print_experiment_header(
      "E8(a): raw authentication costs",
      "public-key signatures are orders of magnitude more expensive than "
      "the MAC authenticators usable for point-to-point replies (3.3.2)");
  std::cout << "SHA-256 kernel: " << kernel_name << "\n\n";
  std::vector<char*> bench_argv(args.argv, args.argv + args.argc);
  std::string min_time = "--benchmark_min_time=0.001";
  if (report.smoke()) bench_argv.push_back(min_time.data());
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  benchmark::RunSpecifiedBenchmarks();
  return report.finish();
}
