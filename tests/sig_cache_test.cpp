// Signature-verification cache: LRU mechanics, memoized keystore
// verification, certificate-validation integration, and the mandatory
// invalidation of a principal's entries when its key is revoked (the
// paper's "stop" event, reached through Recorder::stop_client).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "checker/history.h"
#include "crypto/verify_cache.h"
#include "harness/cluster.h"
#include "harness/recording.h"
#include "quorum/certificate.h"

namespace bftbc {
namespace {

using crypto::Keystore;
using crypto::SignatureScheme;
using crypto::VerifyCache;

// ------------------------------------------------------------ raw LRU

TEST(VerifyCacheTest, LookupMissThenHit) {
  VerifyCache cache(4);
  const auto key = VerifyCache::make_key(1, to_bytes("stmt"), to_bytes("sig"));
  EXPECT_EQ(cache.lookup(key), -1);
  cache.insert(key, true);
  EXPECT_EQ(cache.lookup(key), 1);
  cache.insert(key, false);  // re-insert updates the verdict
  EXPECT_EQ(cache.lookup(key), 0);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(VerifyCacheTest, DistinctInputsDistinctKeys) {
  // Any change to principal, statement, or signature is a different key.
  const auto base = VerifyCache::make_key(1, to_bytes("s"), to_bytes("g"));
  EXPECT_FALSE(base == VerifyCache::make_key(2, to_bytes("s"), to_bytes("g")));
  EXPECT_FALSE(base == VerifyCache::make_key(1, to_bytes("x"), to_bytes("g")));
  EXPECT_FALSE(base == VerifyCache::make_key(1, to_bytes("s"), to_bytes("y")));
  EXPECT_TRUE(base == VerifyCache::make_key(1, to_bytes("s"), to_bytes("g")));
}

TEST(VerifyCacheTest, EvictsLeastRecentlyUsed) {
  VerifyCache cache(2);
  const auto a = VerifyCache::make_key(1, to_bytes("a"), to_bytes("s"));
  const auto b = VerifyCache::make_key(1, to_bytes("b"), to_bytes("s"));
  const auto c = VerifyCache::make_key(1, to_bytes("c"), to_bytes("s"));
  cache.insert(a, true);
  cache.insert(b, true);
  EXPECT_EQ(cache.lookup(a), 1);  // refresh a; b is now LRU
  cache.insert(c, true);          // evicts b
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.lookup(b), -1);
  EXPECT_EQ(cache.lookup(a), 1);
  EXPECT_EQ(cache.lookup(c), 1);
}

TEST(VerifyCacheTest, ZeroCapacityDisables) {
  VerifyCache cache(0);
  const auto key = VerifyCache::make_key(1, to_bytes("s"), to_bytes("g"));
  cache.insert(key, true);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.lookup(key), -1);
}

TEST(VerifyCacheTest, ShrinkingCapacityEvicts) {
  VerifyCache cache(8);
  for (std::uint32_t i = 0; i < 8; ++i) {
    cache.insert(VerifyCache::make_key(i, to_bytes("s"), to_bytes("g")), true);
  }
  cache.set_capacity(3);
  EXPECT_EQ(cache.size(), 3u);
  // The three most recently inserted principals survive.
  for (std::uint32_t i = 5; i < 8; ++i) {
    EXPECT_EQ(
        cache.lookup(VerifyCache::make_key(i, to_bytes("s"), to_bytes("g"))),
        1);
  }
}

TEST(VerifyCacheTest, PurgePrincipalDropsOnlyThatPrincipal) {
  VerifyCache cache(16);
  for (std::uint32_t p = 0; p < 4; ++p) {
    cache.insert(VerifyCache::make_key(p, to_bytes("s1"), to_bytes("g")), true);
    cache.insert(VerifyCache::make_key(p, to_bytes("s2"), to_bytes("g")), true);
  }
  cache.purge_principal(2);
  EXPECT_EQ(cache.size(), 6u);
  EXPECT_EQ(cache.lookup(VerifyCache::make_key(2, to_bytes("s1"),
                                               to_bytes("g"))), -1);
  EXPECT_EQ(cache.lookup(VerifyCache::make_key(1, to_bytes("s1"),
                                               to_bytes("g"))), 1);
}

// ------------------------------------------------------- keystore memo

class KeystoreCacheTest : public ::testing::TestWithParam<SignatureScheme> {
 protected:
  Keystore ks_{GetParam(), /*seed=*/11, /*rsa_bits=*/512};
};

TEST_P(KeystoreCacheTest, HitSkipsCryptographicVerify) {
  ks_.set_verify_cache_capacity(VerifyCache::kDefaultCapacity);
  crypto::Signer s = ks_.register_principal(3);
  const Bytes msg = to_bytes("PREPARE-REPLY ts=<1,3>");
  const Bytes sig = s.sign(msg).value();
  ks_.reset_counters();

  EXPECT_TRUE(ks_.verify_cached(3, msg, sig));
  EXPECT_EQ(ks_.counters().get("sig_cache_miss"), 1u);
  EXPECT_EQ(ks_.counters().get("sig_verify_calls"), 1u);

  for (int i = 0; i < 5; ++i) EXPECT_TRUE(ks_.verify_cached(3, msg, sig));
  EXPECT_EQ(ks_.counters().get("sig_cache_hit"), 5u);
  // The expensive check ran exactly once.
  EXPECT_EQ(ks_.counters().get("sig_verify_calls"), 1u);
}

TEST_P(KeystoreCacheTest, NegativeVerdictsAreCachedToo) {
  ks_.set_verify_cache_capacity(VerifyCache::kDefaultCapacity);
  ks_.register_principal(4);
  const Bytes msg = to_bytes("statement");
  const Bytes garbage(ks_.signature_size(), 0x5a);
  ks_.reset_counters();

  EXPECT_FALSE(ks_.verify_cached(4, msg, garbage));
  EXPECT_FALSE(ks_.verify_cached(4, msg, garbage));
  EXPECT_EQ(ks_.counters().get("sig_cache_hit"), 1u);
  EXPECT_EQ(ks_.counters().get("sig_verify_calls"), 1u);
}

TEST_P(KeystoreCacheTest, UnknownPrincipalNotCached) {
  ks_.reset_counters();
  EXPECT_FALSE(ks_.verify_cached(77, to_bytes("m"), Bytes(32, 0)));
  // No cache traffic: a later registration must not see a stale verdict.
  EXPECT_EQ(ks_.counters().get("sig_cache_miss"), 0u);
  EXPECT_EQ(ks_.verify_cache().size(), 0u);

  crypto::Signer s = ks_.register_principal(77);
  const Bytes sig = s.sign(to_bytes("m")).value();
  EXPECT_TRUE(ks_.verify_cached(77, to_bytes("m"), sig));
}

TEST_P(KeystoreCacheTest, ZeroCapacityFallsBackToRealVerify) {
  crypto::Signer s = ks_.register_principal(5);
  const Bytes msg = to_bytes("m");
  const Bytes sig = s.sign(msg).value();
  ks_.set_verify_cache_capacity(0);
  ks_.reset_counters();

  EXPECT_TRUE(ks_.verify_cached(5, msg, sig));
  EXPECT_TRUE(ks_.verify_cached(5, msg, sig));
  EXPECT_EQ(ks_.counters().get("sig_cache_hit"), 0u);
  EXPECT_EQ(ks_.counters().get("sig_verify_calls"), 2u);
}

TEST_P(KeystoreCacheTest, RevocationPurgesPrincipalEntries) {
  ks_.set_verify_cache_capacity(VerifyCache::kDefaultCapacity);
  crypto::Signer s = ks_.register_principal(6);
  crypto::Signer other = ks_.register_principal(7);
  const Bytes msg = to_bytes("pre-stop statement");
  const Bytes sig = s.sign(msg).value();
  const Bytes other_sig = other.sign(msg).value();

  EXPECT_TRUE(ks_.verify_cached(6, msg, sig));
  EXPECT_TRUE(ks_.verify_cached(7, msg, other_sig));
  EXPECT_EQ(ks_.verify_cache().size(), 2u);

  ks_.revoke(6);
  // The stopped principal's entries are gone; the bystander's survive.
  EXPECT_EQ(ks_.verify_cache().size(), 1u);

  ks_.reset_counters();
  // Old signatures still verify after revocation (replays are allowed by
  // the model) — but through a fresh cryptographic check, not the cache.
  EXPECT_TRUE(ks_.verify_cached(6, msg, sig));
  EXPECT_EQ(ks_.counters().get("sig_cache_miss"), 1u);
  EXPECT_EQ(ks_.counters().get("sig_cache_hit"), 0u);
  EXPECT_EQ(ks_.counters().get("sig_verify_calls"), 1u);
}

TEST_P(KeystoreCacheTest, CachedVerifiesCycleThroughSmallCache) {
  // 64 distinct keys (4 principals x 8 statements x good/bad signature)
  // in 16 slots, so entries keep being evicted and looked up again.
  constexpr std::size_t kCapacity = 16;
  constexpr int kCalls = 4000;
  ks_.set_verify_cache_capacity(kCapacity);
  struct Fixture {
    crypto::PrincipalId principal;
    Bytes msg;
    Bytes good_sig;
    Bytes bad_sig;
  };
  std::vector<Fixture> fixtures;
  for (crypto::PrincipalId p = 1; p <= 4; ++p) {
    const crypto::Signer signer = ks_.register_principal(p);
    for (int m = 0; m < 8; ++m) {
      Fixture f;
      f.principal = p;
      f.msg = to_bytes("stmt-" + std::to_string(p) + "-" + std::to_string(m));
      f.good_sig = signer.sign(f.msg).value();
      f.bad_sig = f.good_sig;
      f.bad_sig[0] ^= 0xff;
      fixtures.push_back(std::move(f));
    }
  }
  ks_.reset_counters();

  for (int i = 0; i < kCalls; ++i) {
    // Old signatures still verify after the stop event.
    if (i == kCalls / 2) ks_.revoke(4);
    const Fixture& f = fixtures[static_cast<std::size_t>(i) % fixtures.size()];
    const bool use_bad = i % 3 == 0;
    EXPECT_EQ(ks_.verify_cached(f.principal, f.msg,
                                use_bad ? f.bad_sig : f.good_sig),
              !use_bad)
        << i;
    ASSERT_LE(ks_.verify_cache().size(), kCapacity) << i;
  }
  const std::uint64_t hits = ks_.counters().get("sig_cache_hit");
  const std::uint64_t misses = ks_.counters().get("sig_cache_miss");
  EXPECT_EQ(hits + misses, static_cast<std::uint64_t>(kCalls));
  // More misses than distinct keys: evicted entries were missed again.
  EXPECT_GT(misses, fixtures.size() * 2);
}

// The cache is on by default only for RSA: an HMAC-sim verify costs
// about what computing a cache key does, so an HMAC-sim keystore starts
// with capacity 0 and verify_cached goes straight to verify.
TEST(KeystoreCacheDefaultTest, HmacSimStartsWithCacheOff) {
  Keystore ks(SignatureScheme::kHmacSim, 13);
  EXPECT_EQ(ks.verify_cache().capacity(), 0u);
  crypto::Signer s = ks.register_principal(3);
  const Bytes msg = to_bytes("statement");
  const Bytes sig = s.sign(msg).value();
  Bytes garbage = sig;
  garbage[0] ^= 0xff;
  ks.reset_counters();

  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(ks.verify_cached(3, msg, sig));
    EXPECT_FALSE(ks.verify_cached(3, msg, garbage));
  }
  // Every call ran the real check and counted as a miss; nothing was
  // stored.
  EXPECT_EQ(ks.counters().get("sig_verify_calls"), 8u);
  EXPECT_EQ(ks.counters().get("sig_cache_miss"), 8u);
  EXPECT_EQ(ks.counters().get("sig_cache_hit"), 0u);
  EXPECT_EQ(ks.verify_cache().size(), 0u);
}

TEST(KeystoreCacheDefaultTest, RsaStartsWithDefaultCapacity) {
  Keystore ks(SignatureScheme::kRsa, 13, /*rsa_bits=*/512);
  EXPECT_EQ(ks.verify_cache().capacity(), VerifyCache::kDefaultCapacity);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, KeystoreCacheTest,
                         ::testing::Values(SignatureScheme::kHmacSim,
                                           SignatureScheme::kRsa),
                         [](const auto& info) {
                           return info.param == SignatureScheme::kHmacSim
                                      ? "HmacSim"
                                      : "Rsa";
                         });

// ----------------------------------------------- certificate integration

TEST(CertificateCacheTest, RepeatedValidationHitsCache) {
  const quorum::QuorumConfig config = quorum::QuorumConfig::bft_bc(1);
  Keystore ks(SignatureScheme::kHmacSim, 21);
  ks.set_verify_cache_capacity(VerifyCache::kDefaultCapacity);
  quorum::SignatureSet sigs;
  const quorum::Timestamp ts{1, 1};
  const crypto::Digest h = crypto::sha256(as_bytes_view("value"));
  const Bytes stmt = quorum::prepare_reply_statement(9, ts, h);
  for (quorum::ReplicaId r = 0; r < config.q; ++r) {
    sigs[r] = ks.register_principal(quorum::replica_principal(r))
                  .sign(stmt)
                  .value();
  }
  const quorum::PrepareCertificate cert(9, ts, h, std::move(sigs));

  ks.reset_counters();
  EXPECT_TRUE(cert.validate(config, ks).is_ok());
  EXPECT_EQ(ks.counters().get("sig_verify_calls"), config.q);

  // Re-validating the same transferable proof costs zero crypto.
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(cert.validate(config, ks).is_ok());
  EXPECT_EQ(ks.counters().get("sig_verify_calls"), config.q);
  EXPECT_EQ(ks.counters().get("sig_cache_hit"), 4u * config.q);
}

TEST(CertificateCacheTest, EarlyExitStopsAtQuorum) {
  // With all n = 4 signatures present and q = 3, validation confirms the
  // first three (map order) and never verifies the fourth.
  const quorum::QuorumConfig config = quorum::QuorumConfig::bft_bc(1);
  Keystore ks(SignatureScheme::kHmacSim, 22);
  quorum::SignatureSet sigs;
  const quorum::Timestamp ts{2, 1};
  const Bytes stmt = quorum::write_reply_statement(3, ts);
  for (quorum::ReplicaId r = 0; r < config.n; ++r) {
    sigs[r] = ks.register_principal(quorum::replica_principal(r))
                  .sign(stmt)
                  .value();
  }
  const quorum::WriteCertificate cert(3, ts, std::move(sigs));
  ks.reset_counters();
  EXPECT_TRUE(cert.validate(config, ks).is_ok());
  EXPECT_EQ(ks.counters().get("sig_verify_calls"), config.q);
}

// --------------------------------------------- stop-event invalidation

TEST(StopClientCacheTest, StopClientPurgesCachedVerifications) {
  harness::Cluster cluster;
  cluster.keystore().set_verify_cache_capacity(VerifyCache::kDefaultCapacity);
  checker::History history;
  harness::Recorder rec(cluster, history);
  auto& c1 = cluster.add_client(7);
  ASSERT_TRUE(rec.write(c1, 1, to_bytes("v1")).is_ok());

  // Cache a verification verdict for the client's principal (the signer
  // handle is the idempotent registration of the same key).
  Keystore& ks = cluster.keystore();
  crypto::Signer handle =
      ks.register_principal(quorum::client_principal(7));
  const Bytes stmt = to_bytes("pre-stop client statement");
  const Bytes sig = handle.sign(stmt).value();
  EXPECT_TRUE(ks.verify_cached(quorum::client_principal(7), stmt, sig));
  ks.reset_counters();
  EXPECT_TRUE(ks.verify_cached(quorum::client_principal(7), stmt, sig));
  EXPECT_EQ(ks.counters().get("sig_cache_hit"), 1u);
  const std::size_t entries_before = ks.verify_cache().size();
  ASSERT_GT(entries_before, 0u);

  // The administrator stops the client: key revoked, ACL entry removed,
  // and every cached verdict for the principal dropped.
  rec.stop_client(7);
  EXPECT_TRUE(ks.is_revoked(quorum::client_principal(7)));
  EXPECT_LT(ks.verify_cache().size(), entries_before);

  ks.reset_counters();
  // Post-stop, the same check is a miss (re-verified cryptographically),
  // never a hit served from stale memoization.
  EXPECT_TRUE(ks.verify_cached(quorum::client_principal(7), stmt, sig));
  EXPECT_EQ(ks.counters().get("sig_cache_hit"), 0u);
  EXPECT_EQ(ks.counters().get("sig_cache_miss"), 1u);

  // And the stopped client can no longer mint anything new to cache.
  EXPECT_FALSE(handle.sign(to_bytes("post-stop")).is_ok());
}

TEST(StopClientCacheTest, PoisonedCertificateAcceptedInLiveCluster) {
  // End-to-end regression for the quorum-counting fix: a write-back of a
  // certificate carrying one garbage signature alongside a valid quorum
  // must still be accepted by replicas.
  harness::Cluster cluster;
  auto& c1 = cluster.add_client(1);
  ASSERT_TRUE(cluster.write(c1, 5, to_bytes("v")).is_ok());

  // Grab the replicas' current prepare certificate and poison it.
  auto pcert = cluster.replica(0).object(5).pcert();
  quorum::SignatureSet sigs = pcert.signatures().to_set();
  ASSERT_GE(sigs.size(), cluster.config().q);
  quorum::ReplicaId rider = 0;  // first replica id not already signing
  while (sigs.count(rider) != 0) ++rider;
  sigs[rider] = to_bytes("byzantine garbage rider");
  const quorum::PrepareCertificate poisoned(pcert.object(), pcert.ts(),
                                            pcert.hash(), std::move(sigs));
  EXPECT_TRUE(poisoned.validate(cluster.config(), cluster.keystore()).is_ok());
}

// ------------------------------------------- batched replica signatures

TEST(BatchedReplicaSignatureTest, OneFlushSharesARootAcrossCertificates) {
  // A replica answers a PREPARE and presigns its WRITE-REPLY in the same
  // flush, so its PREPARE-REPLY and WRITE-REPLY signatures come from one
  // RSA signature over one root, and a validator pays one RSA verify per
  // replica for both certificates.
  harness::ClusterOptions o;
  o.scheme = SignatureScheme::kRsa;
  o.rsa_bits = 512;
  o.seed = 5;
  harness::Cluster cluster(o);
  auto& c = cluster.add_client(1);
  ASSERT_TRUE(cluster.write(c, 3, to_bytes("batched")).is_ok());
  cluster.settle();

  const quorum::PrepareCertificate pcert = cluster.replica(0).object(3).pcert();
  const std::optional<quorum::WriteCertificate>& wcert =
      c.shard_client(0).last_write_cert(3);
  ASSERT_TRUE(wcert.has_value());
  ASSERT_EQ(wcert->ts(), pcert.ts());
  const quorum::SignatureSet prepare_sigs = pcert.signatures().to_set();
  const quorum::SignatureSet write_sigs = wcert->signatures().to_set();
  ASSERT_EQ(prepare_sigs.size(), cluster.config().q);
  ASSERT_EQ(write_sigs.size(), cluster.config().q);
  // Each certificate holds the first q replies, which need not come from
  // the same replicas; one root per replica either way.
  auto rsa_part = [](const Bytes& sig) {
    return Bytes(sig.end() - 64, sig.end());
  };
  std::set<Bytes> roots;
  std::size_t shared = 0;
  for (const auto& [replica, psig] : prepare_sigs) {
    roots.insert(rsa_part(psig));
    auto w = write_sigs.find(replica);
    if (w == write_sigs.end()) continue;
    // Two leaves of one tree: different indices, one RSA signature.
    const Bytes& wsig = w->second;
    ASSERT_EQ(psig.size(), wsig.size());
    EXPECT_NE(psig[16], wsig[16]);
    EXPECT_EQ(rsa_part(psig), rsa_part(wsig));
    ++shared;
  }
  for (const auto& [replica, wsig] : write_sigs) roots.insert(rsa_part(wsig));
  std::set<quorum::ReplicaId> signers;
  for (const auto& [replica, sig] : prepare_sigs) signers.insert(replica);
  for (const auto& [replica, sig] : write_sigs) signers.insert(replica);
  EXPECT_GE(shared, 2u);
  EXPECT_EQ(roots.size(), signers.size());

  // A validator with a cold cache pays one RSA verify per root: the
  // prepare certificate q of them, the write certificate only those of
  // replicas the prepare certificate did not hold.
  Keystore& ks = cluster.keystore();
  ks.set_verify_cache_capacity(0);
  ks.set_verify_cache_capacity(VerifyCache::kDefaultCapacity);
  ks.reset_counters();
  EXPECT_TRUE(pcert.validate(cluster.config(), ks).is_ok());
  EXPECT_EQ(ks.counters().get("verify"), cluster.config().q);
  EXPECT_TRUE(wcert->validate(cluster.config(), ks).is_ok());
  EXPECT_EQ(ks.counters().get("verify"), roots.size());
  EXPECT_EQ(ks.counters().get("sig_cache_hit"), shared);
}

}  // namespace
}  // namespace bftbc
