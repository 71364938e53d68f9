// Model test of the verify cache's flat table.
//
// Each seed drives random sequences of insert, lookup, purge_principal,
// set_capacity (shrink and grow) and clear against a std::map model of
// the latest verdict per key, and checks after every step that:
//   - a lookup returns -1 or the model's latest verdict, never a verdict
//     for a key that was never inserted or was purged;
//   - size() <= capacity(), and every entry is reachable: size() equals
//     the number of keys a lookup finds (checked every 50 steps);
//   - with no purge and no shrink since the last clear, no key is lost
//     while at most `capacity` distinct keys have been inserted (the
//     property the live benchmark's count window relies on).
// One adversarial case inserts keys that all share their index home
// position, as a Byzantine sender grinding digests would, and checks
// that verdicts stay right and work stays inside the probe window.
//
// Nightly CI sweeps a seed range; a failure names the seed so
//   verify_cache_model_test --seed N
// reproduces it exactly.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string_view>
#include <vector>

#include "crypto/verify_cache.h"
#include "util/bytes.h"
#include "util/flags.h"
#include "util/rng.h"

namespace bftbc::crypto {

// --seed override: 0 means "run the built-in seed table". Set in main()
// before InitGoogleTest materializes the parameter generators.
std::uint64_t g_seed_override = 0;

namespace {

using Key = VerifyCache::Key;

struct KeyLess {
  bool operator()(const Key& a, const Key& b) const {
    if (a.principal != b.principal) return a.principal < b.principal;
    return a.digest < b.digest;
  }
};

class VerifyCacheModelTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(VerifyCacheModelTest, RandomOperationsMatchModel) {
  Rng rng(GetParam() ^ 0x7e41f1ca);
  for (int round = 0; round < 40; ++round) {
    // Small capacities keep the index a few cache lines wide, so runs,
    // wrap-around and the CLOCK hand all get exercised.
    VerifyCache cache(1 + rng.next_below(rng.next_bool(0.5) ? 16 : 300));
    const std::size_t universe = 2 + rng.next_below(3 * cache.capacity());
    std::vector<Key> keys;
    for (std::size_t k = 0; k < universe; ++k) {
      // At least eight random statement bytes keep the keys distinct.
      const Bytes stmt = rng.bytes(8 + rng.next_below(90));
      const Bytes sig = rng.bytes(rng.next_below(70));
      keys.push_back(VerifyCache::make_key(
          static_cast<PrincipalId>(rng.next_below(4)), stmt, sig));
    }
    // Latest verdict of every key inserted and not since purged or
    // cleared.
    std::map<Key, bool, KeyLess> model;
    // `lossless` holds from the start and after each clear until a purge,
    // a shrink, or more distinct insertions (`inserted`) than capacity.
    std::set<Key, KeyLess> inserted;
    bool lossless = true;
    const auto reset = [&] {
      model.clear();
      inserted.clear();
      lossless = true;
    };

    for (int step = 0; step < 2000; ++step) {
      const std::uint64_t op = rng.next_below(100);
      const Key& key = keys[rng.next_below(keys.size())];
      if (op < 45) {
        const bool valid = rng.next_bool(0.5);
        cache.insert(key, valid);
        model[key] = valid;
        inserted.insert(key);
        if (inserted.size() > cache.capacity()) lossless = false;
      } else if (op < 94) {
        const int got = cache.lookup(key);
        const auto it = model.find(key);
        if (it == model.end()) {
          ASSERT_EQ(got, -1) << "round " << round << " step " << step;
        } else if (lossless || got != -1) {
          ASSERT_EQ(got, it->second ? 1 : 0)
              << "round " << round << " step " << step
              << (got == -1 ? ": lost below capacity" : "");
        }
      } else if (op < 96) {
        cache.purge_principal(key.principal);
        std::erase_if(model, [&](const auto& entry) {
          return entry.first.principal == key.principal;
        });
        lossless = false;
      } else if (op < 99) {
        const std::size_t before = cache.capacity();
        cache.set_capacity(rng.next_below(2 * before + 2));
        if (cache.capacity() == 0) {
          // Zero disables and clears; re-enable at a fresh size.
          reset();
          cache.set_capacity(1 + rng.next_below(300));
        } else if (cache.capacity() < before) {
          lossless = false;
        }
      } else {
        cache.clear();
        reset();
      }
      ASSERT_LE(cache.size(), cache.capacity());
      if (lossless) {
        ASSERT_EQ(cache.size(), inserted.size())
            << "round " << round << " step " << step;
      }
      if (step % 50 == 0) {
        std::size_t found = 0;
        for (const Key& k : keys) found += cache.lookup(k) != -1;
        ASSERT_EQ(found, cache.size()) << "round " << round << " step " << step;
      }
    }
  }
}

TEST_P(VerifyCacheModelTest, FillsDefaultCapacityWithoutLoss) {
  Rng rng(GetParam() ^ 0xf111);
  VerifyCache cache;
  std::vector<Key> keys;
  for (std::size_t k = 0; k < VerifyCache::kDefaultCapacity; ++k) {
    keys.push_back(VerifyCache::make_key(static_cast<PrincipalId>(k % 5),
                                         rng.bytes(40), rng.bytes(32)));
    cache.insert(keys.back(), k % 3 == 0);
  }
  ASSERT_EQ(cache.size(), VerifyCache::kDefaultCapacity);
  for (std::size_t k = 0; k < keys.size(); ++k) {
    ASSERT_EQ(cache.lookup(keys[k]), k % 3 == 0 ? 1 : 0) << k;
  }
  // Every entry is now referenced: the next insert sweeps the whole
  // clock once and evicts exactly one entry.
  const Key extra = VerifyCache::make_key(9, rng.bytes(40), rng.bytes(32));
  cache.insert(extra, true);
  EXPECT_EQ(cache.size(), VerifyCache::kDefaultCapacity);
  EXPECT_EQ(cache.lookup(extra), 1);
  std::size_t lost = 0;
  for (const Key& key : keys) lost += cache.lookup(key) == -1;
  EXPECT_EQ(lost, 1u);
}

std::vector<std::uint64_t> seeds() {
  if (g_seed_override != 0) return {g_seed_override};
  return {1, 2, 3, 4};
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerifyCacheModelTest,
                         ::testing::ValuesIn(seeds()));

// The statement's length is hashed ahead of it, so moving bytes between
// statement and signature changes the key.
TEST(VerifyCacheKeyTest, StatementSignatureSplitChangesTheKey) {
  const Key key = VerifyCache::make_key(1, to_bytes("stmt"), to_bytes("sig"));
  EXPECT_FALSE(key == VerifyCache::make_key(1, to_bytes("stm"),
                                            to_bytes("tsig")));
  EXPECT_FALSE(key == VerifyCache::make_key(1, to_bytes("stmts"),
                                            to_bytes("ig")));
  EXPECT_TRUE(key == VerifyCache::make_key(1, to_bytes("stmt"),
                                           to_bytes("sig")));
}

// Keys that share their first eight digest bytes share one index home
// position. However many arrive, each insert and lookup stays within the
// probe window, every verdict stays right, and the newest key is found.
TEST(VerifyCacheAdversarialTest, SharedIndexHomeStaysBounded) {
  VerifyCache cache;
  std::vector<Key> keys;
  for (std::uint32_t i = 0; i < 10000; ++i) {
    Key key;
    key.principal = 1 + i % 3;
    key.digest.fill(0xa5);
    for (int b = 0; b < 4; ++b) {
      key.digest[28 + b] = static_cast<std::uint8_t>(i >> (8 * b));
    }
    const bool valid = i % 2 == 0;
    cache.insert(key, valid);
    ASSERT_EQ(cache.lookup(key), valid ? 1 : 0) << "newest key " << i;
    keys.push_back(key);
  }
  EXPECT_LE(cache.size(), VerifyCache::kProbeLimit);
  std::size_t found = 0;
  for (std::uint32_t i = 0; i < keys.size(); ++i) {
    const int got = cache.lookup(keys[i]);
    if (got == -1) continue;
    ++found;
    ASSERT_EQ(got, i % 2 == 0 ? 1 : 0) << i;
  }
  EXPECT_EQ(found, cache.size());
}

}  // namespace
}  // namespace bftbc::crypto

// Custom main: gtest materializes parameterized suites inside
// InitGoogleTest, so --seed must be pulled out of argv FIRST; the
// remaining (gtest) flags are then handed to gtest untouched.
int main(int argc, char** argv) {
  std::vector<char*> ours{argv[0]};
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg.rfind("--seed", 0) == 0) {
      ours.push_back(argv[i]);
      if (arg == "--seed" && i + 1 < argc) ours.push_back(argv[++i]);
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;

  bftbc::FlagSet flags;
  auto& seed =
      flags.add_u64("seed", 0, "run only this fuzz seed (0 = full table)");
  int ours_argc = static_cast<int>(ours.size());
  flags.parse(ours_argc, ours.data());
  bftbc::crypto::g_seed_override = *seed;

  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
