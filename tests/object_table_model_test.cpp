// Model test of the replica's object table (bftbc/object_table.h) and the
// IdTable under it.
//
// Each seed drives random touches, state changes, installs, presigned
// signature adds and drops, and resident lookups against a std::map
// model of every object's content plus a list model of its recency, and
// checks after every step that:
//   - a touched object's state is the model's (fresh, kept, or reloaded
//     from its blob), and find_resident agrees with the model's
//     residency without touching;
//   - with a cap, the resident objects are exactly the model's LRU set,
//     in recency order, and the eviction and reload counters match;
//   - an entry never moves: its address is the one its first touch gave,
//     however far the table has grown since, and a resident state's
//     address holds until that object is evicted;
//   - presigned signatures survive eviction and reload.
// One adversarial case inserts 10,000 ids that an unkeyed hash would
// send to one home position and checks that lookups stay short.
//
// Nightly CI sweeps a seed range; a failure names the seed so
//   object_table_model_test --seed N
// reproduces it exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <string_view>
#include <vector>

#include "bftbc/object_table.h"
#include "util/flags.h"
#include "util/id_table.h"
#include "util/rng.h"

namespace bftbc::core {

// --seed override: 0 means "run the built-in seed table". Set in main()
// before InitGoogleTest materializes the parameter generators.
std::uint64_t g_seed_override = 0;

namespace {

// What the model knows of one object.
struct ModelObject {
  std::uint64_t version = 0;  // 0: fresh; else the last write's ts.val
  std::map<Timestamp, Bytes> sigs;
  // From the first touch (an object only ever installed has none).
  const ObjectTable::Entry* entry = nullptr;
};

Bytes value_of(ObjectId id, std::uint64_t version) {
  return to_bytes("object " + std::to_string(id) + " v" +
                  std::to_string(version));
}

// Gives the state the model's next version, through apply_write.
void write_version(ObjectState& state, ObjectId id, std::uint64_t version) {
  const Bytes value = value_of(id, version);
  const PrepareCertificate cert(id, Timestamp{version, 1},
                                crypto::sha256(value), {});
  ASSERT_TRUE(state.apply_write(value, cert, false));
}

void expect_content(const ObjectState& state, ObjectId id,
                    const ModelObject& m) {
  ASSERT_EQ(state.object(), id);
  if (m.version == 0) {
    EXPECT_TRUE(state.data().empty());
    EXPECT_TRUE(state.pcert().is_genesis());
  } else {
    EXPECT_EQ(state.data(), value_of(id, m.version));
    EXPECT_EQ(state.pcert().ts(), (Timestamp{m.version, 1}));
  }
}

class ObjectTableModelTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ObjectTableModelTest, RandomOperationsMatchModel) {
  Rng rng(GetParam() ^ 0x0b7ec7ab1eULL);
  for (int round = 0; round < 12; ++round) {
    const std::size_t caps[] = {0, 1, 3, 16, 64};
    const std::size_t cap = caps[rng.next_below(5)];
    const HashKey key{rng.next_u64(), rng.next_u64()};
    Counters counters;
    ObjectTable table(cap, key, counters);
    // Mostly a small universe, so objects come back; sometimes far ids.
    std::vector<ObjectId> universe;
    const std::size_t n = 8 + rng.next_below(400);
    for (std::size_t i = 0; i < n; ++i) {
      universe.push_back(rng.next_bool(0.8) ? i : rng.next_u64());
    }
    std::map<ObjectId, ModelObject> model;
    std::list<ObjectId> lru;  // resident, newest first (cap only)
    std::map<ObjectId, const ObjectState*> resident_at;
    std::uint64_t evicted = 0;
    std::uint64_t reloaded = 0;

    // The model of touch(id), or of install(id) (which never decodes).
    auto model_touch = [&](ObjectId id, bool install) {
      if (cap == 0) return;
      const bool was_resident =
          std::find(lru.begin(), lru.end(), id) != lru.end();
      if (was_resident) lru.remove(id);
      lru.push_front(id);
      if (was_resident) return;
      if (!install && model.count(id) != 0) ++reloaded;
      // The touched id is at the front, so the coldest is another.
      while (lru.size() > cap) {
        resident_at.erase(lru.back());
        lru.pop_back();
        ++evicted;
      }
    };

    for (int step = 0; step < 600; ++step) {
      const ObjectId id = universe[rng.next_below(universe.size())];
      const std::uint64_t op = rng.next_below(100);
      SCOPED_TRACE(::testing::Message() << "round " << round << " step "
                                        << step << " id " << id);
      if (op < 55) {
        // touch, and maybe write a new version
        model_touch(id, /*install=*/false);
        ObjectTable::Entry& e = table.touch(id);
        ModelObject& m = model[id];
        if (m.entry == nullptr) m.entry = &e;
        ASSERT_EQ(&e, m.entry) << "entry moved";
        ASSERT_TRUE(e.state.has_value());
        auto [at, fresh] = resident_at.try_emplace(id, &*e.state);
        if (!fresh) {
          ASSERT_EQ(at->second, &*e.state) << "state moved";
        }
        expect_content(*e.state, id, m);
        if (rng.next_bool(0.4)) write_version(*e.state, id, ++m.version);
      } else if (op < 70) {
        // presign, or drop through a timestamp
        model_touch(id, /*install=*/false);
        ObjectTable::Entry& e = table.touch(id);
        ModelObject& m = model[id];
        if (m.entry == nullptr) m.entry = &e;
        resident_at.try_emplace(id, &*e.state);
        const Timestamp ts{rng.next_below(8), static_cast<ClientId>(
                                                  rng.next_below(3))};
        if (rng.next_bool(0.7)) {
          auto [ws, added] = e.add_write_sig(ts);
          ASSERT_EQ(added, m.sigs.count(ts) == 0);
          if (added) {
            ws->sig = rng.bytes(8);
            m.sigs[ts] = ws->sig;
          }
        } else {
          std::size_t expect = 0;
          while (!m.sigs.empty() && m.sigs.begin()->first <= ts) {
            m.sigs.erase(m.sigs.begin());
            ++expect;
          }
          ASSERT_EQ(e.drop_write_sigs_through(ts), expect);
        }
        ASSERT_EQ(e.write_sigs.size(), m.sigs.size());
        for (const auto& [t, sig] : m.sigs) {
          const ObjectTable::WriteSig* ws = e.find_write_sig(t);
          ASSERT_NE(ws, nullptr);
          ASSERT_EQ(ws->sig, sig);
        }
      } else if (op < 78) {
        // install a fresh state carrying the next version
        model_touch(id, /*install=*/true);
        ModelObject& m = model[id];
        ObjectState state(id);
        write_version(state, id, ++m.version);
        table.install(id, std::move(state));
        resident_at.erase(id);
      } else {
        // resident lookup: no touch, no reload
        const ObjectState* found = table.find_resident(id);
        const bool expect_resident =
            cap == 0 ? model.count(id) != 0
                     : std::find(lru.begin(), lru.end(), id) != lru.end();
        ASSERT_EQ(found != nullptr, expect_resident);
        if (found != nullptr) expect_content(*found, id, model.at(id));
      }
      ASSERT_EQ(counters.get("objects_evicted"), evicted);
      ASSERT_EQ(counters.get("objects_reloaded"), reloaded);
      ASSERT_EQ(table.resident(), cap == 0 ? model.size() : lru.size());
      ASSERT_EQ(table.evicted(), model.size() - table.resident());
      if (cap != 0) {
        ASSERT_EQ(table.recency(), (std::vector<ObjectId>(lru.begin(),
                                                          lru.end())));
      }
    }
    // Every object, evicted or not, reloads its content and signatures.
    for (auto& [id, m] : model) {
      const ObjectTable::Entry& e = table.touch(id);
      if (m.entry != nullptr) {
        ASSERT_EQ(&e, m.entry);
      }
      expect_content(*e.state, id, m);
      ASSERT_EQ(e.write_sigs.size(), m.sigs.size());
    }
  }
}

std::vector<std::uint64_t> seeds() {
  if (g_seed_override != 0) return {g_seed_override};
  return {1, 2, 3, 4};
}

INSTANTIATE_TEST_SUITE_P(Seeds, ObjectTableModelTest,
                         ::testing::ValuesIn(seeds()));

// The reference vector of the SipHash paper (key 00..0f, message
// 00..07).
TEST(IdTableTest, SipHashMatchesReferenceVector) {
  const HashKey key{0x0706050403020100ULL, 0x0f0e0d0c0b0a0908ULL};
  EXPECT_EQ(siphash24(key, 0x0706050403020100ULL), 0x93f5f5799a932462ULL);
}

// Values never move: a reference taken at insert still names the value
// after the table has grown through many chunks and index rebuilds.
TEST(IdTableTest, GrowthKeepsReferencesAndFindsEveryId) {
  IdTable<std::vector<std::uint64_t>> table(HashKey{3, 4});
  std::vector<const std::vector<std::uint64_t>*> first;
  for (std::uint64_t id = 0; id < 5000; ++id) {
    const auto [slot, inserted] = table.insert(id * 977);
    ASSERT_TRUE(inserted);
    ASSERT_EQ(slot, id);
    table[slot].assign(3, id);
    first.push_back(&table[slot]);
  }
  EXPECT_FALSE(table.insert(977).second);
  EXPECT_EQ(table.find(1), IdTable<int>::kNone);
  for (std::uint64_t id = 0; id < 5000; ++id) {
    const std::uint32_t slot = table.find(id * 977);
    ASSERT_EQ(slot, id);
    ASSERT_EQ(&table[slot], first[id]);
    ASSERT_EQ(table[slot], std::vector<std::uint64_t>(3, id));
    ASSERT_EQ(table.id(slot), id * 977);
  }
}

// Ids that agree in every bit an index of up to 2^32 positions would use
// as their home under an unkeyed (identity) hash. Keyed, they spread:
// every lookup stays within a few positions and finds its own value.
TEST(IdTableAdversarialTest, SharedUnkeyedHomeStaysBounded) {
  IdTable<std::uint32_t> table(HashKey{0x5eed, 0xcafe});
  for (std::uint32_t i = 0; i < 10000; ++i) {
    const std::uint32_t slot = table.insert(std::uint64_t{i} << 32).first;
    table[slot] = i;
  }
  EXPECT_LE(table.max_probe_length(), 32u);
  for (std::uint32_t i = 0; i < 10000; ++i) {
    const std::uint32_t slot = table.find(std::uint64_t{i} << 32);
    ASSERT_NE(slot, IdTable<std::uint32_t>::kNone);
    ASSERT_EQ(table[slot], i);
  }

  // The same ids through the replica's table, capped.
  Counters counters;
  ObjectTable objects(64, HashKey{0x5eed, 0xcafe}, counters);
  for (std::uint32_t i = 0; i < 10000; ++i) {
    ASSERT_EQ(objects.touch(std::uint64_t{i} << 32).state->object(),
              std::uint64_t{i} << 32);
  }
  EXPECT_LE(objects.max_probe_length(), 32u);
  EXPECT_EQ(objects.resident(), 64u);
  EXPECT_EQ(counters.get("objects_evicted"), 10000u - 64u);
}

}  // namespace
}  // namespace bftbc::core

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
      flags.add_u64("seed", 0, "run only this model seed (0 = full table)");
  int ours_argc = static_cast<int>(ours.size());
  flags.parse(ours_argc, ours.data());
  bftbc::core::g_seed_override = *seed;

  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
