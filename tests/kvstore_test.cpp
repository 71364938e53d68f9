// Tests for the KvStore facade.
#include <gtest/gtest.h>

#include "bftbc/kvstore.h"
#include "harness/cluster.h"

namespace bftbc::core {
namespace {

using harness::Cluster;
using harness::ClusterOptions;

class KvStoreTest : public ::testing::Test {
 protected:
  KvStoreTest() : cluster_([] { ClusterOptions o; o.seed = 11; return o; }()) {}

  Result<KvStore::PutResult> put(KvStore& kv, std::string_view key,
                                 std::string value) {
    std::optional<Result<KvStore::PutResult>> result;
    kv.put(key, to_bytes(value),
           [&](Result<KvStore::PutResult> r) { result = std::move(r); });
    cluster_.run_until([&] { return result.has_value(); });
    return *result;
  }

  Result<KvStore::GetResult> get(KvStore& kv, std::string_view key) {
    std::optional<Result<KvStore::GetResult>> result;
    kv.get(key, [&](Result<KvStore::GetResult> r) { result = std::move(r); });
    cluster_.run_until([&] { return result.has_value(); });
    return std::move(*result);
  }

  Result<KvStore::PutResult> erase(KvStore& kv, std::string_view key) {
    std::optional<Result<KvStore::PutResult>> result;
    kv.erase(key, [&](Result<KvStore::PutResult> r) { result = std::move(r); });
    cluster_.run_until([&] { return result.has_value(); });
    return *result;
  }

  Cluster cluster_;
};

TEST_F(KvStoreTest, KeyMappingDeterministicAndSpread) {
  EXPECT_EQ(KvStore::object_for_key("alpha"), KvStore::object_for_key("alpha"));
  EXPECT_NE(KvStore::object_for_key("alpha"), KvStore::object_for_key("beta"));
  EXPECT_NE(KvStore::object_for_key("a"), KvStore::object_for_key("aa"));
}

TEST_F(KvStoreTest, PutGetRoundtrip) {
  KvStore kv(cluster_.add_client(1).shard_client(0));
  ASSERT_TRUE(put(kv, "greeting", "hello").is_ok());
  auto g = get(kv, "greeting");
  ASSERT_TRUE(g.is_ok());
  ASSERT_TRUE(g.value().value.has_value());
  EXPECT_EQ(to_string(*g.value().value), "hello");
  EXPECT_EQ(g.value().version.val, 1u);
}

TEST_F(KvStoreTest, AbsentKeyHasNoValue) {
  KvStore kv(cluster_.add_client(1).shard_client(0));
  auto g = get(kv, "never-written");
  ASSERT_TRUE(g.is_ok());
  EXPECT_FALSE(g.value().value.has_value());
  EXPECT_TRUE(g.value().version.is_zero());
}

TEST_F(KvStoreTest, KeysAreIndependent) {
  KvStore kv(cluster_.add_client(1).shard_client(0));
  ASSERT_TRUE(put(kv, "a", "1").is_ok());
  ASSERT_TRUE(put(kv, "b", "2").is_ok());
  auto ga = get(kv, "a");
  auto gb = get(kv, "b");
  ASSERT_TRUE(ga.is_ok());
  ASSERT_TRUE(gb.is_ok());
  EXPECT_EQ(to_string(*ga.value().value), "1");
  EXPECT_EQ(to_string(*gb.value().value), "2");
}

TEST_F(KvStoreTest, OverwriteBumpsVersion) {
  KvStore kv(cluster_.add_client(1).shard_client(0));
  ASSERT_TRUE(put(kv, "k", "v1").is_ok());
  auto p2 = put(kv, "k", "v2");
  ASSERT_TRUE(p2.is_ok());
  EXPECT_EQ(p2.value().version.val, 2u);
  auto g = get(kv, "k");
  EXPECT_EQ(to_string(*g.value().value), "v2");
}

TEST_F(KvStoreTest, EraseLeavesTombstoneVersion) {
  KvStore kv(cluster_.add_client(1).shard_client(0));
  ASSERT_TRUE(put(kv, "k", "v").is_ok());
  auto e = erase(kv, "k");
  ASSERT_TRUE(e.is_ok());
  EXPECT_EQ(e.value().version.val, 2u);
  auto g = get(kv, "k");
  ASSERT_TRUE(g.is_ok());
  EXPECT_FALSE(g.value().value.has_value());   // erased = absent
  EXPECT_EQ(g.value().version.val, 2u);        // but the version advanced
}

TEST_F(KvStoreTest, TwoClientsShareTheStore) {
  KvStore kv1(cluster_.add_client(1).shard_client(0));
  KvStore kv2(cluster_.add_client(2).shard_client(0));
  ASSERT_TRUE(put(kv1, "shared", "from-1").is_ok());
  auto g = get(kv2, "shared");
  ASSERT_TRUE(g.is_ok());
  EXPECT_EQ(to_string(*g.value().value), "from-1");
  ASSERT_TRUE(put(kv2, "shared", "from-2").is_ok());
  auto g1 = get(kv1, "shared");
  EXPECT_EQ(to_string(*g1.value().value), "from-2");
}

TEST_F(KvStoreTest, WorksWithCrashedReplica) {
  cluster_.crash_replica(1);
  KvStore kv(cluster_.add_client(1).shard_client(0));
  ASSERT_TRUE(put(kv, "k", "fault-tolerant").is_ok());
  auto g = get(kv, "k");
  ASSERT_TRUE(g.is_ok());
  EXPECT_EQ(to_string(*g.value().value), "fault-tolerant");
}

}  // namespace
}  // namespace bftbc::core
