// Example: an inventory service on the KvStore facade.
//
// Shows the string-keyed API, read-modify-write updates, erase
// semantics, and that the store keeps working through replica crashes —
// the "downstream user" view of the library, with none of the protocol
// machinery visible.
#include <cstdio>
#include <string>

#include "bftbc/kvstore.h"
#include "harness/cluster.h"

using namespace bftbc;

namespace {

// Synchronous wrappers for the example's readability.
struct Store {
  harness::Cluster& cluster;
  core::KvStore kv;

  bool put(std::string_view key, const std::string& value) {
    std::optional<bool> ok;
    kv.put(key, to_bytes(value),
           [&](Result<core::KvStore::PutResult> r) { ok = r.is_ok(); });
    cluster.run_until([&] { return ok.has_value(); });
    return *ok;
  }

  std::optional<std::string> get(std::string_view key) {
    std::optional<std::optional<std::string>> out;
    kv.get(key, [&](Result<core::KvStore::GetResult> r) {
      if (!r.is_ok() || !r.value().value.has_value()) {
        out = std::optional<std::string>{};
      } else {
        out = to_string(*r.value().value);
      }
    });
    cluster.run_until([&] { return out.has_value(); });
    return *out;
  }

  bool erase(std::string_view key) {
    std::optional<bool> ok;
    kv.erase(key,
             [&](Result<core::KvStore::PutResult> r) { ok = r.is_ok(); });
    cluster.run_until([&] { return ok.has_value(); });
    return *ok;
  }

  // Read-modify-write: adjust a numeric quantity.
  bool adjust(std::string_view key, int delta) {
    auto current = get(key);
    const int count = current ? std::stoi(*current) : 0;
    return put(key, std::to_string(count + delta));
  }
};

}  // namespace

int main() {
  harness::ClusterOptions options;
  options.f = 1;
  options.optimized = true;
  options.seed = 555;
  harness::Cluster cluster(options);

  Store store{cluster, core::KvStore(cluster.add_client(1).shard_client(0))};

  std::printf("== stocking the warehouse ==\n");
  store.put("sku/anvil", "12");
  store.put("sku/rocket-skates", "3");
  store.put("sku/tnt", "100");
  for (const char* sku : {"sku/anvil", "sku/rocket-skates", "sku/tnt"}) {
    std::printf("  %-18s qty=%s\n", sku, store.get(sku)->c_str());
  }

  std::printf("\n== order processing (read-modify-write) ==\n");
  store.adjust("sku/anvil", -2);
  store.adjust("sku/tnt", -25);
  store.adjust("sku/rocket-skates", +5);
  for (const char* sku : {"sku/anvil", "sku/rocket-skates", "sku/tnt"}) {
    std::printf("  %-18s qty=%s\n", sku, store.get(sku)->c_str());
  }

  std::printf("\n== discontinuing a product ==\n");
  store.erase("sku/rocket-skates");
  auto gone = store.get("sku/rocket-skates");
  std::printf("  sku/rocket-skates -> %s\n",
              gone ? gone->c_str() : "(absent)");

  std::printf("\n== replica crash mid-operation ==\n");
  cluster.crash_replica(2);
  store.adjust("sku/anvil", -1);
  std::printf("  after crash, sku/anvil qty=%s (still available)\n",
              store.get("sku/anvil")->c_str());

  // A second front-end (different client) sees the same state.
  Store other{cluster, core::KvStore(cluster.add_client(2).shard_client(0))};
  std::printf("  second front-end reads sku/anvil qty=%s\n",
              other.get("sku/anvil")->c_str());
  return 0;
}
