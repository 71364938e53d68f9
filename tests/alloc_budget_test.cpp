// Heap allocations per write, pinned per mode (ROADMAP item 17).
//
// This binary replaces the global operator new, so it is an executable of
// its own: every allocation the program makes while the counted writes
// run is counted. Setup: an f = 1 group, seed 3, one client writing
// 256-byte values round-robin over 16 objects, same-instant send
// coalescing on; 20 warm-up writes, then 200 counted. The four modes are
// base and optimized writes, each with HMAC-sim signatures and with
// RSA-512 statement signatures plus MAC authenticators.
//
// The counts are deterministic for a given standard library, whatever the
// optimization level. A change that lowers a count lowers its ceiling
// with it; one that raises a ceiling says why.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <new>
#include <ostream>
#include <string>
#include <vector>

#include "harness/cluster.h"

namespace {

bool g_counting = false;
std::uint64_t g_allocations = 0;

void* allocate(std::size_t n) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* allocate_aligned(std::size_t n, std::align_val_t align) {
  if (g_counting) ++g_allocations;
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return allocate(n); }
void* operator new[](std::size_t n) { return allocate(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return allocate_aligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return allocate_aligned(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace bftbc::harness {
namespace {

struct Mode {
  const char* name;
  bool optimized;
  bool rsa;
  // Allocations per counted write may not exceed this.
  double ceiling;
};

// Test names then carry the mode's name, not a dump of its bytes.
void PrintTo(const Mode& mode, std::ostream* os) { *os << mode.name; }

constexpr int kWarmup = 20;
constexpr int kCounted = 200;
constexpr quorum::ObjectId kObjects = 16;

// Allocations per write over the counted window.
double allocations_per_write(const Mode& mode) {
  ClusterOptions o;
  o.f = 1;
  o.seed = 3;
  o.optimized = mode.optimized;
  o.coalesce_sends = true;
  if (mode.rsa) {
    o.scheme = crypto::SignatureScheme::kRsa;
    o.rsa_bits = 512;
    o.mac_auth = true;
  }
  Cluster cluster(o);
  shard::RoutingClient& client = cluster.add_client(1);
  std::vector<Bytes> values;
  for (int i = 0; i < kWarmup + kCounted; ++i) {
    values.emplace_back(256, static_cast<std::uint8_t>(i));
  }
  for (int i = 0; i < kWarmup + kCounted; ++i) {
    if (i == kWarmup) {
      g_allocations = 0;
      g_counting = true;
    }
    const auto result =
        cluster.write(client, static_cast<quorum::ObjectId>(i) % kObjects,
                      std::move(values[i]));
    if (!result.is_ok()) {
      g_counting = false;
      ADD_FAILURE() << mode.name << ": write " << i << " failed";
      return 0;
    }
  }
  g_counting = false;
  return static_cast<double>(g_allocations) / kCounted;
}

class AllocBudgetTest : public ::testing::TestWithParam<Mode> {};

TEST_P(AllocBudgetTest, AllocationsPerWriteStayUnderCeiling) {
  const Mode& mode = GetParam();
  const double per_write = allocations_per_write(mode);
  std::printf("%s: %.2f allocations per write (ceiling %.0f)\n", mode.name,
              per_write, mode.ceiling);
  EXPECT_GT(per_write, 0.0);
  EXPECT_LE(per_write, mode.ceiling);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, AllocBudgetTest,
    ::testing::Values(Mode{"hmac_base", false, false, 315},
                      Mode{"hmac_optimized", true, false, 246},
                      Mode{"rsa_base", false, true, 463},
                      Mode{"rsa_optimized", true, true, 394}),
    [](const ::testing::TestParamInfo<Mode>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace bftbc::harness
