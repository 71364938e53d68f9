#include <gtest/gtest.h>

#include <string>

#include "util/codec.h"
#include "util/hex.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"

namespace bftbc {
namespace {

// ---------------------------------------------------------------- codec

TEST(CodecTest, FixedWidthRoundtrip) {
  Writer w;
  w.put_u8(0xab);
  w.put_u16(0x1234);
  w.put_u32(0xdeadbeef);
  w.put_u64(0x0123456789abcdefULL);
  w.put_bool(true);

  Reader r(w.data());
  EXPECT_EQ(r.get_u8(), 0xab);
  EXPECT_EQ(r.get_u16(), 0x1234);
  EXPECT_EQ(r.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.get_u64(), 0x0123456789abcdefULL);
  EXPECT_TRUE(r.get_bool());
  EXPECT_TRUE(r.done());
}

TEST(CodecTest, VarintRoundtrip) {
  const std::uint64_t values[] = {0,    1,    127,  128,   300,
                                  16383, 16384, 1u << 30, 0xffffffffffffffffULL};
  for (std::uint64_t v : values) {
    Writer w;
    w.put_varint(v);
    Reader r(w.data());
    EXPECT_EQ(r.get_varint(), v);
    EXPECT_TRUE(r.done());
  }
}

TEST(CodecTest, VarintSizes) {
  Writer w;
  w.put_varint(127);
  EXPECT_EQ(w.size(), 1u);
  Writer w2;
  w2.put_varint(128);
  EXPECT_EQ(w2.size(), 2u);
}

TEST(CodecTest, BytesAndStrings) {
  Writer w;
  w.put_bytes(to_bytes("hello"));
  w.put_string("world");
  w.put_bytes(Bytes{});

  Reader r(w.data());
  EXPECT_EQ(to_string(r.get_bytes()), "hello");
  EXPECT_EQ(r.get_string(), "world");
  EXPECT_TRUE(r.get_bytes().empty());
  EXPECT_TRUE(r.done());
}

TEST(CodecTest, TruncatedInputSetsError) {
  Writer w;
  w.put_u64(42);
  Bytes data = w.data();
  data.pop_back();
  Reader r(data);
  (void)r.get_u64();
  EXPECT_FALSE(r.ok());
}

TEST(CodecTest, LengthLongerThanBufferSetsError) {
  Writer w;
  w.put_varint(1000);  // claims 1000 bytes follow
  w.put_raw(to_bytes("short"));
  Reader r(w.data());
  (void)r.get_bytes();
  EXPECT_FALSE(r.ok());
}

TEST(CodecTest, ErrorIsSticky) {
  Reader r(BytesView{});
  (void)r.get_u32();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.get_u8(), 0);
  EXPECT_FALSE(r.ok());
}

TEST(CodecTest, TrailingGarbageDetectedByDone) {
  Writer w;
  w.put_u8(1);
  w.put_u8(2);
  Reader r(w.data());
  (void)r.get_u8();
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(r.done());  // one byte unread
}

TEST(CodecTest, OverlongVarintRejected) {
  // 11 bytes of continuation is more than a u64 can hold.
  Bytes evil(11, 0xff);
  evil.back() = 0x01;
  Reader r(evil);
  (void)r.get_varint();
  EXPECT_FALSE(r.ok());
}

TEST(CodecTest, RawRoundtrip) {
  Writer w;
  w.put_raw(to_bytes("abc"));
  Reader r(w.data());
  EXPECT_EQ(to_string(r.get_raw(3)), "abc");
  EXPECT_TRUE(r.done());
}

// ---------------------------------------------------------------- hex

TEST(HexTest, Roundtrip) {
  const Bytes b{0x00, 0x01, 0xab, 0xff};
  EXPECT_EQ(to_hex(b), "0001abff");
  auto back = from_hex("0001abff");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, b);
}

TEST(HexTest, CaseInsensitiveParse) {
  auto v = from_hex("DEADbeef");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(to_hex(*v), "deadbeef");
}

TEST(HexTest, RejectsOddLength) { EXPECT_FALSE(from_hex("abc").has_value()); }

TEST(HexTest, RejectsNonHex) { EXPECT_FALSE(from_hex("zz").has_value()); }

TEST(HexTest, Prefix) {
  const Bytes b{0xde, 0xad, 0xbe, 0xef, 0x12};
  EXPECT_EQ(hex_prefix(b, 4), "dead");
  EXPECT_EQ(hex_prefix(b, 100), "deadbeef12");
}

// ---------------------------------------------------------------- bytes

TEST(BytesTest, ConstantTimeEqual) {
  EXPECT_TRUE(constant_time_equal(to_bytes("abc"), to_bytes("abc")));
  EXPECT_FALSE(constant_time_equal(to_bytes("abc"), to_bytes("abd")));
  EXPECT_FALSE(constant_time_equal(to_bytes("abc"), to_bytes("ab")));
  EXPECT_TRUE(constant_time_equal(Bytes{}, Bytes{}));
}

// ---------------------------------------------------------------- rng

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  // bound 1 → always 0
  EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(RngTest, NextBelowRoughlyUniform) {
  Rng rng(6);
  int counts[4] = {0, 0, 0, 0};
  for (int i = 0; i < 40000; ++i) ++counts[rng.next_below(4)];
  for (int c : counts) {
    EXPECT_GT(c, 9000);
    EXPECT_LT(c, 11000);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.next_in_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BoolProbabilityExtremes) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(10);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.next_exponential(5.0);
  const double mean = sum / n;
  EXPECT_NEAR(mean, 5.0, 0.2);
}

TEST(RngTest, FillProducesRequestedLength) {
  Rng rng(11);
  for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 31u, 64u}) {
    EXPECT_EQ(rng.bytes(n).size(), n);
  }
}

TEST(RngTest, SplitStreamsIndependent) {
  Rng parent(12);
  Rng child1 = parent.split();
  Rng child2 = parent.split();
  EXPECT_NE(child1.next_u64(), child2.next_u64());
}

TEST(RngTest, ShuffleKeepsElements) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// ---------------------------------------------------------------- status

TEST(StatusTest, OkStatus) {
  Status s = Status::ok();
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = conflict("prepare list has different entry");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kConflict);
  EXPECT_EQ(s.to_string(), "CONFLICT: prepare list has different entry");
}

TEST(ResultTest, ValueAccess) {
  Result<int> r(42);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().is_ok());
}

TEST(ResultTest, ErrorAccess) {
  Result<int> r = timeout_error("phase 2 quorum");
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, TakeMovesValue) {
  Result<std::string> r(std::string("payload"));
  std::string s = std::move(r).take();
  EXPECT_EQ(s, "payload");
}

// ---------------------------------------------------------------- stats

TEST(StatsTest, SummaryBasics) {
  Summary s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(v);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_NEAR(s.stddev(), 1.5811, 1e-3);
}

TEST(StatsTest, EmptySummaryIsZero) {
  // Every statistic on a zero-sample Summary returns the defined
  // sentinel 0.0 — none may index the empty sample vector (benches
  // print summaries for scenarios that recorded nothing).
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_EQ(s.median(), 0.0);
  EXPECT_EQ(s.percentile(0.0), 0.0);
  EXPECT_EQ(s.percentile(0.99), 0.0);
  EXPECT_EQ(s.percentile(1.0), 0.0);
  EXPECT_FALSE(s.to_string().empty());
}

TEST(StatsTest, PercentileBounds) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
  EXPECT_NEAR(s.percentile(0.5), 50.0, 1.0);
}

TEST(StatsTest, SingleSampleSummary) {
  // One sample: every location statistic collapses onto it and stddev
  // (sample stddev, n-1 denominator) is defined as 0.
  Summary s;
  s.add(7.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 7.5);
  EXPECT_DOUBLE_EQ(s.min(), 7.5);
  EXPECT_DOUBLE_EQ(s.max(), 7.5);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 7.5);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 7.5);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 7.5);
  const Summary::Snapshot snap = s.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_DOUBLE_EQ(snap.p50, 7.5);
  EXPECT_DOUBLE_EQ(snap.p999, 7.5);
}

TEST(StatsTest, PercentileClampsOutOfRangeQ) {
  Summary s;
  for (double v : {10.0, 20.0, 30.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.percentile(-0.5), 10.0);  // q clamped to 0
  EXPECT_DOUBLE_EQ(s.percentile(2.0), 30.0);   // q clamped to 1
}

TEST(StatsTest, SnapshotIncludesOrderedP999) {
  // 10k distinct samples: p999 must sit strictly between p99 and max
  // (the tail percentile the live bench reports), and the whole snapshot
  // must satisfy the JSON schema's ordering invariant.
  Summary s;
  for (int i = 0; i < 10000; ++i) s.add(static_cast<double>(i));
  const Summary::Snapshot snap = s.snapshot();
  EXPECT_LE(snap.min, snap.p50);
  EXPECT_LE(snap.p50, snap.p90);
  EXPECT_LE(snap.p90, snap.p99);
  EXPECT_LT(snap.p99, snap.p999);
  EXPECT_LT(snap.p999, snap.max);
  EXPECT_NEAR(snap.p999, 9989.0, 1.0);
}

TEST(StatsTest, EmptySnapshotIsAllZero) {
  const Summary::Snapshot snap = Summary().snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.mean, 0.0);
  EXPECT_EQ(snap.min, 0.0);
  EXPECT_EQ(snap.max, 0.0);
  EXPECT_EQ(snap.p50, 0.0);
  EXPECT_EQ(snap.p999, 0.0);
  EXPECT_EQ(snap.stddev, 0.0);
}

TEST(StatsTest, HistogramCountsAndMean) {
  Histogram h;
  h.add(2);
  h.add(2);
  h.add(3);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.count_of(2), 2u);
  EXPECT_EQ(h.count_of(3), 1u);
  EXPECT_EQ(h.count_of(7), 0u);
  EXPECT_NEAR(h.mean(), 7.0 / 3.0, 1e-9);
  EXPECT_NEAR(h.fraction_of(2), 2.0 / 3.0, 1e-9);
  EXPECT_EQ(h.max_value(), 3);
  EXPECT_EQ(h.to_string(), "2:2 3:1");
}

TEST(StatsTest, CountersAccumulate) {
  Counters c;
  c.inc("msgs");
  c.inc("msgs", 4);
  c.inc("bytes", 100);
  EXPECT_EQ(c.get("msgs"), 5u);
  EXPECT_EQ(c.get("bytes"), 100u);
  EXPECT_EQ(c.get("missing"), 0u);
  c.reset();
  EXPECT_EQ(c.get("msgs"), 0u);
}

// ------------------------------------------------------------------ log

TEST(LogTest, LevelGatesLinesAndTimeSourceStampsThem) {
  const LogLevel prev = log_level();
  set_log_level(LogLevel::kWarn);
  testing::internal::CaptureStderr();
  BFTBC_LOG(kInfo) << "below the level";
  set_log_time_source([] { return std::uint64_t{1'500'000}; });
  BFTBC_LOG(kWarn) << "stamped " << 7;
  clear_log_time_source();
  BFTBC_LOG(kError) << "unstamped";
  const std::string out = testing::internal::GetCapturedStderr();
  set_log_level(prev);
  EXPECT_EQ(out, "[W 1.500000ms] stamped 7\n[E] unstamped\n");
}

}  // namespace
}  // namespace bftbc
