// Tests for util: RNG determinism, stats, entropy, histograms, tables,
// the simulation time base, the CRC-32 and the state encoding.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "util/crc32.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "util/state_io.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timebase.hpp"

namespace v6sonar::util {
namespace {

TEST(Rng, SameSeedSameStream) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a() == b();
  EXPECT_LT(same, 2);
}

TEST(Rng, DeriveSeedIsStreamSeparated) {
  EXPECT_NE(derive_seed(7, 0), derive_seed(7, 1));
  EXPECT_NE(derive_seed(7, 0), derive_seed(8, 0));
  EXPECT_EQ(derive_seed(7, 3), derive_seed(7, 3));
}

TEST(Rng, BelowStaysInRange) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
  EXPECT_EQ(rng.below(0), 0u);
  EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Xoshiro256 rng(1234);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100'000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.below(kBuckets)];
  for (int c : counts) {
    EXPECT_GT(c, kDraws / kBuckets * 0.9);
    EXPECT_LT(c, kDraws / kBuckets * 1.1);
  }
}

TEST(Rng, RangeInclusive) {
  Xoshiro256 rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.range(10, 12));
  EXPECT_EQ(seen, (std::set<std::uint64_t>{10, 11, 12}));
}

TEST(Rng, UnitInHalfOpenInterval) {
  Xoshiro256 rng(77);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ZipfSkewsTowardLowRanks) {
  Xoshiro256 rng(3);
  ZipfSampler zipf(100, 1.2);
  int rank0 = 0, rank50plus = 0;
  for (int i = 0; i < 10'000; ++i) {
    const auto r = zipf.sample(rng);
    ASSERT_LT(r, 100u);
    if (r == 0) ++rank0;
    if (r >= 50) ++rank50plus;
  }
  EXPECT_GT(rank0, rank50plus);
  EXPECT_GT(rank0, 1000);
}

TEST(Rng, ZipfZeroExponentIsUniform) {
  Xoshiro256 rng(4);
  ZipfSampler zipf(4, 0.0);
  int counts[4] = {};
  for (int i = 0; i < 40'000; ++i) ++counts[zipf.sample(rng)];
  for (int c : counts) {
    EXPECT_GT(c, 9'000);
    EXPECT_LT(c, 11'000);
  }
}

TEST(Rng, ZipfRejectsBadArgs) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(5, -1.0), std::invalid_argument);
}

TEST(Rng, ExponentialGapMeanMatchesRate) {
  Xoshiro256 rng(10);
  double sum = 0;
  constexpr int kN = 50'000;
  for (int i = 0; i < kN; ++i) sum += exponential_gap(rng, 4.0);
  EXPECT_NEAR(sum / kN, 0.25, 0.01);
}

TEST(Rng, StandardNormalMoments) {
  Xoshiro256 rng(11);
  RunningStats st;
  for (int i = 0; i < 50'000; ++i) st.add(standard_normal(rng));
  EXPECT_NEAR(st.mean(), 0.0, 0.02);
  EXPECT_NEAR(st.stddev(), 1.0, 0.02);
}

TEST(Stats, RunningStatsBasics) {
  RunningStats st;
  EXPECT_EQ(st.count(), 0u);
  EXPECT_EQ(st.mean(), 0.0);
  st.add(2.0);
  st.add(4.0);
  st.add(6.0);
  EXPECT_EQ(st.count(), 3u);
  EXPECT_DOUBLE_EQ(st.mean(), 4.0);
  EXPECT_DOUBLE_EQ(st.min(), 2.0);
  EXPECT_DOUBLE_EQ(st.max(), 6.0);
  EXPECT_DOUBLE_EQ(st.sum(), 12.0);
  EXPECT_NEAR(st.variance(), 8.0 / 3.0, 1e-12);
}

TEST(Stats, QuantileInterpolates) {
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(quantile({5}, 0.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile({5}, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(median({9, 1, 5}), 5.0);
  EXPECT_THROW((void)quantile({}, 0.5), std::invalid_argument);
  EXPECT_THROW((void)quantile({1}, 1.5), std::invalid_argument);
}

TEST(Stats, ShannonEntropyBounds) {
  EXPECT_DOUBLE_EQ(shannon_entropy({}), 0.0);
  EXPECT_DOUBLE_EQ(shannon_entropy({10}), 0.0);            // single symbol
  EXPECT_DOUBLE_EQ(shannon_entropy({5, 5}), 1.0);          // fair coin
  EXPECT_NEAR(shannon_entropy({1, 1, 1, 1}), 2.0, 1e-12);  // 4 symbols
  EXPECT_DOUBLE_EQ(normalized_entropy({3, 3, 3}), 1.0);
  EXPECT_DOUBLE_EQ(normalized_entropy({100}), 0.0);
  EXPECT_LT(normalized_entropy({99, 1}), 0.2);
}

TEST(Stats, TopKShare) {
  EXPECT_DOUBLE_EQ(top_k_share({90, 5, 5}, 1), 0.9);
  EXPECT_DOUBLE_EQ(top_k_share({50, 30, 20}, 2), 0.8);
  EXPECT_DOUBLE_EQ(top_k_share({1, 1}, 5), 1.0);  // k beyond size
  EXPECT_DOUBLE_EQ(top_k_share({}, 3), 0.0);
  EXPECT_DOUBLE_EQ(top_k_share({0, 0}, 1), 0.0);
}

TEST(Histogram, OneDimensionalClampsEdges) {
  Histogram1D h(4);
  h.add(0);
  h.add(3);
  h.add(99);  // clamps to last bin
  EXPECT_EQ(h.at(0), 1u);
  EXPECT_EQ(h.at(3), 2u);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_THROW((void)h.at(4), std::out_of_range);

  // A wide histogram stores only up to its highest bin in use.
  Histogram1D wide(1'000'000);
  wide.add(5, 2);
  Histogram1D other(1'000'000);
  other.add(9);
  wide.merge(other);
  EXPECT_EQ(wide.counts().size(), 10u);
  EXPECT_EQ(wide.at(5), 2u);
  EXPECT_EQ(wide.at(9), 1u);
  EXPECT_EQ(wide.at(999'999), 0u);
  EXPECT_EQ(wide.total(), 3u);
}

TEST(Histogram, LogHistogramBinsByDecade) {
  LogHistogram2D h(4, 4);
  h.add(1, 1);        // bin (0,0)
  h.add(9, 99);       // (0,1)
  h.add(10, 100);     // (1,2)
  h.add(99999, 5);    // clamps x to last bin (3,0)
  EXPECT_EQ(h.at(0, 0), 1u);
  EXPECT_EQ(h.at(0, 1), 1u);
  EXPECT_EQ(h.at(1, 2), 1u);
  EXPECT_EQ(h.at(3, 0), 1u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_THROW((void)h.at(4, 0), std::out_of_range);
}

TEST(Histogram, ZeroTreatedAsOne) {
  LogHistogram2D h(3, 3);
  h.add(0, 0);
  EXPECT_EQ(h.at(0, 0), 1u);
}

TEST(Histogram, RenderMentionsLabels) {
  LogHistogram2D h(2, 2);
  h.add(5, 5);
  const auto s = h.render("destinations", "packets");
  EXPECT_NE(s.find("destinations"), std::string::npos);
  EXPECT_NE(s.find("packets"), std::string::npos);
}

TEST(Table, RendersAlignedAndCsv) {
  TextTable t({"name", "count"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const auto text = t.render();
  EXPECT_NE(text.find("| name"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  const auto csv = t.render_csv();
  EXPECT_EQ(csv, "name,count\nalpha,1\nb,22\n");
}

TEST(Table, RejectsArityMismatch) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

TEST(Table, CsvEscaping) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(1234567), "1,234,567");
  EXPECT_EQ(compact_count(839'000'000), "839M");
  EXPECT_EQ(compact_count(4'700'000), "4.7M");
  EXPECT_EQ(compact_count(600'000), "0.6M");
  EXPECT_EQ(compact_count(2'040'000'000), "2.0B");
  EXPECT_EQ(compact_count(950), "950");
  EXPECT_EQ(percent(0.392), "39.2%");
  EXPECT_EQ(percent(0.0005), "<=0.1%");
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
}

TEST(Timebase, WindowConstants) {
  EXPECT_EQ(format_date(kWindowStart), "2021-01-01");
  EXPECT_EQ(format_date(kWindowEnd), "2022-03-15");
  EXPECT_EQ(kWindowDays, 438);  // 438 whole days -> 439 measurement days inclusive
  EXPECT_EQ(format_date(kNov2021Start), "2021-11-01");
  EXPECT_EQ(format_date(kNov2021End), "2021-12-01");
}

TEST(Timebase, CivilRoundTrip) {
  for (std::int64_t day = -1000; day <= 40'000; day += 97) {
    EXPECT_EQ(days_from_civil(civil_from_days(day)), day);
  }
  EXPECT_EQ(civil_from_days(0), (CivilDate{1970, 1, 1}));
  EXPECT_EQ(time_of(CivilDate{2021, 1, 1}), kWindowStart);
  EXPECT_EQ(time_of(CivilDate{2021, 7, 6}), 1'625'529'600);
}

TEST(Timebase, DayAndWeekIndices) {
  EXPECT_EQ(window_day(kWindowStart), 0);
  EXPECT_EQ(window_day(kWindowStart + kSecondsPerDay - 1), 0);
  EXPECT_EQ(window_day(kWindowStart + kSecondsPerDay), 1);
  EXPECT_EQ(window_week(kWindowStart), 0);
  EXPECT_EQ(window_week(kWindowStart + kSecondsPerWeek), 1);
}

TEST(Timebase, DatetimeFormatting) {
  EXPECT_EQ(format_datetime(kWindowStart), "2021-01-01 00:00:00");
  EXPECT_EQ(format_datetime(kWindowStart + 3'661), "2021-01-01 01:01:01");
  EXPECT_EQ(format_date(time_of(CivilDate{2021, 12, 24})), "2021-12-24");
}

// ---- CRC-32 ----------------------------------------------------------

/// Bit-at-a-time CRC-32 (reflected 0xEDB88320): the definition itself,
/// independent of any table the implementation under test builds.
std::uint32_t crc32_reference(const std::uint8_t* p, std::size_t n, std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ ((c & 1) ? 0xEDB88320u : 0);
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, KnownAnswers) {
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
  EXPECT_EQ(crc32("", 0, 0xCBF43926u), 0xCBF43926u) << "empty input leaves the seed alone";
  const std::vector<std::uint8_t> zeros(1 << 20, 0);
  EXPECT_EQ(crc32(zeros.data(), zeros.size()), 0xA738EA1Cu);
}

TEST(Crc32, MatchesReferenceAtEveryLengthAndAlignment) {
  std::vector<std::uint8_t> buf(1024 + 8);
  Xoshiro256 rng(7);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
  for (std::size_t off = 0; off < 8; ++off)
    for (std::size_t len = 0; len <= 1024; ++len)
      ASSERT_EQ(crc32(buf.data() + off, len), crc32_reference(buf.data() + off, len))
          << "offset " << off << " length " << len;
}

TEST(Crc32, IncrementalChainingEqualsOneShot) {
  std::vector<std::uint8_t> buf(4099);
  Xoshiro256 rng(11);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
  const std::uint32_t whole = crc32(buf.data(), buf.size());
  ASSERT_EQ(whole, crc32_reference(buf.data(), buf.size()));
  for (const std::size_t cut : {0, 1, 7, 8, 9, 63, 64, 1000, 4095, 4099}) {
    const std::uint32_t head = crc32(buf.data(), cut);
    EXPECT_EQ(crc32(buf.data() + cut, buf.size() - cut, head), whole) << "cut " << cut;
  }
  // Many small odd-sized pieces, so chunk edges land on every alignment.
  std::uint32_t c = 0;
  for (std::size_t at = 0, step = 1; at < buf.size(); at += step, step = step % 13 + 1)
    c = crc32(buf.data() + at, std::min(step, buf.size() - at), c);
  EXPECT_EQ(c, whole);
}

// ---- StateWriter encoding --------------------------------------------

using Bytes = std::vector<std::uint8_t>;

Bytes bytes_of(const StateWriter& w) { return {w.bytes().begin(), w.bytes().end()}; }

TEST(StateWriterGolden, EveryPrimitiveIsLittleEndian) {
  const auto enc = [](auto&& write) {
    StateWriter w;
    write(w);
    return bytes_of(w);
  };
  EXPECT_EQ(enc([](StateWriter& w) { w.u8(0); }), (Bytes{0x00}));
  EXPECT_EQ(enc([](StateWriter& w) { w.u8(0xFF); }), (Bytes{0xFF}));
  EXPECT_EQ(enc([](StateWriter& w) { w.u16(0x1234); }), (Bytes{0x34, 0x12}));
  EXPECT_EQ(enc([](StateWriter& w) { w.u16(0xFFFF); }), (Bytes{0xFF, 0xFF}));
  EXPECT_EQ(enc([](StateWriter& w) { w.u32(0x12345678); }), (Bytes{0x78, 0x56, 0x34, 0x12}));
  EXPECT_EQ(enc([](StateWriter& w) { w.u32(0); }), (Bytes{0, 0, 0, 0}));
  EXPECT_EQ(enc([](StateWriter& w) { w.u32(UINT32_MAX); }), (Bytes{0xFF, 0xFF, 0xFF, 0xFF}));
  EXPECT_EQ(enc([](StateWriter& w) { w.u64(0x0123456789ABCDEFULL); }),
            (Bytes{0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01}));
  EXPECT_EQ(enc([](StateWriter& w) { w.u64(UINT64_MAX); }), Bytes(8, 0xFF));
  EXPECT_EQ(enc([](StateWriter& w) { w.i32(-1); }), (Bytes{0xFF, 0xFF, 0xFF, 0xFF}));
  EXPECT_EQ(enc([](StateWriter& w) { w.i32(INT32_MIN); }), (Bytes{0x00, 0x00, 0x00, 0x80}));
  EXPECT_EQ(enc([](StateWriter& w) { w.i32(INT32_MAX); }), (Bytes{0xFF, 0xFF, 0xFF, 0x7F}));
  EXPECT_EQ(enc([](StateWriter& w) { w.i64(-2); }),
            (Bytes{0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}));
  EXPECT_EQ(enc([](StateWriter& w) { w.i64(INT64_MIN); }), (Bytes{0, 0, 0, 0, 0, 0, 0, 0x80}));
  EXPECT_EQ(enc([](StateWriter& w) { w.i64(INT64_MAX); }),
            (Bytes{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}));
  EXPECT_EQ(enc([](StateWriter& w) { w.f64(1.0); }), (Bytes{0, 0, 0, 0, 0, 0, 0xF0, 0x3F}));
  EXPECT_EQ(enc([](StateWriter& w) { w.f64(-0.0); }), (Bytes{0, 0, 0, 0, 0, 0, 0, 0x80}));
  EXPECT_EQ(enc([](StateWriter& w) { w.f64(std::numeric_limits<double>::infinity()); }),
            (Bytes{0, 0, 0, 0, 0, 0, 0xF0, 0x7F}));
  EXPECT_EQ(enc([](StateWriter& w) { w.str(""); }), (Bytes{0, 0, 0, 0}));
  EXPECT_EQ(enc([](StateWriter& w) { w.str("ab"); }), (Bytes{0x02, 0, 0, 0, 'a', 'b'}));
  EXPECT_EQ(enc([](StateWriter& w) { w.pod(std::array<std::uint8_t, 3>{1, 2, 3}); }),
            (Bytes{1, 2, 3}));
  EXPECT_EQ(enc([](StateWriter& w) { w.raw(nullptr, 0); }), Bytes{});
}

TEST(StateWriterGolden, MixedSequenceConcatenatesAndRoundTrips) {
  StateWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(42);
  w.i32(-7);
  w.i64(-9);
  w.f64(0.5);
  w.str("v6");
  w.pod(std::uint8_t{0x5A});
  const Bytes expect{0xAB, 0xEF, 0xBE, 0xEF, 0xBE, 0xAD, 0xDE, 42, 0, 0, 0, 0, 0, 0, 0,
                     0xF9, 0xFF, 0xFF, 0xFF, 0xF7, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                     0, 0, 0, 0, 0, 0, 0xE0, 0x3F, 2, 0, 0, 0, 'v', '6', 0x5A};
  EXPECT_EQ(bytes_of(w), expect);
  EXPECT_EQ(w.size(), expect.size());

  StateReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 42u);
  EXPECT_EQ(r.i32(), -7);
  EXPECT_EQ(r.i64(), -9);
  EXPECT_EQ(r.f64(), 0.5);
  EXPECT_EQ(r.str(), "v6");
  EXPECT_EQ(r.pod<std::uint8_t>(), 0x5A);
  r.expect_end();
}

TEST(StateWriterGolden, GrowthKeepsEveryByteAndMoveEmptiesTheSource) {
  StateWriter w;
  for (std::uint64_t i = 0; i < 100'000; ++i) {
    w.u64(i * 0x9E3779B97F4A7C15ULL);
    w.u8(static_cast<std::uint8_t>(i));
  }
  ASSERT_EQ(w.size(), 900'000u);
  StateWriter moved(std::move(w));
  EXPECT_EQ(w.size(), 0u);  // NOLINT(bugprone-use-after-move): moved-from is empty, reusable
  w.u32(1);
  EXPECT_EQ(bytes_of(w), (Bytes{1, 0, 0, 0}));
  StateReader r(moved.bytes());
  for (std::uint64_t i = 0; i < 100'000; ++i) {
    ASSERT_EQ(r.u64(), i * 0x9E3779B97F4A7C15ULL);
    ASSERT_EQ(r.u8(), static_cast<std::uint8_t>(i));
  }
  r.expect_end();
}

}  // namespace
}  // namespace v6sonar::util
