// Tests for filter_stream(), the day-parallel artifact filter:
// differential against one streaming ArtifactFilter at several worker
// counts, the day cutter's edge cases, ordering errors, the drain
// signal, and a simulated CDN world filtered both ways.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "core/artifact_filter.hpp"
#include "sim/log_io.hpp"
#include "telescope/world.hpp"
#include "util/rng.hpp"
#include "util/signal_drain.hpp"

namespace v6sonar::core {
namespace {

using net::Ipv6Address;
using sim::LogRecord;
using sim::TimeUs;

constexpr TimeUs kSec = 1'000'000;
constexpr TimeUs kDay = 86'400 * kSec;
constexpr unsigned kWorkerCounts[] = {1, 2, 3, 8};
/// filter_stream() merges days into work items of at least this many records.
constexpr std::size_t kItemRecords = std::size_t{1} << 16;

/// Records in the given order (never sorted, so ordering errors reach
/// filter_stream()). next_batch() hands out at most `max_batch` records, or
/// a random 1..max_batch when seeded, to move its read-batch
/// boundaries around.
class ListStream final : public sim::RecordStream {
 public:
  explicit ListStream(const std::vector<LogRecord>& recs, std::size_t max_batch = SIZE_MAX,
                      std::uint64_t seed = 0)
      : recs_(recs), max_batch_(max_batch), rng_(seed), random_(seed != 0) {}

  std::optional<LogRecord> next() override {
    if (pos_ == recs_.size()) return std::nullopt;
    return recs_[pos_++];
  }
  std::size_t next_batch(LogRecord* out, std::size_t max) override {
    std::size_t n = std::min({max, max_batch_, recs_.size() - pos_});
    if (random_ && n > 0) n = 1 + rng_.below(n);
    std::copy_n(recs_.begin() + static_cast<std::ptrdiff_t>(pos_), n, out);
    pos_ += n;
    return n;
  }
  /// Records handed out so far.
  [[nodiscard]] std::size_t consumed() const noexcept { return pos_; }

 private:
  const std::vector<LogRecord>& recs_;
  std::size_t max_batch_;
  util::Xoshiro256 rng_;
  bool random_;
  std::size_t pos_ = 0;
};

struct Filtered {
  std::vector<LogRecord> kept;
  std::vector<FilterDayStats> stats;
  std::string error;  ///< what() of an ordering error, empty if none
};

/// The reference: one streaming ArtifactFilter, record at a time.
Filtered serial(const std::vector<LogRecord>& recs) {
  Filtered out;
  ArtifactFilter f(
      {}, [&](const LogRecord& r) { out.kept.push_back(r); },
      [&](const FilterDayStats& s) { out.stats.push_back(s); });
  try {
    for (const auto& r : recs) f.feed(r);
    f.flush();
  } catch (const std::invalid_argument& e) {
    out.error = e.what();
  }
  return out;
}

void expect_same(const Filtered& got, const Filtered& want) {
  EXPECT_EQ(got.error, want.error);
  ASSERT_EQ(got.kept.size(), want.kept.size());
  EXPECT_TRUE(got.kept == want.kept) << "kept records differ";
  ASSERT_EQ(got.stats.size(), want.stats.size());
  for (std::size_t i = 0; i < want.stats.size(); ++i) {
    const FilterDayStats& g = got.stats[i];
    const FilterDayStats& w = want.stats[i];
    EXPECT_EQ(g.day, w.day) << "day stats " << i;
    EXPECT_EQ(g.packets_in, w.packets_in) << "day " << w.day;
    EXPECT_EQ(g.packets_dropped, w.packets_dropped) << "day " << w.day;
    EXPECT_EQ(g.sources_seen, w.sources_seen) << "day " << w.day;
    EXPECT_EQ(g.sources_dropped, w.sources_dropped) << "day " << w.day;
    EXPECT_EQ(g.dropped_by_port, w.dropped_by_port) << "day " << w.day;
  }
}

std::vector<char> file_bytes(const std::string& path) {
  std::vector<char> b(std::filesystem::file_size(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return {};
  EXPECT_EQ(std::fread(b.data(), 1, b.size(), f), b.size());
  std::fclose(f);
  return b;
}

/// One packet from source `src` (its /64 is 2400:1:0:<src>::/64, the
/// interface id varies) to 2600::<dst> on `port`.
LogRecord packet(TimeUs ts, std::uint64_t src, std::uint64_t iid, std::uint64_t dst,
                 std::uint16_t port) {
  LogRecord r;
  r.ts_us = ts;
  r.src = Ipv6Address{0x2400'0001'0000'0000ULL | src, iid};
  r.dst = Ipv6Address{0x2600'0000'0000'0000ULL, dst};
  r.dst_port = port;
  r.proto = port == 500 ? wire::IpProto::kUdp : wire::IpProto::kTcp;
  r.src_asn = static_cast<std::uint32_t>(src);
  return r;
}

/// `n` time-ordered packets spread over [from, from + span): retry-heavy
/// artifact sources (few (dst, port) pairs: dropped), borderline ones,
/// and scanners (distinct destinations), with timestamp ties.
void add_traffic(std::vector<LogRecord>& out, util::Xoshiro256& rng, TimeUs from, TimeUs span,
                 std::size_t n) {
  std::vector<TimeUs> ts(n);
  for (auto& t : ts) t = from + static_cast<TimeUs>(rng.below(span / kSec)) * kSec;
  std::sort(ts.begin(), ts.end());
  for (const TimeUs t : ts) {
    const std::uint64_t src = rng.below(48);
    const std::uint64_t iid = rng.below(4);
    if (src < 12) {
      out.push_back(packet(t, src, iid, rng.below(6), src % 2 ? 25 : 500));
    } else if (src < 24) {
      out.push_back(packet(t, src, iid, rng.below(40), 443));
    } else {
      out.push_back(packet(t, src, iid, rng(), static_cast<std::uint16_t>(rng.below(1024))));
    }
  }
}

/// `days` UTC days from `first_day`, about a fifth of them skipped, with
/// up to `max_per_day` packets each.
std::vector<LogRecord> random_days(std::uint64_t seed, std::int64_t first_day, int days,
                                   std::size_t max_per_day) {
  util::Xoshiro256 rng(seed);
  std::vector<LogRecord> out;
  for (int d = 0; d < days; ++d) {
    if (rng.chance(0.2)) continue;
    add_traffic(out, rng, (first_day + d) * kDay, kDay, 1 + rng.below(max_per_day));
  }
  return out;
}

class FilterStreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("v6sonar_filter_stream_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  [[nodiscard]] std::string path(const std::string& name) const { return (dir_ / name).string(); }

  /// filter_stream() over `in` into a log file, read back. An ordering
  /// error leaves the writer open; its destructor finalizes the file.
  Filtered parallel(sim::RecordStream& in, unsigned workers) {
    const std::string p = path("out.v6slog");
    Filtered got;
    {
      sim::LogWriter w(p);
      try {
        filter_stream(in, w, workers, [&](const FilterDayStats& s) { got.stats.push_back(s); });
      } catch (const std::invalid_argument& e) {
        got.error = e.what();
      }
    }
    sim::LogReader r(p);
    got.kept.resize(r.total_records());
    EXPECT_EQ(r.next_batch(got.kept.data(), got.kept.size()), got.kept.size());
    return got;
  }
  Filtered parallel(const std::vector<LogRecord>& recs, unsigned workers) {
    ListStream in(recs);
    return parallel(in, workers);
  }

  std::filesystem::path dir_;
};

TEST_F(FilterStreamTest, MatchesStreamingFilterOnRandomDays) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto recs = random_days(seed, 18'000, 30, 9'000);
    const Filtered want = serial(recs);
    ASSERT_GT(want.stats.size(), 10u);
    std::uint64_t dropped = 0;
    for (const auto& s : want.stats) dropped += s.packets_dropped;
    ASSERT_GT(dropped, 0u) << "the stream must exercise the drop path";
    ASSERT_GT(want.kept.size(), 0u);
    for (const unsigned w : kWorkerCounts) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << ", workers " << w);
      expect_same(parallel(recs, w), want);
      ListStream ragged(recs, 5'000, seed);  // random read sizes
      expect_same(parallel(ragged, w), want);
    }
  }
}

TEST_F(FilterStreamTest, EmptyLog) {
  for (const unsigned w : kWorkerCounts) {
    const Filtered got = parallel(std::vector<LogRecord>{}, w);
    EXPECT_TRUE(got.kept.empty());
    EXPECT_TRUE(got.stats.empty());
    EXPECT_EQ(std::filesystem::file_size(path("out.v6slog")), sim::kLogHeaderBytes);
  }
}

TEST_F(FilterStreamTest, OneRecord) {
  const std::vector<LogRecord> recs = {packet(5 * kDay + 7, 1, 2, 3, 80)};
  for (const unsigned w : kWorkerCounts) expect_same(parallel(recs, w), serial(recs));
}

TEST_F(FilterStreamTest, DayBiggerThanAWorkItem) {
  util::Xoshiro256 rng(7);
  std::vector<LogRecord> recs;
  add_traffic(recs, rng, 100 * kDay, kDay, 300);
  add_traffic(recs, rng, 101 * kDay, kDay, kItemRecords + 5'000);
  add_traffic(recs, rng, 102 * kDay, kDay, 200);
  add_traffic(recs, rng, 104 * kDay, kDay, kItemRecords + 1);
  const Filtered want = serial(recs);
  ASSERT_EQ(want.stats.size(), 4u);
  for (const unsigned w : kWorkerCounts) {
    SCOPED_TRACE(::testing::Message() << "workers " << w);
    expect_same(parallel(recs, w), want);
  }
}

TEST_F(FilterStreamTest, DayChangeOnReadAndItemBoundaries) {
  // A day change at every offset around multiples of the reader's batch
  // sizes and the work-item target, reached in full-size reads.
  for (const std::size_t boundary :
       {std::size_t{1}, std::size_t{2}, std::size_t{4'095}, std::size_t{4'096},
        std::size_t{4'097}, std::size_t{4'098}, std::size_t{8'193}, kItemRecords - 1,
        kItemRecords, kItemRecords + 1}) {
    util::Xoshiro256 rng(boundary);
    std::vector<LogRecord> recs;
    add_traffic(recs, rng, 10 * kDay, kDay, boundary);
    add_traffic(recs, rng, 11 * kDay, kDay, 4'100);
    add_traffic(recs, rng, 12 * kDay, kDay, 3);
    const Filtered want = serial(recs);
    for (const unsigned w : kWorkerCounts) {
      SCOPED_TRACE(::testing::Message() << "boundary " << boundary << ", workers " << w);
      expect_same(parallel(recs, w), want);
    }
  }
}

TEST_F(FilterStreamTest, NegativeAndEpochEdgeTimestamps) {
  // day_of() truncates toward zero like seconds_of(), so the "day" around
  // the epoch spans (-1 day, +1 day); the day cutter must cut where the
  // filter does.
  util::Xoshiro256 rng(11);
  std::vector<LogRecord> recs = {packet(INT64_MIN, 1, 0, 1, 22), packet(INT64_MIN + 1, 1, 0, 2, 22)};
  add_traffic(recs, rng, -3 * kDay - kSec, 2 * kDay, 3'000);
  for (const TimeUs t : {-kDay - 1, -kDay, -kDay + 1, -kSec - 1, -kSec, TimeUs{-1}, TimeUs{0}, TimeUs{1},
                         kSec - 1, kDay - 1, kDay})
    recs.push_back(packet(t, 2, 0, static_cast<std::uint64_t>(t & 0xff), 25));
  add_traffic(recs, rng, kDay, 2 * kDay, 3'000);
  const Filtered want = serial(recs);
  ASSERT_TRUE(want.error.empty());
  for (const unsigned w : kWorkerCounts) {
    SCOPED_TRACE(::testing::Message() << "workers " << w);
    expect_same(parallel(recs, w), want);
    ListStream ragged(recs, 64, w);
    expect_same(parallel(ragged, w), want);
  }
}

TEST_F(FilterStreamTest, OutOfOrderInsideAnItem) {
  auto recs = random_days(21, 500, 6, 3'000);
  // Step back in time in the middle of the stream, within one day and
  // (second case) to an earlier day.
  const std::size_t at = recs.size() / 2;
  for (const TimeUs back : {kSec, 2 * kDay}) {
    auto bad = recs;
    bad.insert(bad.begin() + static_cast<std::ptrdiff_t>(at),
               packet(bad[at - 1].ts_us - back, 3, 0, 9, 80));
    const Filtered want = serial(bad);
    ASSERT_EQ(want.error, "ArtifactFilter: records must be time-ordered");
    for (const unsigned w : kWorkerCounts) {
      SCOPED_TRACE(::testing::Message() << "back " << back << ", workers " << w);
      expect_same(parallel(bad, w), want);
    }
  }
}

TEST_F(FilterStreamTest, OutOfOrderAcrossAnItemBoundary) {
  // The first day fills a work item, so the second day's first record
  // closes it; the very next record steps back in time.
  for (const std::size_t first_day : {kItemRecords - 1, kItemRecords, kItemRecords + 1}) {
    util::Xoshiro256 rng(first_day);
    std::vector<LogRecord> recs;
    add_traffic(recs, rng, 40 * kDay, kDay, first_day);
    recs.push_back(packet(41 * kDay + 100 * kSec, 5, 0, 1, 80));
    recs.push_back(packet(41 * kDay + 99 * kSec, 5, 0, 2, 80));
    add_traffic(recs, rng, 42 * kDay, kDay, 100);
    const Filtered want = serial(recs);
    ASSERT_FALSE(want.error.empty());
    ASSERT_EQ(want.stats.size(), 1u);  // only the first day was released
    for (const unsigned w : kWorkerCounts) {
      SCOPED_TRACE(::testing::Message() << "first day " << first_day << ", workers " << w);
      expect_same(parallel(recs, w), want);
    }
  }
}

TEST_F(FilterStreamTest, DrainSignalStopsReadingButFiltersEverythingRead) {
  util::ShutdownSignal::install();
  util::ShutdownSignal::reset();
  struct Reset {
    ~Reset() { util::ShutdownSignal::reset(); }  // later tests must read to the end
  } reset;
  ASSERT_EQ(::raise(SIGINT), 0);
  ASSERT_TRUE(util::ShutdownSignal::requested());
  const auto recs = random_days(31, 9'000, 10, 4'000);
  for (const unsigned w : kWorkerCounts) {
    ListStream in(recs, 1'000);
    const Filtered got = parallel(in, w);
    ASSERT_GT(in.consumed(), 0u);
    EXPECT_LT(in.consumed(), recs.size());
    expect_same(got, serial({recs.begin(), recs.begin() + static_cast<std::ptrdiff_t>(in.consumed())}));
  }
}

/// The small simulated CDN world's records of UTC days [first, first +
/// 14), where `first` is 12 days after its first record — its artifact
/// sources are active from there on — captured with or without the
/// in-stream 5-duplicate filter. The generator is stopped by throwing
/// out of its sink.
std::vector<LogRecord> world_window(bool filtered) {
  telescope::WorldConfig cfg = telescope::WorldConfig::small();
  cfg.apply_artifact_filter = filtered;
  telescope::CdnWorld world(cfg);
  std::vector<LogRecord> out;
  std::int64_t first = INT64_MIN;
  struct Stop {};
  try {
    world.run([&](const LogRecord& r) {
      const std::int64_t day = day_of(r.ts_us);
      if (first == INT64_MIN) first = day + 12;  // the capture's first day + 12
      if (day >= first + 14) throw Stop{};
      if (day >= first) out.push_back(r);
    });
  } catch (const Stop&) {
  }
  return out;
}

TEST_F(FilterStreamTest, SimulatedWorldMatchesInStreamFilterByteForByte) {
  // Both runs start from the same first record: the in-stream filter
  // keeps some of every day's traffic, and the window starts 12 days on.
  const auto raw = world_window(false);
  const auto clean = world_window(true);
  ASSERT_EQ(day_of(raw.front().ts_us), day_of(clean.front().ts_us));
  ASSERT_GT(clean.size(), 0u);
  ASSERT_LT(clean.size(), raw.size()) << "the artifact filter must drop something";
  {
    sim::LogWriter ref(path("ref.v6slog"));
    ref.write(clean);
    ref.close();
  }
  const auto want = file_bytes(path("ref.v6slog"));
  for (const unsigned w : kWorkerCounts) {
    SCOPED_TRACE(::testing::Message() << "workers " << w);
    ListStream in(raw);
    {
      sim::LogWriter out(path("out.v6slog"));
      filter_stream(in, out, w);
    }
    EXPECT_TRUE(file_bytes(path("out.v6slog")) == want) << "filtered log differs";
  }
}

}  // namespace
}  // namespace v6sonar::core
