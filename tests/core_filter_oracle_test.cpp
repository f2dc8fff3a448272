// The artifact filter against its oracle (filter_oracle.hpp): random
// and adversarial days through both front ends — the streaming
// ArtifactFilter, record at a time, and filter_stream() over a log file
// at several worker counts, whose output bytes must be the kept input
// images with byte 51 (dst_in_dns) written as 0 or 1.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/artifact_filter.hpp"
#include "filter_oracle.hpp"
#include "sim/log_io.hpp"
#include "util/rng.hpp"

namespace v6sonar::core {
namespace {

using net::Ipv6Address;
using sim::LogRecord;
using sim::TimeUs;

constexpr TimeUs kSec = 1'000'000;
constexpr TimeUs kDay = 86'400 * kSec;
constexpr std::size_t kRec = sim::kLogRecordBytes;
constexpr unsigned kWorkerCounts[] = {1, 2, 3, 8};

/// A packet from /64 2400:1:0:<net>::/64, interface id `iid`, to
/// 2600::<dst> on (proto, port).
LogRecord packet(TimeUs ts, std::uint64_t net, std::uint64_t iid, std::uint64_t dst,
                 std::uint16_t port, wire::IpProto proto = wire::IpProto::kTcp) {
  LogRecord r;
  r.ts_us = ts;
  r.src = Ipv6Address{0x2400'0001'0000'0000ULL | net, iid};
  r.dst = Ipv6Address{0x2600'0000'0000'0000ULL, dst};
  r.proto = proto;
  r.dst_port = port;
  r.src_port = static_cast<std::uint16_t>(40'000 + iid);
  r.frame_len = static_cast<std::uint16_t>(60 + dst % 40);
  r.src_asn = static_cast<std::uint32_t>(net + 1);
  r.dst_in_dns = dst % 3 == 0;
  return r;
}

/// `hits` packets from one source to one flow, `step` apart from `ts`.
void repeat(std::vector<LogRecord>& out, int hits, TimeUs ts, const LogRecord& proto_packet,
            TimeUs step = kSec) {
  for (int i = 0; i < hits; ++i) {
    LogRecord r = proto_packet;
    r.ts_us = ts + i * step;
    out.push_back(r);
  }
}

void expect_same_stats(const std::vector<FilterDayStats>& got,
                       const std::vector<FilterDayStats>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].day, want[i].day) << "day stats " << i;
    EXPECT_EQ(got[i].packets_in, want[i].packets_in) << "day " << want[i].day;
    EXPECT_EQ(got[i].packets_dropped, want[i].packets_dropped) << "day " << want[i].day;
    EXPECT_EQ(got[i].sources_seen, want[i].sources_seen) << "day " << want[i].day;
    EXPECT_EQ(got[i].sources_dropped, want[i].sources_dropped) << "day " << want[i].day;
    EXPECT_EQ(got[i].dropped_by_port, want[i].dropped_by_port) << "day " << want[i].day;
  }
}

class FilterOracleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("v6sonar_filter_oracle_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Both front ends over `records` (time-ordered) against the oracle.
  /// `dns_bytes`, if given, overrides byte 51 of each record's image in
  /// the log filter_stream() reads.
  void check(const std::vector<LogRecord>& records,
             const std::vector<std::uint8_t>& dns_bytes = {}) {
    const testing::OracleVerdict want = testing::filter_oracle(records);
    const std::vector<FilterDayStats> want_stats = testing::as_filter_stats(want.days);

    {
      SCOPED_TRACE("streaming ArtifactFilter");
      std::vector<LogRecord> kept;
      std::vector<FilterDayStats> stats;
      ArtifactFilter f(
          {}, [&](const LogRecord& r) { kept.push_back(r); },
          [&](const FilterDayStats& s) { stats.push_back(s); });
      for (const auto& r : records) f.feed(r);
      f.flush();
      ASSERT_EQ(kept.size(), want.kept.size());
      for (std::size_t i = 0; i < kept.size(); ++i)
        ASSERT_EQ(kept[i], records[want.kept[i]]) << "kept record " << i;
      expect_same_stats(stats, want_stats);
    }

    std::vector<std::uint8_t> images(records.size() * kRec);
    for (std::size_t i = 0; i < records.size(); ++i) {
      sim::encode_record(records[i], &images[i * kRec]);
      if (!dns_bytes.empty()) images[i * kRec + 51] = dns_bytes[i];
    }
    const std::string in = (dir_ / "in.v6slog").string();
    {
      sim::LogWriter w(in);
      w.write_images(images);
      w.close();
    }
    std::vector<std::uint8_t> want_bytes(sim::kLogHeaderBytes);
    for (const std::size_t i : want.kept) {
      want_bytes.insert(want_bytes.end(), &images[i * kRec], &images[(i + 1) * kRec]);
      want_bytes.back() = images[i * kRec + 51] != 0 ? 1 : 0;
    }
    const std::uint64_t count = want.kept.size();
    for (int b = 0; b < 8; ++b) want_bytes[b] = static_cast<std::uint8_t>(sim::kLogMagic >> (8 * b));
    for (int b = 0; b < 8; ++b) want_bytes[8 + b] = static_cast<std::uint8_t>(count >> (8 * b));

    const std::string out = (dir_ / "out.v6slog").string();
    for (const unsigned workers : kWorkerCounts) {
      SCOPED_TRACE(::testing::Message() << "filter_stream, workers " << workers);
      std::vector<FilterDayStats> stats;
      {
        sim::MappedLogReader reader(in);
        sim::LogWriter w(out);
        filter_stream(reader, w, workers, [&](const FilterDayStats& s) { stats.push_back(s); });
        EXPECT_EQ(reader.position(), records.size());
      }
      EXPECT_TRUE(file_bytes(out) == want_bytes) << "filtered log differs";
      expect_same_stats(stats, want_stats);
    }
  }

  static std::vector<std::uint8_t> file_bytes(const std::string& path) {
    std::vector<std::uint8_t> b(std::filesystem::file_size(path));
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    if (f == nullptr) return {};
    EXPECT_EQ(std::fread(b.data(), 1, b.size(), f), b.size());
    std::fclose(f);
    return b;
  }

  std::filesystem::path dir_;
};

/// Random traffic over `days` UTC days from `first_day` (about a fifth
/// skipped), up to `max_per_day` packets a day with timestamp ties:
/// retry-heavy sources on a few flows, borderline ones, scanners, and
/// sources whose /64 several interface ids share; flows that differ
/// only in protocol.
std::vector<LogRecord> random_traffic(std::uint64_t seed, std::int64_t first_day, int days,
                                      std::size_t max_per_day) {
  util::Xoshiro256 rng(seed);
  std::vector<LogRecord> out;
  constexpr wire::IpProto kProtos[] = {wire::IpProto::kTcp, wire::IpProto::kUdp,
                                       wire::IpProto::kIcmpv6};
  for (int d = 0; d < days; ++d) {
    if (rng.chance(0.2)) continue;
    const std::size_t n = 1 + rng.below(max_per_day);
    std::vector<TimeUs> ts(n);
    for (auto& t : ts) t = (first_day + d) * kDay + static_cast<TimeUs>(rng.below(kDay / kSec)) * kSec;
    std::sort(ts.begin(), ts.end());
    for (const TimeUs t : ts) {
      const std::uint64_t net = rng.below(64);
      const std::uint64_t iid = rng.below(net < 32 ? 2 : 6);
      const wire::IpProto proto = kProtos[rng.below(net < 16 ? 3 : 1)];
      if (net < 16) {
        out.push_back(packet(t, net, iid, rng.below(3), net % 2 ? 25 : 500, proto));
      } else if (net < 40) {
        out.push_back(packet(t, net, iid, rng.below(4 + net), 443, proto));
      } else {
        out.push_back(packet(t, net, iid, rng(), static_cast<std::uint16_t>(rng.below(1024))));
      }
      out.back().dst_in_dns = rng.chance(0.5);
    }
  }
  return out;
}

TEST_F(FilterOracleTest, RandomDays) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    check(random_traffic(seed, 18'000 + static_cast<std::int64_t>(seed), 12, 6'000));
  }
}

TEST_F(FilterOracleTest, RandomDaysAroundTheEpochAndBiggerThanAWorkItem) {
  check(random_traffic(7, -3, 6, 4'000));
  check(random_traffic(8, 19'000, 3, 120'000));
}

TEST_F(FilterOracleTest, FifthAndSixthHits) {
  const TimeUs t = 18'500 * kDay;
  std::vector<LogRecord> recs;
  // Exactly 5 hits on each of two flows: no duplicate.
  repeat(recs, 5, t, packet(0, 1, 0, 1, 80));
  repeat(recs, 5, t + kSec / 2, packet(0, 1, 0, 2, 80));
  // 8 hits and one other packet: the 6th, 7th and 8th are duplicates,
  // 3 of 9 — dropped (with the 7th as the first it would be 2 of 9).
  repeat(recs, 8, t + 100 * kSec, packet(0, 2, 0, 1, 80));
  recs.push_back(packet(t + 200 * kSec, 2, 0, 9, 80));
  // 6 hits to one flow with nothing else: 1 of 6, kept.
  repeat(recs, 6, t + 300 * kSec, packet(0, 3, 0, 1, 22));
  std::sort(recs.begin(), recs.end(),
            [](const LogRecord& a, const LogRecord& b) { return a.ts_us < b.ts_us; });
  const auto verdict = testing::filter_oracle(recs);
  ASSERT_EQ(verdict.days.size(), 1u);
  EXPECT_EQ(verdict.days[0].sources_dropped, 1u);
  EXPECT_EQ(verdict.days[0].packets_dropped, 9u);
  check(recs);
}

TEST_F(FilterOracleTest, ExactlyThirtyPercent) {
  const TimeUs t = 18'600 * kDay;
  std::vector<LogRecord> recs;
  // 8 hits + 2 others: 3 of 10 duplicates, exactly 30 % — kept.
  repeat(recs, 8, t, packet(0, 1, 0, 1, 443));
  recs.push_back(packet(t + 50 * kSec, 1, 0, 2, 443));
  recs.push_back(packet(t + 51 * kSec, 1, 0, 3, 443));
  // 8 hits + 1 other: 3 of 9 — dropped.
  repeat(recs, 8, t + 100 * kSec, packet(0, 2, 0, 1, 443));
  recs.push_back(packet(t + 150 * kSec, 2, 0, 2, 443));
  // 35 hits + 65 others: 30 of 100 — kept; one other fewer: dropped.
  repeat(recs, 35, t + 200 * kSec, packet(0, 3, 0, 1, 25));
  for (int i = 0; i < 65; ++i) recs.push_back(packet(t + 300 * kSec + i, 3, 0, 100 + i, 25));
  repeat(recs, 35, t + 400 * kSec, packet(0, 4, 0, 1, 25));
  for (int i = 0; i < 64; ++i) recs.push_back(packet(t + 500 * kSec + i, 4, 0, 100 + i, 25));
  const auto verdict = testing::filter_oracle(recs);
  ASSERT_EQ(verdict.days.size(), 1u);
  EXPECT_EQ(verdict.days[0].sources_dropped, 2u);
  EXPECT_EQ(verdict.days[0].packets_dropped, 9u + 99u);
  check(recs);
}

TEST_F(FilterOracleTest, DayEdgesAroundTheEpochAndTheClockLimits) {
  std::vector<LogRecord> recs;
  // Four hits on each side of every edge: a day cut in the wrong place
  // merges them into 8 hits (3 duplicates of 8, dropped).
  const auto straddle = [&](TimeUs edge, std::uint64_t net) {
    repeat(recs, 4, edge - 4, packet(0, net, 0, 7, 23), 1);
    repeat(recs, 4, edge, packet(0, net, 0, 7, 23), 1);
  };
  recs.push_back(packet(INT64_MIN, 9, 0, 1, 22));
  repeat(recs, 8, INT64_MIN + 1, packet(0, 9, 0, 2, 22), 1);
  straddle(-kDay, 1);
  straddle(0, 2);
  straddle(kDay, 3);
  straddle(kDay + kSec, 4);  // inside one day: merged, dropped
  repeat(recs, 8, INT64_MAX - 7, packet(0, 9, 0, 3, 22), 1);  // up to INT64_MAX itself
  const auto verdict = testing::filter_oracle(recs);
  ASSERT_EQ(verdict.days.size(), 6u);
  EXPECT_EQ(verdict.days[1].day, -2);
  EXPECT_EQ(verdict.days[3].day, 0);
  for (std::size_t d = 1; d <= 3; ++d) EXPECT_EQ(verdict.days[d].packets_dropped, 0u);
  EXPECT_EQ(verdict.days[4].packets_dropped, 8u);
  EXPECT_EQ(verdict.days[0].packets_dropped + verdict.days[5].packets_dropped, 17u);
  check(recs);
}

TEST_F(FilterOracleTest, SourcesThatDifferOnlyBelowSlash64AreOneSource) {
  const TimeUs t = 18'700 * kDay;
  std::vector<LogRecord> recs;
  // Three interface ids of one /64, three hits each on one flow: 9
  // hits, 4 duplicates — dropped. Judged per address, none would be.
  for (std::uint64_t iid = 0; iid < 3; ++iid)
    repeat(recs, 3, t + static_cast<TimeUs>(iid) * 10 * kSec, packet(0, 1, iid, 1, 80));
  // The neighbouring /64s (last bit of the /64 differs) stay apart.
  for (std::uint64_t net = 2; net < 4; ++net)
    repeat(recs, 4, t + 100 * kSec + static_cast<TimeUs>(net) * 10 * kSec, packet(0, net, 0, 1, 80));
  const auto verdict = testing::filter_oracle(recs);
  ASSERT_EQ(verdict.days.size(), 1u);
  EXPECT_EQ(verdict.days[0].sources_seen, 3u);
  EXPECT_EQ(verdict.days[0].packets_dropped, 9u);
  check(recs);
}

TEST_F(FilterOracleTest, DnsByteIsWrittenAsZeroOrOne) {
  const auto recs = random_traffic(9, 18'800, 3, 2'000);
  std::vector<std::uint8_t> dns(recs.size());
  constexpr std::uint8_t kBytes[] = {0, 1, 2, 255};
  for (std::size_t i = 0; i < dns.size(); ++i) dns[i] = kBytes[i % 4];
  check(recs, dns);
}

}  // namespace
}  // namespace v6sonar::core
