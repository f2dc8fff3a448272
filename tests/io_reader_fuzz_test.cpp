// Deterministic mutation fuzz for the readers of untrusted files:
// sim::LogReader, sim::MappedLogReader (.v6slog) and core::EventReader
// (.v6ev). A valid file is mutated by seeded byte flips, by truncation
// at every record boundary and one byte either side, and by headers
// and list lengths whose counts lie. Every mutation must end in a
// clean std::runtime_error or in a valid parse that returns exactly
// the records its header claims — never a crash, a hang, an
// over-allocation or another exception type. Run under ASan by
// `tools/check.sh address`, where an out-of-bounds read fails loudly.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

#include "core/event_io.hpp"
#include "sim/log_io.hpp"
#include "util/rng.hpp"

namespace v6sonar {
namespace {

using Bytes = std::vector<std::uint8_t>;

class ReaderFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("v6sonar_reader_fuzz_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  [[nodiscard]] std::string path(const char* name) const { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

Bytes read_file(const std::string& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& p, const Bytes& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

void put_u64(Bytes& b, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void put_u32(Bytes& b, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// The outcome of reading one mutated file to its end.
enum class Outcome { kParsed, kRefused };

/// Run `read` (which returns the records it produced and the count the
/// header claims) and classify the result; anything but a valid parse
/// or a std::runtime_error fails the test.
template <typename Read>
Outcome classify(Read&& read, const std::string& what) {
  try {
    const auto [got, claimed] = read();
    EXPECT_EQ(got, claimed) << what << ": a valid parse must return what its header claims";
    return Outcome::kParsed;
  } catch (const std::runtime_error&) {
    return Outcome::kRefused;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": unexpected " << typeid(e).name() << ": " << e.what();
  }
  return Outcome::kRefused;
}

/// Every reader of one format, to the end of the file.
Outcome read_log_stdio(const std::string& p, const std::string& what) {
  return classify(
      [&] {
        sim::LogReader r(p);
        std::vector<sim::LogRecord> batch(17);
        std::uint64_t got = 0;
        while (auto rec = r.next()) {
          ++got;
          if (got % 3 == 0) got += r.next_batch(batch.data(), batch.size());
        }
        return std::pair{got, r.total_records()};
      },
      what + " (LogReader)");
}

Outcome read_log_mapped(const std::string& p, const std::string& what) {
  return classify(
      [&] {
        sim::MappedLogReader r(p);
        std::vector<sim::LogRecord> batch(17);
        std::uint64_t got = 0;
        while (auto rec = r.next()) {
          ++got;
          if (got % 3 == 0) got += r.next_batch(batch.data(), batch.size());
        }
        return std::pair{got, r.total_records()};
      },
      what + " (MappedLogReader)");
}

Outcome read_events(const std::string& p, const std::string& what) {
  return classify(
      [&] {
        core::EventReader r(p, 4'096);
        std::vector<core::ScanEvent> batch(5);
        std::uint64_t got = 0;
        core::ScanEvent ev;
        while (r.next(ev)) {
          ++got;
          if (got % 3 == 0) got += r.next_batch(batch.data(), batch.size());
        }
        return std::pair{got, r.total_events()};
      },
      what + " (EventReader)");
}

/// A valid .v6slog of `n` seeded records.
Bytes make_log(const std::string& p, std::size_t n) {
  util::Xoshiro256 rng(3);
  sim::LogWriter w(p);
  for (std::size_t i = 0; i < n; ++i) {
    sim::LogRecord r;
    r.ts_us = static_cast<sim::TimeUs>(i * 1'000 + rng.below(1'000));
    r.src = net::Ipv6Address{rng(), rng()};
    r.dst = net::Ipv6Address{rng(), rng()};
    r.dst_port = static_cast<std::uint16_t>(rng.below(65'536));
    r.src_asn = static_cast<std::uint32_t>(rng.below(70'000));
    w.write(r);
  }
  w.close();
  return read_file(p);
}

/// A valid .v6ev of `n` seeded events with port and week lists of
/// varying length (some empty); `boundaries` gets each event's start
/// offset and the end of the file.
Bytes make_events(const std::string& p, std::size_t n, std::vector<std::size_t>& boundaries) {
  util::Xoshiro256 rng(5);
  core::EventWriter w(p);
  for (std::size_t i = 0; i < n; ++i) {
    boundaries.push_back(static_cast<std::size_t>(w.offset()));
    core::ScanEvent ev;
    ev.source = net::Ipv6Prefix{net::Ipv6Address{rng(), rng()},
                                static_cast<int>(rng.below(129))};
    ev.first_us = static_cast<sim::TimeUs>(rng.below(1'000'000));
    ev.last_us = ev.first_us + static_cast<sim::TimeUs>(rng.below(1'000'000));
    ev.packets = rng.below(1'000'000);
    ev.distinct_dsts = static_cast<std::uint32_t>(rng.below(10'000));
    ev.src_asn = static_cast<std::uint32_t>(rng.below(70'000));
    for (std::size_t k = 0, ports = rng.below(6); k < ports; ++k)
      ev.port_packets.emplace_back(static_cast<std::uint16_t>(k * 11), rng.below(100));
    for (std::size_t k = 0, weeks = rng.below(4); k < weeks; ++k)
      ev.weekly_packets.emplace_back(static_cast<std::int32_t>(k), rng.below(100));
    w.on_event(std::move(ev));
  }
  boundaries.push_back(static_cast<std::size_t>(w.offset()));
  w.close();
  return read_file(p);
}

constexpr std::size_t kRecords = 120;
constexpr std::size_t kEvents = 60;
constexpr int kFlipRounds = 400;

/// Flip 1-4 random bits, a quarter of the time inside the header.
Bytes flip(const Bytes& good, util::Xoshiro256& rng, std::size_t header_bytes) {
  Bytes b = good;
  for (std::size_t k = 0, flips = 1 + rng.below(4); k < flips; ++k) {
    const std::size_t at =
        rng.below(4) == 0 ? rng.below(header_bytes) : rng.below(b.size());
    b[at] ^= static_cast<std::uint8_t>(1u << rng.below(8));
  }
  return b;
}

TEST_F(ReaderFuzzTest, LogReadersSurviveByteFlips) {
  const Bytes good = make_log(path("good.v6slog"), kRecords);
  const std::string p = path("mutant.v6slog");
  util::Xoshiro256 rng(11);
  for (int round = 0; round < kFlipRounds; ++round) {
    write_file(p, flip(good, rng, sim::kLogHeaderBytes));
    const std::string what = "flip round " + std::to_string(round);
    EXPECT_EQ(read_log_stdio(p, what), read_log_mapped(p, what)) << what;
  }
}

TEST_F(ReaderFuzzTest, LogReadersSurviveTruncationAtEveryRecordBoundary) {
  const Bytes good = make_log(path("good.v6slog"), kRecords);
  const std::string p = path("mutant.v6slog");
  for (std::size_t k = 0; k <= kRecords; ++k) {
    const std::size_t boundary = sim::kLogHeaderBytes + k * sim::kLogRecordBytes;
    for (const std::size_t len : {boundary - 1, boundary, boundary + 1}) {
      if (len > good.size()) continue;
      write_file(p, Bytes(good.begin(), good.begin() + static_cast<long>(len)));
      const std::string what = "truncated to " + std::to_string(len);
      const Outcome want = len == good.size() ? Outcome::kParsed : Outcome::kRefused;
      EXPECT_EQ(read_log_stdio(p, what), want) << what;
      EXPECT_EQ(read_log_mapped(p, what), want) << what;
    }
  }
}

TEST_F(ReaderFuzzTest, LogReadersRefuseHeadersThatLie) {
  const Bytes good = make_log(path("good.v6slog"), kRecords);
  const std::string p = path("mutant.v6slog");
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  // The count lies about the size.
  for (const std::uint64_t count : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{kRecords - 1},
                                    std::uint64_t{kRecords + 1}, std::uint64_t{2 * kRecords},
                                    kMax / sim::kLogRecordBytes, kMax / sim::kLogRecordBytes + 1,
                                    kMax}) {
    Bytes b = good;
    put_u64(b, 8, count);
    write_file(p, b);
    const std::string what = "count " + std::to_string(count);
    EXPECT_EQ(read_log_stdio(p, what), Outcome::kRefused) << what;
    EXPECT_EQ(read_log_mapped(p, what), Outcome::kRefused) << what;
  }
  // The size lies about the count: trailing bytes, up to one record.
  for (const std::size_t extra : {std::size_t{1}, sim::kLogRecordBytes - 1, sim::kLogRecordBytes}) {
    Bytes b = good;
    b.resize(b.size() + extra, 0xAB);
    write_file(p, b);
    const std::string what = std::to_string(extra) + " trailing bytes";
    EXPECT_EQ(read_log_stdio(p, what), Outcome::kRefused) << what;
    EXPECT_EQ(read_log_mapped(p, what), Outcome::kRefused) << what;
  }
}

TEST_F(ReaderFuzzTest, EventReaderSurvivesByteFlips) {
  std::vector<std::size_t> boundaries;
  const Bytes good = make_events(path("good.v6ev"), kEvents, boundaries);
  const std::string p = path("mutant.v6ev");
  util::Xoshiro256 rng(13);
  std::size_t refused = 0;
  for (int round = 0; round < kFlipRounds; ++round) {
    write_file(p, flip(good, rng, 16));
    refused += read_events(p, "flip round " + std::to_string(round)) == Outcome::kRefused;
  }
  EXPECT_GT(refused, 0u) << "no flip was ever caught: the mutations miss the structure";
}

TEST_F(ReaderFuzzTest, EventReaderSurvivesTruncationAtEveryRecordBoundary) {
  std::vector<std::size_t> boundaries;
  const Bytes good = make_events(path("good.v6ev"), kEvents, boundaries);
  ASSERT_EQ(boundaries.back(), good.size());
  const std::string p = path("mutant.v6ev");
  for (const std::size_t boundary : boundaries) {
    for (const std::size_t len : {boundary - 1, boundary, boundary + 1}) {
      if (len > good.size()) continue;
      write_file(p, Bytes(good.begin(), good.begin() + static_cast<long>(len)));
      const std::string what = "truncated to " + std::to_string(len);
      const Outcome want = len == good.size() ? Outcome::kParsed : Outcome::kRefused;
      EXPECT_EQ(read_events(p, what), want) << what;
    }
  }
}

TEST_F(ReaderFuzzTest, EventReaderSurvivesCountsThatLie) {
  std::vector<std::size_t> boundaries;
  const Bytes good = make_events(path("good.v6ev"), kEvents, boundaries);
  const std::string p = path("mutant.v6ev");
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  // The header's event count: fewer is a valid shorter parse, more is
  // refused at open or when the file runs out.
  for (const std::uint64_t count : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{kEvents - 1},
                                    std::uint64_t{kEvents + 1}, std::uint64_t{10 * kEvents},
                                    kMax / 2, kMax}) {
    Bytes b = good;
    put_u64(b, 8, count);
    write_file(p, b);
    const std::string what = "count " + std::to_string(count);
    const Outcome want = count <= kEvents ? Outcome::kParsed : Outcome::kRefused;
    EXPECT_EQ(read_events(p, what), want) << what;
  }
  // The first event's port-list length: past the file header, then the
  // event's address, prefix length, two times, packets and three u32
  // counters.
  constexpr std::size_t kPortCount = 16 + 16 + 4 + 8 + 8 + 8 + 4 + 4 + 4;
  for (const std::uint32_t n : {std::uint32_t{1'000}, std::uint32_t{1} << 20,
                                std::numeric_limits<std::uint32_t>::max()}) {
    Bytes b = good;
    put_u32(b, kPortCount, n);
    write_file(p, b);
    EXPECT_EQ(read_events(p, "port count " + std::to_string(n)), Outcome::kRefused) << n;
  }
  // Trailing bytes past the claimed events are not read.
  Bytes b = good;
  b.resize(b.size() + 7, 0xCD);
  write_file(p, b);
  EXPECT_EQ(read_events(p, "trailing bytes"), Outcome::kParsed);
}

}  // namespace
}  // namespace v6sonar
