// Tests for the rotation-surviving .v6slog tailer (daemon/log_tail):
// live-append semantics, partial-record buffering, rotation, and
// truncation — the file-ingestion edge cases the daemon smoke exercises
// end to end.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "daemon/log_tail.hpp"
#include "sim/log_io.hpp"

namespace v6sonar::daemon {
namespace {

using sim::LogRecord;

class LogTailTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-process dir: ctest runs tests concurrently as separate
    // processes; a shared dir would race with TearDown's remove_all.
    dir_ = std::filesystem::temp_directory_path() /
           ("v6sonar_tail_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  [[nodiscard]] std::string path(const char* name) const { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

LogRecord record(std::int64_t ts_sec, std::uint64_t src_lo, std::uint64_t dst_lo) {
  LogRecord r;
  r.ts_us = ts_sec * 1'000'000;
  r.src = net::Ipv6Address{0x2A10'0001'0000'0000ULL, src_lo};
  r.dst = net::Ipv6Address{0x2600'0000'0000'0000ULL, dst_lo};
  r.dst_port = 443;
  r.src_asn = 7;
  return r;
}

/// Write a live-file header: magic plus the placeholder count 0 that a
/// still-open LogWriter carries (the tailer must ignore the count).
void write_header(std::FILE* f) {
  std::uint8_t header[sim::kLogHeaderBytes] = {};
  for (int i = 0; i < 8; ++i)
    header[i] = static_cast<std::uint8_t>(sim::kLogMagic >> (8 * i));
  ASSERT_EQ(std::fwrite(header, 1, sizeof header, f), sizeof header);
}

void append_records(const std::string& p, const std::vector<LogRecord>& records,
                    bool create = false) {
  std::FILE* f = std::fopen(p.c_str(), create ? "wb" : "ab");
  ASSERT_NE(f, nullptr);
  if (create) write_header(f);
  for (const auto& r : records) {
    std::uint8_t buf[sim::kLogRecordBytes];
    sim::encode_record(r, buf);
    ASSERT_EQ(std::fwrite(buf, 1, sizeof buf, f), sizeof buf);
  }
  ASSERT_EQ(std::fclose(f), 0);
}

/// Append only the first `n` bytes of one encoded record.
void append_partial(const std::string& p, const LogRecord& r, std::size_t n) {
  std::FILE* f = std::fopen(p.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::uint8_t buf[sim::kLogRecordBytes];
  sim::encode_record(r, buf);
  ASSERT_EQ(std::fwrite(buf, 1, n, f), n);
  ASSERT_EQ(std::fclose(f), 0);
}

std::vector<LogRecord> poll_all(LogTailer& t) {
  std::vector<LogRecord> out;
  t.poll([&](const LogRecord& r) { out.push_back(r); });
  return out;
}

TEST_F(LogTailTest, MissingFileIsNotAnError) {
  LogTailer t(path("never_created.v6slog"));
  EXPECT_TRUE(poll_all(t).empty());
  EXPECT_TRUE(poll_all(t).empty());
  EXPECT_EQ(t.records(), 0u);
}

TEST_F(LogTailTest, ReadsRecordsAsTheyAppear) {
  const auto p = path("grow.v6slog");
  append_records(p, {record(1, 1, 1), record(2, 1, 2), record(3, 1, 3)}, /*create=*/true);
  LogTailer t(p);
  auto got = poll_all(t);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], record(1, 1, 1));
  EXPECT_EQ(got[2], record(3, 1, 3));

  // Nothing new: poll returns empty, no re-reads.
  EXPECT_TRUE(poll_all(t).empty());

  append_records(p, {record(4, 2, 1), record(5, 2, 2)});
  got = poll_all(t);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], record(4, 2, 1));
  EXPECT_EQ(t.records(), 5u);
  EXPECT_EQ(t.rotations(), 0u);
  EXPECT_EQ(t.truncations(), 0u);
}

TEST_F(LogTailTest, FileAppearingAfterConstructionIsPickedUp) {
  const auto p = path("late.v6slog");
  LogTailer t(p);
  EXPECT_TRUE(poll_all(t).empty());
  append_records(p, {record(1, 1, 1)}, /*create=*/true);
  const auto got = poll_all(t);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], record(1, 1, 1));
}

TEST_F(LogTailTest, PartialRecordBuffersUntilComplete) {
  const auto p = path("partial.v6slog");
  append_records(p, {record(1, 1, 1)}, /*create=*/true);
  LogTailer t(p);
  EXPECT_EQ(poll_all(t).size(), 1u);

  // Half a record: appends are not atomic; the tailer must wait.
  const auto next = record(2, 1, 2);
  append_partial(p, next, sim::kLogRecordBytes / 2);
  EXPECT_TRUE(poll_all(t).empty());

  // The remaining bytes complete it.
  {
    std::FILE* f = std::fopen(p.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::uint8_t buf[sim::kLogRecordBytes];
    sim::encode_record(next, buf);
    const std::size_t half = sim::kLogRecordBytes / 2;
    ASSERT_EQ(std::fwrite(buf + half, 1, sim::kLogRecordBytes - half, f),
              sim::kLogRecordBytes - half);
    ASSERT_EQ(std::fclose(f), 0);
  }
  const auto got = poll_all(t);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], next);
}

TEST_F(LogTailTest, PartialHeaderBuffersUntilComplete) {
  const auto p = path("hdr.v6slog");
  {
    std::FILE* f = std::fopen(p.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::uint8_t magic[8];
    for (int i = 0; i < 8; ++i)
      magic[i] = static_cast<std::uint8_t>(sim::kLogMagic >> (8 * i));
    ASSERT_EQ(std::fwrite(magic, 1, sizeof magic, f), sizeof magic);
    ASSERT_EQ(std::fclose(f), 0);
  }
  LogTailer t(p);
  EXPECT_TRUE(poll_all(t).empty());  // 8 of 16 header bytes

  {
    std::FILE* f = std::fopen(p.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const std::uint8_t count[8] = {};
    ASSERT_EQ(std::fwrite(count, 1, sizeof count, f), sizeof count);
    ASSERT_EQ(std::fclose(f), 0);
  }
  append_records(p, {record(1, 1, 1)});
  const auto got = poll_all(t);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], record(1, 1, 1));
}

TEST_F(LogTailTest, RotationDrainsOldFileFirst) {
  const auto p = path("rotate.v6slog");
  append_records(p, {record(1, 1, 1), record(2, 1, 2)}, /*create=*/true);
  LogTailer t(p);
  EXPECT_EQ(poll_all(t).size(), 2u);

  // Collector appends one last record, rotates the file away, and
  // starts a fresh log at the same path.
  append_records(p, {record(3, 1, 3)});
  std::filesystem::rename(p, path("rotate.v6slog.1"));
  append_records(p, {record(4, 2, 1), record(5, 2, 2), record(6, 2, 3)}, /*create=*/true);

  // One poll sees the old file's tail before the new file's records —
  // no loss, no reordering.
  const auto got = poll_all(t);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0], record(3, 1, 3));
  EXPECT_EQ(got[1], record(4, 2, 1));
  EXPECT_EQ(got[3], record(6, 2, 3));
  EXPECT_EQ(t.rotations(), 1u);
  EXPECT_EQ(t.records(), 6u);
}

TEST_F(LogTailTest, FinalizedHeaderCountIsIgnored) {
  // A rotated-away file gets its count backpatched by LogWriter::close;
  // the tailer reads records by size, not by the (now non-zero) count.
  const auto p = path("final.v6slog");
  {
    sim::LogWriter w(p);
    w.write(record(1, 1, 1));
    w.write(record(2, 1, 2));
    w.close();
  }
  LogTailer t(p);
  EXPECT_EQ(poll_all(t).size(), 2u);
  append_records(p, {record(3, 1, 3)});
  EXPECT_EQ(poll_all(t).size(), 1u);
}

TEST_F(LogTailTest, TruncationRestartsFromHeader) {
  const auto p = path("trunc.v6slog");
  append_records(p, {record(1, 1, 1), record(2, 1, 2), record(3, 1, 3)}, /*create=*/true);
  LogTailer t(p);
  EXPECT_EQ(poll_all(t).size(), 3u);

  // The collector truncated and restarted the same inode (e.g.
  // copytruncate-style rotation): size < consumed offset.
  append_records(p, {record(10, 9, 1)}, /*create=*/true);
  const auto got = poll_all(t);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], record(10, 9, 1));
  EXPECT_EQ(t.truncations(), 1u);
  EXPECT_EQ(t.records(), 4u);
}

TEST_F(LogTailTest, WrongMagicThrows) {
  const auto p = path("notalog.v6slog");
  {
    std::FILE* f = std::fopen(p.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[64] = {'n', 'o', 'p', 'e'};
    ASSERT_EQ(std::fwrite(junk, 1, sizeof junk, f), sizeof junk);
    ASSERT_EQ(std::fclose(f), 0);
  }
  LogTailer t(p);
  EXPECT_THROW(poll_all(t), std::runtime_error);
}

/// A backlog of three full polls plus a partial record: the shape
/// v6sonard meets when it starts behind a large log.
class CappedTailTest : public LogTailTest {
 protected:
  static constexpr std::size_t kCap = LogTailer::kMaxPollRecords;

  void SetUp() override {
    LogTailTest::SetUp();
    for (std::size_t i = 0; i < 3 * kCap; ++i)
      backlog_.push_back(record(static_cast<std::int64_t>(i), i % 97, i));
    append_records(path("backlog.v6slog"), backlog_, /*create=*/true);
    append_partial(path("backlog.v6slog"), record(1'000'000, 1, 1), sim::kLogRecordBytes / 3);
  }

  /// Poll until the tailer comes up short; every poll is capped.
  static std::vector<LogRecord> drain(LogTailer& t) {
    std::vector<LogRecord> out;
    for (;;) {
      const std::size_t n = t.poll([&](const LogRecord& r) { out.push_back(r); });
      EXPECT_LE(n, kCap);
      if (n < kCap) return out;
    }
  }

  std::vector<LogRecord> backlog_;
};

TEST_F(CappedTailTest, PollsDeliverTheBacklogInCappedSlices) {
  LogTailer t(path("backlog.v6slog"));
  std::vector<LogRecord> got;
  std::vector<std::size_t> sizes;
  for (std::size_t n; (n = t.poll([&](const LogRecord& r) { got.push_back(r); })) > 0;)
    sizes.push_back(n);
  EXPECT_EQ(sizes, std::vector<std::size_t>(3, kCap));
  EXPECT_EQ(got, backlog_);  // every record, in file order
  EXPECT_EQ(t.records(), 3 * kCap);
}

TEST_F(CappedTailTest, ResumeAfterAnyPollLosesAndRepeatsNothing) {
  const auto p = path("backlog.v6slog");
  LogTailer t(p);
  std::size_t delivered = 0;
  for (int poll = 0; poll <= 3; ++poll) {
    if (poll > 0) delivered += t.poll([](const LogRecord&) {});
    LogTailer resumed(p);
    ASSERT_TRUE(resumed.resume(t.cursor())) << "after poll " << poll;
    const auto rest = drain(resumed);
    EXPECT_TRUE(std::equal(rest.begin(), rest.end(), backlog_.begin() + delivered,
                           backlog_.end()))
        << "after poll " << poll;
    EXPECT_EQ(resumed.records(), backlog_.size()) << "after poll " << poll;
  }
  EXPECT_EQ(delivered, backlog_.size());
}

TEST_F(CappedTailTest, RotationAfterACappedPollDrainsTheOldFileFirst) {
  const auto p = path("backlog.v6slog");
  LogTailer t(p);
  std::vector<LogRecord> got;
  EXPECT_EQ(t.poll([&](const LogRecord& r) { got.push_back(r); }), kCap);

  // The collector rotates while two thirds of the old file are unread.
  std::filesystem::rename(p, path("backlog.v6slog.1"));
  const std::vector<LogRecord> fresh = {record(2'000'000, 5, 1), record(2'000'001, 5, 2)};
  append_records(p, fresh, /*create=*/true);

  const auto rest = drain(t);
  got.insert(got.end(), rest.begin(), rest.end());
  auto want = backlog_;
  want.insert(want.end(), fresh.begin(), fresh.end());
  EXPECT_EQ(got, want);
  EXPECT_EQ(t.rotations(), 1u);
}

}  // namespace
}  // namespace v6sonar::daemon
