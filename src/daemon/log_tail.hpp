// Rotation-surviving .v6slog tailer — v6sonard's file ingestion path.
//
// A telescope collector appends fixed 52-byte records behind the
// 16-byte header; the daemon follows the file like `tail -F`:
//
//   - poll() reads the complete records that have appeared since the
//     last call, at most kMaxPollRecords of them, and hands them to the
//     caller; a larger backlog waits for the next calls, so the
//     caller's batch stays bounded however far behind it is. A partial
//     record at EOF stays buffered until its remaining bytes arrive —
//     appends are not assumed atomic.
//   - Rotation (the collector renames the file away and starts a new
//     one at the same path) is detected by inode change, checked only
//     once the current file is at EOF: the old file is drained first,
//     then the tailer switches to the new file from its header. No
//     records are lost or reordered.
//   - Truncation (size shrank below our offset) restarts from the
//     header; the overwritten tail cannot be recovered and is counted.
//   - A path that does not exist yet is not an error — poll() simply
//     returns 0 until the collector creates it.
//
// The header's record count is ignored: live files carry the
// placeholder 0 until LogWriter::close() backpatches it. The magic is
// verified once per file; a wrong magic throws (tailing a non-log file
// is a configuration error, not a transient).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/log_io.hpp"
#include "sim/record.hpp"
#include "util/fdio.hpp"

namespace v6sonar::daemon {

class LogTailer {
 public:
  using RecordFn = std::function<void(const sim::LogRecord&)>;

  /// Records one poll() delivers at most.
  static constexpr std::size_t kMaxPollRecords = std::size_t{64} * 1024;

  explicit LogTailer(std::string path);

  /// Decode the complete records currently available, up to
  /// kMaxPollRecords (draining a rotated-away file before switching),
  /// and call `fn` for each, in file order. Returns the number of
  /// records delivered; fewer than kMaxPollRecords means the tailer
  /// has caught up. Never blocks.
  std::size_t poll(const RecordFn& fn);

  /// Where a restart continues: the current file's identity, the byte
  /// offset just past the last whole record delivered, and the records
  /// delivered so far. Zero identity and offset before any file opened.
  struct Cursor { std::uint64_t dev = 0, ino = 0, offset = 0, records = 0; };
  [[nodiscard]] Cursor cursor() const noexcept {
    return {dev_, ino_, offset_ - pending_.size(), records_};
  }
  /// Continue from an earlier tailer's cursor(), before the first
  /// poll(). Reading resumes at `c.offset` if the path still names that
  /// file and it is at least that long; otherwise the file was rotated
  /// or replaced since, and it is read from its header (returns false).
  bool resume(const Cursor& c);

  /// Counters, readable from any thread while another one polls.
  [[nodiscard]] std::uint64_t records() const noexcept { return records_; }
  [[nodiscard]] std::uint64_t rotations() const noexcept { return rotations_; }
  [[nodiscard]] std::uint64_t truncations() const noexcept { return truncations_; }

 private:
  bool ensure_open();
  void close_current() noexcept;
  /// Deliver up to `budget` records of the current file; sets `at_eof`
  /// once every byte of it has been read.
  std::size_t drain_fd(const RecordFn& fn, std::size_t budget, bool& at_eof);

  std::string path_;
  util::UniqueFd fd_;
  std::uint64_t ino_ = 0;
  std::uint64_t dev_ = 0;
  std::uint64_t offset_ = 0;   ///< bytes consumed of the current file
  bool header_ok_ = false;     ///< magic verified for the current file
  std::vector<std::uint8_t> pending_;  ///< partial record/header bytes

  std::atomic<std::uint64_t> records_{0}, rotations_{0}, truncations_{0};
};

}  // namespace v6sonar::daemon
