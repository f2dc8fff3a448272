// Binary firewall-log serialization.
//
// The CDN pipeline in the paper works from stored firewall logs; this
// is the equivalent persistent form of our LogRecord stream. Fixed
// 52-byte little-endian records behind a small header. Used by the
// bench harness to generate the 15-month world once and stream it into
// every experiment, and usable as a general interchange format.
//
// Two readers share the format:
//   LogReader        buffered stdio, record-at-a-time or batched
//   MappedLogReader  mmap-backed, zero-copy: the header is validated
//                    once and records are decoded straight from the
//                    mapping into caller-provided batches — the fast
//                    path of the batched data plane (replay cost is
//                    the decode loop, no per-record syscalls/copies).
//
// Both validate the file shape at open (magic, and that the header
// record count matches the file size exactly) and throw
// std::runtime_error naming the path on any mismatch — a truncated or
// corrupt log is refused up front, never silently short-read.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "sim/record.hpp"

namespace v6sonar::sim {

inline constexpr std::uint64_t kLogMagic = 0x56'36'53'4C'4F'47'30'31ULL;  // "V6SLOG01"

/// Serialized record size; the on-disk layout is fixed little-endian.
inline constexpr std::size_t kLogRecordBytes = 52;
/// File header: magic + record count.
inline constexpr std::size_t kLogHeaderBytes = 16;

/// Serialize one record into a kLogRecordBytes buffer (the fixed
/// little-endian wire layout shared by the log files and the daemon's
/// socket-ingest frames).
void encode_record(const LogRecord& r, std::uint8_t* out) noexcept;

/// Decode one record from a kLogRecordBytes buffer. The layout has no
/// invalid encodings, so this cannot fail.
[[nodiscard]] LogRecord decode_record(const std::uint8_t* p) noexcept;

/// Streaming writer. Throws std::runtime_error on I/O errors. Starts
/// the disk writeback of what it has written every few MiB, so the
/// fsync in close() waits only for the tail.
class LogWriter {
 public:
  explicit LogWriter(const std::string& path);
  ~LogWriter();
  LogWriter(const LogWriter&) = delete;
  LogWriter& operator=(const LogWriter&) = delete;

  void write(const LogRecord& r);
  /// Append a run of records: encoded into one staging buffer and
  /// handed to stdio with a single fwrite.
  void write(std::span<const LogRecord> records);
  /// Finalize the header (record count), fsync, and close.
  void close();

  [[nodiscard]] std::uint64_t written() const noexcept { return count_; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::uint64_t count_ = 0;
};

/// Streaming reader; a RecordStream, so it plugs into the pipeline
/// anywhere a generator does. next_batch() amortizes the stdio read
/// over whole batches.
class LogReader final : public RecordStream {
 public:
  explicit LogReader(const std::string& path);
  ~LogReader() override;
  LogReader(const LogReader&) = delete;
  LogReader& operator=(const LogReader&) = delete;

  [[nodiscard]] std::optional<LogRecord> next() override;
  std::size_t next_batch(LogRecord* out, std::size_t max) override;

  [[nodiscard]] std::uint64_t total_records() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Zero-copy reader: maps the whole log and decodes fixed 52-byte
/// records directly from the mapping. The header is validated once at
/// open; next_batch() is then a pure decode loop over the mapped
/// bytes — no syscalls, no buffering, no per-record allocation.
class MappedLogReader final : public RecordStream {
 public:
  explicit MappedLogReader(const std::string& path);
  ~MappedLogReader() override;
  MappedLogReader(const MappedLogReader&) = delete;
  MappedLogReader& operator=(const MappedLogReader&) = delete;

  [[nodiscard]] std::optional<LogRecord> next() override;
  std::size_t next_batch(LogRecord* out, std::size_t max) override;

  [[nodiscard]] std::uint64_t total_records() const noexcept;
  /// Records consumed so far (= the cursor into the mapping).
  [[nodiscard]] std::uint64_t position() const noexcept;
  /// Rewind to the first record (replays reuse one mapping).
  void rewind() noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace v6sonar::sim
