// Binary firewall-log serialization.
//
// The CDN pipeline in the paper works from stored firewall logs; this
// is the equivalent persistent form of our LogRecord stream. Fixed
// 52-byte little-endian records behind a small header. Used by the
// bench harness to generate the 15-month world once and stream it into
// every experiment, and usable as a general interchange format.
//
// One reader, MappedLogReader, serves every consumer: it maps the log,
// validates the header once, and decodes records straight from the
// mapping into caller-provided batches (or hands out the wire images
// themselves). It validates the file shape at open (magic, and that the
// header record count matches the file size exactly) and throws
// std::runtime_error naming the path on any mismatch — a truncated or
// corrupt log is refused up front, never silently short-read. A log
// truncated while it is being read raises SIGBUS, as any mapped read
// does.
//
// Memory is bounded by a window, not by the log: the reader populates
// 32 MiB of the mapping ahead of its cursor and, when the cursor comes
// within 16 MiB of the window's end, releases every page before the
// cursor and populates the next window. Records are fixed-size, so
// skip() only moves the cursor: a resumed run starts reading where its
// checkpoint stopped, and the pages it skips are never touched.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
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

namespace detail {
/// Little-endian load. On little-endian hosts this compiles to a
/// single unaligned load; the byte loop is the big-endian fallback.
template <typename T>
[[nodiscard]] T load_le(const std::uint8_t* p) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    T v;
    std::memcpy(&v, p, sizeof(T));
    return v;
  } else {
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
      v = static_cast<T>(v | static_cast<T>(p[i]) << (8 * i));
    return v;
  }
}
}  // namespace detail

/// Single fields of one record's wire image, read in place: for code
/// that judges records without decoding them whole. Wire layout: ts 0,
/// src 8, dst 24, asn 40, ports 44/46, frame_len 48, proto 50, dns 51.
struct RecordImage {
  const std::uint8_t* p;

  [[nodiscard]] TimeUs ts_us() const noexcept {
    return static_cast<TimeUs>(detail::load_le<std::uint64_t>(p));
  }
  [[nodiscard]] net::Ipv6Address src() const noexcept { return address(8); }
  [[nodiscard]] net::Ipv6Address dst() const noexcept { return address(24); }
  [[nodiscard]] std::uint16_t dst_port() const noexcept {
    return detail::load_le<std::uint16_t>(p + 46);
  }
  [[nodiscard]] wire::IpProto proto() const noexcept { return static_cast<wire::IpProto>(p[50]); }
  [[nodiscard]] net::Ipv6Address address(std::size_t at) const noexcept {
    return {detail::load_le<std::uint64_t>(p + at), detail::load_le<std::uint64_t>(p + at + 8)};
  }
};

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
  /// Append a run of records, encoded into the writer's 1 MiB buffer
  /// (written out with one write(2) whenever it fills).
  void write(std::span<const LogRecord> records);
  /// Append records already in wire form, byte for byte: `images` holds
  /// whole kLogRecordBytes records (std::invalid_argument otherwise). A
  /// run that does not fit the buffer is written straight from `images`.
  void write_images(std::span<const std::uint8_t> images);
  /// Finalize the header (record count), fsync, and close.
  void close();

  [[nodiscard]] std::uint64_t written() const noexcept { return count_; }

 private:
  /// Count `records` appended; start the writeback every few MiB.
  void advance(std::uint64_t records);

  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::uint64_t count_ = 0;
};

/// Zero-copy reader; a RecordStream, so it plugs into the pipeline
/// anywhere a generator does. Maps the whole log and decodes fixed
/// 52-byte records directly from the mapping. The header is validated
/// once at open; next_batch() is then a decode loop over the mapped
/// bytes — no read syscalls, no buffering, no per-record allocation —
/// that slides the populated window (MADV_POPULATE_READ ahead of the
/// cursor, MADV_DONTNEED behind it) every 16 MiB, even inside one long
/// batch. next() slides the same window.
class MappedLogReader final : public RecordStream {
 public:
  explicit MappedLogReader(const std::string& path);
  ~MappedLogReader() override;
  MappedLogReader(const MappedLogReader&) = delete;
  MappedLogReader& operator=(const MappedLogReader&) = delete;

  [[nodiscard]] std::optional<LogRecord> next() override;
  std::size_t next_batch(LogRecord* out, std::size_t max) override;
  /// Moves the cursor past up to `n` records; touches no mapped byte.
  std::uint64_t skip(std::uint64_t n) override;

  /// The wire images of the records from the cursor to the end,
  /// straight from the mapping; valid while the reader lives. Neither
  /// populated nor released by the window: a consumer that works
  /// through it calls release() behind itself.
  [[nodiscard]] std::span<const std::uint8_t> unread() const noexcept;
  /// Hand the mapped pages that lie wholly before `end` (a pointer into
  /// or just past unread()) back to the kernel (MADV_DONTNEED), so a
  /// reader that works through the mapping once keeps only what it is
  /// still reading resident. A later read of those bytes faults them
  /// back in from the file.
  void release(const std::uint8_t* end) noexcept;

  [[nodiscard]] std::uint64_t total_records() const noexcept;
  /// Records consumed or skipped so far (= the cursor into the mapping).
  [[nodiscard]] std::uint64_t position() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace v6sonar::sim
