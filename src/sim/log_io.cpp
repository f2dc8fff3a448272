#include "sim/log_io.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "util/fdio.hpp"
#include "util/metrics.hpp"

namespace v6sonar::sim {

namespace {

constexpr std::size_t kRecordBytes = kLogRecordBytes;
/// LogWriter starts the disk writeback of what it has written every
/// this many bytes, so close()'s fsync waits only for the tail instead
/// of the whole file (~0.1 s per 200 MB on a 4-vCPU VM).
constexpr std::uint64_t kWritebackBytes = 4 << 20;

/// Data-plane telemetry (names in docs/OBSERVABILITY.md). Recorded per
/// open / per batch — the per-record next() paths stay untouched.
struct LogIoMetrics {
  util::metrics::Counter bytes_mapped{"log.mmap.bytes_mapped"};
  util::metrics::Counter files_mapped{"log.mmap.files_mapped"};
  util::metrics::Counter mmap_records{"log.mmap.batch_records"};
  util::metrics::Counter stdio_records{"log.stdio.batch_records"};
  /// Batch-size distributions: was the reader actually fed full
  /// batches, or dribbling?
  util::metrics::Histogram mmap_batch{"log.mmap.batch_size"};
  util::metrics::Histogram stdio_batch{"log.stdio.batch_size"};
};

LogIoMetrics& lm() {
  static LogIoMetrics m;
  return m;
}

/// Little-endian load. On little-endian hosts this compiles to a
/// single unaligned load; the byte loop is the big-endian fallback.
template <typename T>
T load_le(const std::uint8_t* p) noexcept {
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

/// Little-endian store, the mirror of load_le().
template <typename T>
void store_le(std::uint8_t* p, T v) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

// Wire layout: ts 0, src 8, dst 24, asn 40, ports 44/46, frame_len 48,
// proto 50, dns 51. Its first 40 bytes — ts then the two addresses,
// each a little-endian u64 sequence — coincide with LogRecord's
// in-memory layout on little-endian hosts, so pack() and decode() move
// them with one bulk copy instead of five field stores/loads. (The
// golden-bytes and roundtrip tests in sim_test pin this equivalence.)
static_assert(offsetof(LogRecord, ts_us) == 0 && offsetof(LogRecord, src) == 8 &&
              offsetof(LogRecord, dst) == 24);
static_assert(std::is_trivially_copyable_v<LogRecord>);

/// Serialize one record into its kRecordBytes wire form.
void pack(const LogRecord& r, std::uint8_t* out) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, &r, 40);
  } else {
    store_le(out, static_cast<std::uint64_t>(r.ts_us));
    store_le(out + 8, r.src.hi());
    store_le(out + 16, r.src.lo());
    store_le(out + 24, r.dst.hi());
    store_le(out + 32, r.dst.lo());
  }
  store_le(out + 40, r.src_asn);
  store_le(out + 44, r.src_port);
  store_le(out + 46, r.dst_port);
  store_le(out + 48, r.frame_len);
  out[50] = static_cast<std::uint8_t>(r.proto);
  out[51] = r.dst_in_dns ? 1 : 0;
}

/// The inverse of pack().
LogRecord decode(const std::uint8_t* p) noexcept {
  LogRecord r;
  if constexpr (std::endian::native == std::endian::little) {
    // void* cast: the partial (40-byte) overwrite is intentional — the
    // remaining fields are decoded right below — and trivially
    // copyable per the assert; GCC's -Wclass-memaccess can't see that.
    std::memcpy(static_cast<void*>(&r), p, 40);
  } else {
    r.ts_us = static_cast<TimeUs>(load_le<std::uint64_t>(p));
    r.src = net::Ipv6Address{load_le<std::uint64_t>(p + 8), load_le<std::uint64_t>(p + 16)};
    r.dst = net::Ipv6Address{load_le<std::uint64_t>(p + 24), load_le<std::uint64_t>(p + 32)};
  }
  r.src_asn = load_le<std::uint32_t>(p + 40);
  r.src_port = load_le<std::uint16_t>(p + 44);
  r.dst_port = load_le<std::uint16_t>(p + 46);
  r.frame_len = load_le<std::uint16_t>(p + 48);
  r.proto = static_cast<wire::IpProto>(p[50]);
  r.dst_in_dns = p[51] != 0;
  return r;
}

struct File {
  std::FILE* f = nullptr;
  File(const std::string& path, const char* mode) : f(std::fopen(path.c_str(), mode)) {
    if (!f) throw std::runtime_error("log_io: cannot open " + path);
  }
  ~File() {
    if (f) std::fclose(f);
  }
};

/// Shared open-time shape validation: the header count must match the
/// file size exactly. Errors name the path — a truncated or corrupt
/// log is a data problem the operator locates by file, not a crash.
std::uint64_t validate_header(const std::string& path, const std::uint8_t* header,
                              std::uint64_t file_size) {
  if (file_size < kLogHeaderBytes)
    throw std::runtime_error("log_io: truncated header (" + std::to_string(file_size) +
                             " bytes): " + path);
  if (load_le<std::uint64_t>(header) != kLogMagic)
    throw std::runtime_error("log_io: not a v6sonar log: " + path);
  const std::uint64_t total = load_le<std::uint64_t>(header + 8);
  const std::uint64_t body = file_size - kLogHeaderBytes;
  if (total > body / kRecordBytes || total * kRecordBytes != body)
    throw std::runtime_error("log_io: header claims " + std::to_string(total) +
                             " records but file holds " + std::to_string(body) +
                             " record bytes: " + path);
  return total;
}

}  // namespace

void encode_record(const LogRecord& r, std::uint8_t* out) noexcept { pack(r, out); }

LogRecord decode_record(const std::uint8_t* p) noexcept { return decode(p); }

struct LogWriter::Impl {
  explicit Impl(const std::string& path) : file(path, "wb") {
    std::setvbuf(file.f, nullptr, _IOFBF, 1 << 20);
    std::uint8_t header[kLogHeaderBytes] = {};
    for (int i = 0; i < 8; ++i) header[i] = static_cast<std::uint8_t>(kLogMagic >> (8 * i));
    if (std::fwrite(header, 1, sizeof header, file.f) != sizeof header)
      throw std::runtime_error("log_io: header write failed");
  }
  File file;
  std::vector<std::uint8_t> staging;  ///< write() encode buffer
  std::uint64_t unsynced = 0;         ///< bytes written since the last writeback start
};

LogWriter::LogWriter(const std::string& path) : impl_(std::make_unique<Impl>(path)) {}
LogWriter::~LogWriter() {
  try {
    close();
  } catch (...) {
    // Destructor must not throw; an incomplete file is detectable by
    // its header count (0) mismatching the file size.
  }
}

void LogWriter::write(const LogRecord& r) { write(std::span<const LogRecord>(&r, 1)); }

void LogWriter::write(std::span<const LogRecord> records) {
  if (!impl_) throw std::runtime_error("log_io: writer closed");
  auto& buf = impl_->staging;
  buf.resize(records.size() * kRecordBytes);
  for (std::size_t i = 0; i < records.size(); ++i) pack(records[i], buf.data() + i * kRecordBytes);
  if (std::fwrite(buf.data(), 1, buf.size(), impl_->file.f) != buf.size())
    throw std::runtime_error("log_io: record write failed");
  count_ += records.size();
  if ((impl_->unsynced += buf.size()) >= kWritebackBytes) {
    if (!util::start_writeback(impl_->file.f))
      throw std::runtime_error("log_io: record write failed");
    impl_->unsynced = 0;
  }
}

void LogWriter::close() {
  if (!impl_) return;
  auto impl = std::move(impl_);  // closed even if the finalize throws
  std::uint8_t count[8];
  for (int i = 0; i < 8; ++i) count[i] = static_cast<std::uint8_t>(count_ >> (8 * i));
  // Same durability contract as EventWriter::close: the backpatched
  // header must reach stable storage before close() reports success.
  if (std::fseek(impl->file.f, 8, SEEK_SET) != 0 ||
      std::fwrite(count, 1, 8, impl->file.f) != 8 || !util::flush_to_disk(impl->file.f))
    throw std::runtime_error("log_io: header finalize failed");
  std::FILE* f = impl->file.f;
  impl->file.f = nullptr;  // File dtor must not double-close
  if (std::fclose(f) != 0) throw std::runtime_error("log_io: close failed");
}

struct LogReader::Impl {
  explicit Impl(const std::string& p) : path(p), file(p, "rb") {
    std::setvbuf(file.f, nullptr, _IOFBF, 1 << 20);
    if (std::fseek(file.f, 0, SEEK_END) != 0)
      throw std::runtime_error("log_io: cannot size " + path);
    const long size = std::ftell(file.f);
    if (size < 0 || std::fseek(file.f, 0, SEEK_SET) != 0)
      throw std::runtime_error("log_io: cannot size " + path);
    std::uint8_t header[kLogHeaderBytes] = {};
    const std::size_t got = std::fread(header, 1, sizeof header, file.f);
    if (got != sizeof header)
      throw std::runtime_error("log_io: truncated header (" + std::to_string(got) +
                               " bytes): " + path);
    total = validate_header(path, header, static_cast<std::uint64_t>(size));
  }
  std::string path;
  File file;
  std::uint64_t total = 0;
  std::vector<std::uint8_t> batch_buf;  ///< next_batch() staging
};

LogReader::LogReader(const std::string& path) : impl_(std::make_unique<Impl>(path)) {}
LogReader::~LogReader() = default;

std::optional<LogRecord> LogReader::next() {
  std::array<std::uint8_t, kRecordBytes> buf;
  const std::size_t got = std::fread(buf.data(), 1, buf.size(), impl_->file.f);
  if (got == 0) return std::nullopt;
  if (got != buf.size())
    throw std::runtime_error("log_io: truncated record in " + impl_->path);
  return decode(buf.data());
}

std::size_t LogReader::next_batch(LogRecord* out, std::size_t max) {
  if (max == 0) return 0;
  auto& buf = impl_->batch_buf;
  buf.resize(max * kRecordBytes);
  const std::size_t got = std::fread(buf.data(), 1, buf.size(), impl_->file.f);
  if (got % kRecordBytes != 0)
    throw std::runtime_error("log_io: truncated record in " + impl_->path);
  const std::size_t n = got / kRecordBytes;
  for (std::size_t i = 0; i < n; ++i) out[i] = decode(buf.data() + i * kRecordBytes);
  if (n && util::metrics::enabled()) {
    lm().stdio_records.add(n);
    lm().stdio_batch.observe(n);
  }
  return n;
}

std::uint64_t LogReader::total_records() const noexcept { return impl_->total; }

struct MappedLogReader::Impl {
  explicit Impl(const std::string& p) : path(p) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) throw std::runtime_error("log_io: cannot open " + path);
    struct ::stat st = {};
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      throw std::runtime_error("log_io: cannot stat " + path);
    }
    map_len = static_cast<std::size_t>(st.st_size);
    if (map_len > 0) {
      // MAP_POPULATE prefaults the whole file in one go — a replay
      // touches every page exactly once anyway, and taking ~50k minor
      // faults inside the decode loop costs more than batching them
      // at open. Fall back to a plain mapping if the kernel refuses.
      void* m = ::mmap(nullptr, map_len, PROT_READ, MAP_PRIVATE | MAP_POPULATE, fd, 0);
      if (m == MAP_FAILED) m = ::mmap(nullptr, map_len, PROT_READ, MAP_PRIVATE, fd, 0);
      ::close(fd);
      if (m == MAP_FAILED) throw std::runtime_error("log_io: cannot mmap " + path);
      base = static_cast<const std::uint8_t*>(m);
      ::madvise(m, map_len, MADV_SEQUENTIAL);
    } else {
      ::close(fd);
    }
    try {
      total = validate_header(path, base, map_len);
    } catch (...) {
      unmap();
      throw;
    }
    lm().files_mapped.add();
    lm().bytes_mapped.add(map_len);
  }
  ~Impl() { unmap(); }
  void unmap() noexcept {
    if (base) ::munmap(const_cast<std::uint8_t*>(base), map_len);
    base = nullptr;
  }

  std::string path;
  const std::uint8_t* base = nullptr;
  std::size_t map_len = 0;
  std::uint64_t total = 0;
  std::uint64_t pos = 0;
};

MappedLogReader::MappedLogReader(const std::string& path)
    : impl_(std::make_unique<Impl>(path)) {}
MappedLogReader::~MappedLogReader() = default;

std::optional<LogRecord> MappedLogReader::next() {
  if (impl_->pos == impl_->total) return std::nullopt;
  return decode(impl_->base + kLogHeaderBytes + impl_->pos++ * kRecordBytes);
}

std::size_t MappedLogReader::next_batch(LogRecord* out, std::size_t max) {
  const std::uint64_t remaining = impl_->total - impl_->pos;
  const std::size_t n =
      static_cast<std::size_t>(remaining < max ? remaining : static_cast<std::uint64_t>(max));
  const std::uint8_t* p = impl_->base + kLogHeaderBytes + impl_->pos * kRecordBytes;
  for (std::size_t i = 0; i < n; ++i, p += kRecordBytes) out[i] = decode(p);
  impl_->pos += n;
  if (n && util::metrics::enabled()) {
    lm().mmap_records.add(n);
    lm().mmap_batch.observe(n);
  }
  return n;
}

std::uint64_t MappedLogReader::total_records() const noexcept { return impl_->total; }
std::uint64_t MappedLogReader::position() const noexcept { return impl_->pos; }
void MappedLogReader::rewind() noexcept { impl_->pos = 0; }

}  // namespace v6sonar::sim
