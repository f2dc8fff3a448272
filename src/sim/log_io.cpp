#include "sim/log_io.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "util/fdio.hpp"
#include "util/metrics.hpp"

namespace v6sonar::sim {

namespace {

using detail::load_le;

constexpr std::size_t kRecordBytes = kLogRecordBytes;
/// LogWriter gathers small appends into one buffer of this size and
/// writes larger runs straight from the caller's bytes.
constexpr std::size_t kBufferBytes = 1 << 20;
/// LogWriter starts the disk writeback of what it has written every
/// this many bytes, so close()'s fsync waits only for the tail instead
/// of the whole file (~0.1 s per 200 MB on a 4-vCPU VM).
constexpr std::uint64_t kWritebackBytes = 4 << 20;
/// MappedLogReader keeps this much of the mapping populated ahead of
/// its cursor, and slides the window (releasing what lies behind the
/// cursor) once the cursor comes within kRefillBytes of its end: the
/// reader's resident set is bounded by the window, not the log.
constexpr std::size_t kWindowBytes = 32 << 20;
constexpr std::size_t kRefillBytes = 16 << 20;

/// Data-plane telemetry (names in docs/OBSERVABILITY.md). Recorded per
/// open / per batch — the per-record next() paths stay untouched.
struct LogIoMetrics {
  util::metrics::Counter bytes_mapped{"log.mmap.bytes_mapped"};
  util::metrics::Counter files_mapped{"log.mmap.files_mapped"};
  util::metrics::Counter mmap_records{"log.mmap.batch_records"};
  /// Batch-size distribution: was the reader actually fed full
  /// batches, or dribbling?
  util::metrics::Histogram mmap_batch{"log.mmap.batch_size"};
};

LogIoMetrics& lm() {
  static LogIoMetrics m;
  return m;
}

/// Little-endian store, the mirror of detail::load_le().
template <typename T>
void store_le(std::uint8_t* p, T v) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

// Wire layout: see RecordImage in the header. Its first 40 bytes — ts
// then the two addresses, each a little-endian u64 sequence — coincide
// with LogRecord's in-memory layout on little-endian hosts, so pack()
// and decode() move them with one bulk copy instead of five field
// stores/loads. (The golden-bytes and roundtrip tests in sim_test pin
// this equivalence.)
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
  explicit Impl(const std::string& path)
      : fd(::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666)) {
    if (!fd.valid()) throw std::runtime_error("log_io: cannot open " + path);
    buf.reserve(kBufferBytes);
    buf.resize(kLogHeaderBytes);  // the count stays 0 until close()
    store_le(buf.data(), kLogMagic);
  }
  void write(std::span<const std::uint8_t> bytes) const {
    if (!util::write_fully(fd.get(), bytes.data(), bytes.size()))
      throw std::runtime_error("log_io: record write failed");
  }
  void drain() {
    write(buf);
    buf.clear();
  }
  util::UniqueFd fd;
  std::vector<std::uint8_t> buf;  ///< bytes not yet written
  std::uint64_t unsynced = 0;     ///< bytes appended since the last writeback start
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
  auto& buf = impl_->buf;
  const std::size_t at = buf.size();
  buf.resize(at + records.size() * kRecordBytes);
  for (std::size_t i = 0; i < records.size(); ++i)
    pack(records[i], buf.data() + at + i * kRecordBytes);
  if (buf.size() >= kBufferBytes) impl_->drain();
  advance(records.size());
}

void LogWriter::write_images(std::span<const std::uint8_t> images) {
  if (images.size() % kRecordBytes != 0)
    throw std::invalid_argument("log_io: partial record image");
  if (!impl_) throw std::runtime_error("log_io: writer closed");
  auto& im = *impl_;
  if (im.buf.size() + images.size() < kBufferBytes) {
    im.buf.insert(im.buf.end(), images.begin(), images.end());
  } else {
    im.drain();
    im.write(images);
  }
  advance(images.size() / kRecordBytes);
}

void LogWriter::advance(std::uint64_t records) {
  count_ += records;
  if ((impl_->unsynced += records * kRecordBytes) >= kWritebackBytes) {
    impl_->drain();
    util::start_writeback(impl_->fd.get());
    impl_->unsynced = 0;
  }
}

void LogWriter::close() {
  if (!impl_) return;
  auto impl = std::move(impl_);  // closed even if the finalize throws
  impl->drain();
  std::uint8_t count[8];
  store_le(count, count_);
  // Same durability contract as EventWriter::close: the backpatched
  // header must reach stable storage before close() reports success.
  if (::pwrite(impl->fd.get(), count, sizeof count, 8) != sizeof count ||
      !util::sync_fd(impl->fd.get()))
    throw std::runtime_error("log_io: header finalize failed");
  if (::close(impl->fd.release()) != 0) throw std::runtime_error("log_io: close failed");
}

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
      // Not MAP_POPULATE: the window is populated from the cursor on
      // the first read, so the records a resumed run skips stay unread.
      void* m = ::mmap(nullptr, map_len, PROT_READ, MAP_PRIVATE, fd, 0);
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

  [[nodiscard]] std::size_t offset(std::uint64_t record) const noexcept {
    return kLogHeaderBytes + static_cast<std::size_t>(record) * kRecordBytes;
  }

  /// Called before reading the record at offset `at`: once the cursor
  /// comes within kRefillBytes of the populated window's end, hand back
  /// every page before it and populate the window up to kWindowBytes
  /// past it. One populate per window replaces ~4k minor faults inside
  /// the decode loop; a kernel without MADV_POPULATE_READ (before Linux
  /// 5.14) takes them lazily instead. Either way the resident set stays
  /// one window, however long the log.
  void ahead(std::size_t at) noexcept {
    if (at < refill_at) return;
    release(at);
    const std::size_t from = std::max(window_end, at / page * page);
    window_end = std::min(map_len, at + kWindowBytes);
    refill_at = window_end == map_len ? SIZE_MAX : window_end - kRefillBytes;
#ifdef MADV_POPULATE_READ
    if (window_end > from)
      ::madvise(const_cast<std::uint8_t*>(base) + from, window_end - from, MADV_POPULATE_READ);
#endif
  }
  /// MADV_DONTNEED the pages wholly before offset `to`.
  void release(std::size_t to) noexcept {
    to = to / page * page;
    if (to <= released) return;
    ::madvise(const_cast<std::uint8_t*>(base) + released, to - released, MADV_DONTNEED);
    released = to;
  }
  void unmap() noexcept {
    if (base) ::munmap(const_cast<std::uint8_t*>(base), map_len);
    base = nullptr;
  }

  std::string path;
  const std::uint8_t* base = nullptr;
  std::size_t map_len = 0;
  std::uint64_t total = 0;
  std::uint64_t pos = 0;
  const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  std::size_t released = 0;    ///< the pages before this offset have been handed back
  std::size_t window_end = 0;  ///< populated up to this offset
  std::size_t refill_at = 0;   ///< ahead() slides the window from this offset on
};

MappedLogReader::MappedLogReader(const std::string& path)
    : impl_(std::make_unique<Impl>(path)) {}
MappedLogReader::~MappedLogReader() = default;

std::optional<LogRecord> MappedLogReader::next() {
  auto& im = *impl_;
  if (im.pos == im.total) return std::nullopt;
  const std::size_t at = im.offset(im.pos++);
  im.ahead(at);
  return decode(im.base + at);
}

std::size_t MappedLogReader::next_batch(LogRecord* out, std::size_t max) {
  auto& im = *impl_;
  const std::size_t n = static_cast<std::size_t>(std::min<std::uint64_t>(im.total - im.pos, max));
  // Decode in slices that end where the window next slides, so a batch
  // longer than a window still reads only populated pages and releases
  // behind itself.
  for (std::size_t done = 0; done < n;) {
    const std::size_t at = im.offset(im.pos);
    im.ahead(at);
    const std::size_t k = std::min(n - done, (im.refill_at - at) / kRecordBytes + 1);
    const std::uint8_t* p = im.base + at;
    for (std::size_t i = 0; i < k; ++i, p += kRecordBytes) out[done + i] = decode(p);
    im.pos += k;
    done += k;
  }
  if (n && util::metrics::enabled()) {
    lm().mmap_records.add(n);
    lm().mmap_batch.observe(n);
  }
  return n;
}

std::uint64_t MappedLogReader::skip(std::uint64_t n) {
  const std::uint64_t k = std::min(n, impl_->total - impl_->pos);
  impl_->pos += k;
  return k;
}

std::span<const std::uint8_t> MappedLogReader::unread() const noexcept {
  return {impl_->base + impl_->offset(impl_->pos),
          static_cast<std::size_t>(impl_->total - impl_->pos) * kRecordBytes};
}

void MappedLogReader::release(const std::uint8_t* end) noexcept {
  impl_->release(static_cast<std::size_t>(end - impl_->base));
}

std::uint64_t MappedLogReader::total_records() const noexcept { return impl_->total; }
std::uint64_t MappedLogReader::position() const noexcept { return impl_->pos; }

}  // namespace v6sonar::sim
