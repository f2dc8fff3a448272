#include "core/event_io.hpp"

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "util/fdio.hpp"
#include "util/metrics.hpp"

namespace v6sonar::core {

namespace {

constexpr std::uint64_t kMagic = 0x56'36'45'56'54'53'30'31ULL;  // "V6EVTS01"
constexpr std::size_t kHeaderBytes = 16;  // magic + count
/// Fixed bytes per event record (source hi/lo/len, timestamps,
/// counters, and the two list-length prefixes).
constexpr std::uint64_t kFixedEventBytes = 8 + 8 + 4 + 8 + 8 + 8 + 4 + 4 + 4 + 4 + 4;
constexpr std::size_t kPortEntryBytes = 2 + 8;
constexpr std::size_t kWeekEntryBytes = 4 + 8;

struct File {
  std::FILE* f = nullptr;
  File(const std::string& path, const char* mode) : f(std::fopen(path.c_str(), mode)) {
    if (!f) throw std::runtime_error("event_io: cannot open " + path);
  }
  ~File() {
    if (f) std::fclose(f);
  }
};

void put(std::FILE* f, const void* p, std::size_t n) {
  if (std::fwrite(p, 1, n, f) != n) throw std::runtime_error("event_io: write failed");
}

template <typename T>
void put_v(std::FILE* f, T v) {
  put(f, &v, sizeof v);
}

/// Append the bytes of `v` to an encode buffer: grow, then copy (a
/// range insert here draws a false -Wstringop-overflow from GCC 12 at
/// -O3).
template <typename T>
void append(std::vector<unsigned char>& buf, T v) {
  const std::size_t at = buf.size();
  buf.resize(at + sizeof v);
  std::memcpy(buf.data() + at, &v, sizeof v);
}

/// Decode the next `T` of a read buffer.
template <typename T>
T take(const unsigned char*& p) {
  T v;
  std::memcpy(&v, p, sizeof v);
  p += sizeof v;
  return v;
}

}  // namespace

// ------------------------------------------------------------------ //

struct EventWriter::Impl {
  File file;
  std::string path;
  /// Append position in bytes, header included — tracked explicitly
  /// (never via ftell) so checkpoint_sync() can seek back after the
  /// header backpatch and offset() is cheap.
  std::uint64_t pos = 0;
  bool durable = true;  ///< false for scratch spills: close() skips the fsync
  std::vector<unsigned char> buf;  ///< one event's encoding, written with one fwrite
  Impl(const std::string& p, const char* mode, Durability d)
      : file(p, mode), path(p), durable(d == Durability::kDurable) {
    // Scratch spills hold one shard's events each: a smaller buffer
    // keeps N of them from adding N MB to a parallel run's footprint.
    std::setvbuf(file.f, nullptr, _IOFBF, durable ? 1 << 20 : 1 << 16);
  }
};

EventWriter::EventWriter(const std::string& path, Durability d)
    : impl_(std::make_unique<Impl>(path, "wb", d)) {
  put_v(impl_->file.f, kMagic);
  // Count placeholder; close() backpatches the real value, so an
  // interrupted run is detectable (count 0 with trailing bytes).
  put_v<std::uint64_t>(impl_->file.f, 0);
  impl_->pos = kHeaderBytes;
}

EventWriter::EventWriter(const std::string& path, std::uint64_t resume_count,
                         std::uint64_t resume_offset, Durability d)
    : impl_(std::make_unique<Impl>(path, "r+b", d)), count_(resume_count) {
  if (resume_offset < kHeaderBytes)
    throw std::runtime_error("event_io: bad resume offset for " + path);
  std::FILE* f = impl_->file.f;
  std::uint64_t magic = 0;
  if (std::fread(&magic, 1, sizeof magic, f) != sizeof magic || magic != kMagic)
    throw std::runtime_error("event_io: not an event file: " + path);
  // Drop anything written after the checkpoint — those events will be
  // re-emitted by the resumed run.
  if (util::truncate_file(f, resume_offset) != 0 ||
      std::fseek(f, static_cast<long>(resume_offset), SEEK_SET) != 0)
    throw std::runtime_error("event_io: cannot truncate " + path + " for resume");
  impl_->pos = resume_offset;
}

EventWriter::~EventWriter() {
  try {
    close();
  } catch (...) {  // destructor must not throw; call close() to see errors
  }
}

void EventWriter::on_event(ScanEvent&& ev) {
  if (!impl_) throw std::runtime_error("event_io: writer closed");
  std::vector<unsigned char>& b = impl_->buf;
  b.clear();
  append(b, ev.source.address().hi());
  append(b, ev.source.address().lo());
  append<std::int32_t>(b, ev.source.length());
  append(b, ev.first_us);
  append(b, ev.last_us);
  append(b, ev.packets);
  append(b, ev.distinct_dsts);
  append(b, ev.distinct_dsts_in_dns);
  append(b, ev.src_asn);
  append<std::uint32_t>(b, static_cast<std::uint32_t>(ev.port_packets.size()));
  for (const auto& [port, n] : ev.port_packets) {
    append(b, port);
    append(b, n);
  }
  append<std::uint32_t>(b, static_cast<std::uint32_t>(ev.weekly_packets.size()));
  for (const auto& [week, n] : ev.weekly_packets) {
    append(b, week);
    append(b, n);
  }
  put(impl_->file.f, b.data(), b.size());
  ++count_;
  impl_->pos += b.size();
}

std::uint64_t EventWriter::offset() const noexcept { return impl_ ? impl_->pos : 0; }

void EventWriter::checkpoint_sync() {
  if (!impl_) throw std::runtime_error("event_io: writer closed");
  std::FILE* f = impl_->file.f;
  if (std::fseek(f, 8, SEEK_SET) != 0 ||
      std::fwrite(&count_, 1, sizeof count_, f) != sizeof count_ ||
      !util::flush_to_disk(f) ||
      std::fseek(f, static_cast<long>(impl_->pos), SEEK_SET) != 0)
    throw std::runtime_error("event_io: checkpoint sync failed for " + impl_->path);
}

void EventWriter::close() {
  if (!impl_) return;
  auto impl = std::move(impl_);  // closed even if the finalize throws
  std::FILE* f = impl->file.f;
  // Backpatch the count, then push a durable file all the way to
  // stable storage: an fflush alone leaves the header (and the tail of
  // the event stream) in page cache, where a crash after close()
  // returned success could still drop it — leaving a header that
  // claims N events backed by nothing.
  if (std::fseek(f, 8, SEEK_SET) != 0 ||
      std::fwrite(&count_, 1, sizeof count_, f) != sizeof count_ ||
      !(impl->durable ? util::flush_to_disk(f) : std::fflush(f) == 0))
    throw std::runtime_error("event_io: header finalize failed for " + impl->path);
  impl->file.f = nullptr;  // File dtor must not double-close
  if (std::fclose(f) != 0)
    throw std::runtime_error("event_io: close failed for " + impl->path);
}

// ------------------------------------------------------------------ //

struct EventReader::Impl {
  File file;
  std::string path;
  std::uint64_t file_size = 0;
  /// Bytes consumed so far (header included). Tracked explicitly so
  /// the "does this list length fit in the file" corruption checks
  /// never consult ftell — a transient ftell/fread failure used to be
  /// indistinguishable from a corrupt count.
  std::uint64_t pos = 0;
  util::metrics::Histogram batch_size{"report.reader.batch_size"};
  std::vector<unsigned char> buf;  ///< one event's list bytes, read with one fread
  explicit Impl(const std::string& p) : file(p, "rb"), path(p) {}

  /// Read exactly n bytes. Distinguishes an I/O error (ferror) from
  /// running out of file (truncation) in the thrown message.
  void read_bytes(void* p, std::size_t n) {
    if (std::fread(p, 1, n, file.f) != n) {
      if (std::ferror(file.f))
        throw std::runtime_error("event_io: read failed (I/O error) in " + path);
      throw std::runtime_error("event_io: truncated file " + path);
    }
    pos += n;
  }

  template <typename T>
  T get() {
    T v{};
    read_bytes(&v, sizeof v);
    return v;
  }

  /// Payload bytes left in the file after the current position.
  [[nodiscard]] std::uint64_t remaining() const noexcept {
    return pos > file_size ? 0 : file_size - pos;
  }
};

EventReader::EventReader(const std::string& path, std::size_t buffer_bytes)
    : impl_(std::make_unique<Impl>(path)) {
  std::setvbuf(impl_->file.f, nullptr, _IOFBF, buffer_bytes);
  std::FILE* f = impl_->file.f;
  long size = 0;
  if (std::fseek(f, 0, SEEK_END) != 0 || (size = std::ftell(f)) < 0 ||
      std::fseek(f, 0, SEEK_SET) != 0)
    throw std::runtime_error("event_io: cannot stat " + path);
  impl_->file_size = static_cast<std::uint64_t>(size);
  if (impl_->file_size < kHeaderBytes)
    throw std::runtime_error("event_io: truncated header in " + path);
  if (impl_->get<std::uint64_t>() != kMagic)
    throw std::runtime_error("event_io: not an event file: " + path);
  total_ = impl_->get<std::uint64_t>();
  // Shape check in the MappedLogReader mold: every event occupies at
  // least its fixed bytes, so a garbage count is caught at open
  // instead of over-reserving downstream.
  const std::uint64_t body = impl_->file_size - kHeaderBytes;
  if (total_ > body / kFixedEventBytes)
    throw std::runtime_error("event_io: header claims " + std::to_string(total_) +
                             " events but " + path + " has only " + std::to_string(body) +
                             " payload bytes");
}

EventReader::~EventReader() = default;

bool EventReader::next(ScanEvent& out) {
  if (read_ >= total_) return false;
  Impl& im = *impl_;
  ScanEvent ev;
  // The fixed header up to and including the port count, in one read.
  unsigned char head[kFixedEventBytes - 4];
  im.read_bytes(head, sizeof head);
  const unsigned char* p = head;
  const auto hi = take<std::uint64_t>(p);
  const auto lo = take<std::uint64_t>(p);
  const auto len = take<std::int32_t>(p);
  if (len < 0 || len > 128)
    throw std::runtime_error("event_io: corrupt prefix length in " + im.path);
  ev.source = net::Ipv6Prefix{net::Ipv6Address{hi, lo}, len};
  ev.first_us = take<sim::TimeUs>(p);
  ev.last_us = take<sim::TimeUs>(p);
  ev.packets = take<std::uint64_t>(p);
  ev.distinct_dsts = take<std::uint32_t>(p);
  ev.distinct_dsts_in_dns = take<std::uint32_t>(p);
  ev.src_asn = take<std::uint32_t>(p);
  // Bound each list length by the bytes actually left in the file, so
  // a corrupt length throws instead of reserving gigabytes. remaining()
  // is derived from the tracked offset, never from ftell — an I/O
  // failure surfaces from read_bytes() as "read failed", and can no
  // longer masquerade as a corrupt count.
  const auto nports = take<std::uint32_t>(p);
  if (nports > im.remaining() / kPortEntryBytes)
    throw std::runtime_error("event_io: corrupt port count in " + im.path);
  // The port list plus the week count after it, in one read.
  im.buf.resize(nports * kPortEntryBytes + 4);
  im.read_bytes(im.buf.data(), im.buf.size());
  p = im.buf.data();
  ev.port_packets.reserve(nports);
  for (std::uint32_t i = 0; i < nports; ++i) {
    const auto port = take<std::uint16_t>(p);
    ev.port_packets.emplace_back(port, take<std::uint64_t>(p));
  }
  const auto nweeks = take<std::uint32_t>(p);
  if (nweeks > im.remaining() / kWeekEntryBytes)
    throw std::runtime_error("event_io: corrupt week count in " + im.path);
  im.buf.resize(nweeks * kWeekEntryBytes);
  if (nweeks != 0) im.read_bytes(im.buf.data(), im.buf.size());
  p = im.buf.data();
  ev.weekly_packets.reserve(nweeks);
  for (std::uint32_t i = 0; i < nweeks; ++i) {
    const auto week = take<std::int32_t>(p);
    ev.weekly_packets.emplace_back(week, take<std::uint64_t>(p));
  }
  ++read_;
  out = std::move(ev);
  return true;
}

std::size_t EventReader::next_batch(ScanEvent* out, std::size_t max) {
  std::size_t n = 0;
  while (n < max && next(out[n])) ++n;
  if (n > 0) impl_->batch_size.observe(n);
  return n;
}

// ------------------------------------------------------------------ //

void write_events(const std::string& path, const std::vector<ScanEvent>& events) {
  EventWriter writer(path);
  for (const auto& ev : events) {
    ScanEvent copy = ev;
    writer.on_event(std::move(copy));
  }
  writer.close();
}

std::vector<ScanEvent> read_events(const std::string& path) {
  EventReader reader(path);
  std::vector<ScanEvent> events;
  events.reserve(reader.total_events());
  ScanEvent ev;
  while (reader.next(ev)) events.push_back(std::move(ev));
  return events;
}

}  // namespace v6sonar::core
