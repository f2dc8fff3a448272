#include "core/state_codec.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "util/crc32.hpp"
#include "util/fdio.hpp"
#include "util/metrics.hpp"

namespace v6sonar::core {

namespace {

constexpr char kMagic[8] = {'V', '6', 'C', 'K', 'P', 'T', '0', '1'};
constexpr std::uint32_t kFormatVersion = 1;

struct CheckpointMetrics {
  util::metrics::Histogram commit_us{"checkpoint.commit_us"};
  util::metrics::Counter bytes{"checkpoint.bytes"};
  util::metrics::Histogram load_us{"checkpoint.load_us"};
};

CheckpointMetrics& ckpt_metrics() {
  static CheckpointMetrics m;
  return m;
}

[[nodiscard]] std::uint64_t micros_since(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                        std::chrono::steady_clock::now() - t0)
                                        .count());
}

[[nodiscard]] std::string dir_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".") : path.substr(0, slash + 1);
}

}  // namespace

CheckpointSection::CheckpointSection(std::string name, util::StateWriter&& payload)
    : name_(std::move(name)), payload_(std::move(payload)) {
  const auto bytes = payload_.bytes();
  crc_ = util::crc32(bytes.data(), bytes.size());
}

void CheckpointWriter::add(CheckpointSection&& section) {
  for (const auto& s : sections_)
    if (s.name() == section.name())
      throw std::runtime_error("checkpoint: duplicate section " + section.name());
  sections_.push_back(std::move(section));
}

void CheckpointWriter::commit(const std::string& path) const {
  const auto t0 = std::chrono::steady_clock::now();
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw std::runtime_error("checkpoint: cannot create " + tmp);
  util::UniqueFd file(fd);
  std::uint64_t total = 0;
  const auto put = [&](std::span<const std::uint8_t> bytes) {
    total += bytes.size();
    return util::write_fully(fd, bytes.data(), bytes.size());
  };
  util::StateWriter head;
  head.raw(kMagic, sizeof kMagic);
  head.u32(kFormatVersion);
  head.u32(kCheckpointStateVersion);
  head.u32(static_cast<std::uint32_t>(sections_.size()));
  bool ok = put(head.bytes());
  for (const auto& s : sections_) {
    if (!ok) break;
    util::StateWriter frame;
    frame.str(s.name());
    frame.u64(s.payload().size());
    frame.u32(s.crc());
    ok = put(frame.bytes()) && put(s.payload());
  }
  if (!ok || !util::sync_fd(fd)) {
    ::unlink(tmp.c_str());
    throw std::runtime_error("checkpoint: write failed for " + tmp);
  }
  file.close();
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw std::runtime_error("checkpoint: rename to " + path + " failed: " +
                             std::strerror(errno));
  }
  // fsync the directory so the rename itself survives a crash; best
  // effort on filesystems that reject directory fsync.
  const int dfd = ::open(dir_of(path).c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    util::UniqueFd dir(dfd);
    (void)util::sync_fd(dfd);
  }
  ckpt_metrics().bytes.add(total);
  ckpt_metrics().commit_us.observe(micros_since(t0));
}

CheckpointReader::CheckpointReader(const std::string& path) {
  const auto t0 = std::chrono::steady_clock::now();
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw std::runtime_error("checkpoint: cannot open " + path);
  util::UniqueFd file(fd);
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0)
    throw std::runtime_error("checkpoint: cannot stat " + path);
  const auto size = static_cast<std::size_t>(st.st_size);
  bytes_.reset(new std::uint8_t[size]);  // default-initialized: read() fills it
  const std::ptrdiff_t got = util::read_fully(fd, bytes_.get(), size);
  if (got < 0) throw std::runtime_error("checkpoint: read failed for " + path);

  util::StateReader r(bytes_.get(), static_cast<std::size_t>(got));
  char magic[sizeof kMagic];
  if (r.remaining() < sizeof kMagic)
    throw std::runtime_error("checkpoint: " + path + " is not a checkpoint file");
  r.raw(magic, sizeof magic);
  if (std::memcmp(magic, kMagic, sizeof kMagic) != 0)
    throw std::runtime_error("checkpoint: bad magic in " + path);
  const std::uint32_t format = r.u32();
  if (format != kFormatVersion)
    throw std::runtime_error("checkpoint: unsupported container format " +
                             std::to_string(format) + " in " + path);
  const std::uint32_t state_version = r.u32();
  if (state_version != kCheckpointStateVersion)
    throw std::runtime_error("checkpoint: state version " + std::to_string(state_version) +
                             " does not match this build's " +
                             std::to_string(kCheckpointStateVersion) + " in " + path);
  const std::uint32_t n_sections = r.u32();
  for (std::uint32_t i = 0; i < n_sections; ++i) {
    std::string name = r.str();
    const std::uint64_t len = r.u64();
    const std::uint32_t crc = r.u32();
    if (len > r.remaining())
      throw std::runtime_error("checkpoint: truncated section " + name + " in " + path);
    const std::size_t offset = static_cast<std::size_t>(got) - r.remaining();
    if (util::crc32(bytes_.get() + offset, static_cast<std::size_t>(len)) != crc)
      throw std::runtime_error("checkpoint: CRC mismatch in section " + name + " of " + path);
    r.skip(static_cast<std::size_t>(len));
    sections_.push_back({std::move(name), offset, static_cast<std::size_t>(len)});
  }
  r.expect_end();
  ckpt_metrics().load_us.observe(micros_since(t0));
}

const CheckpointReader::Section* CheckpointReader::find(const std::string& name) const noexcept {
  for (const auto& s : sections_)
    if (s.name == name) return &s;
  return nullptr;
}

bool CheckpointReader::has(const std::string& name) const noexcept {
  return find(name) != nullptr;
}

util::StateReader CheckpointReader::section(const std::string& name) const {
  if (const Section* s = find(name)) return util::StateReader(bytes_.get() + s->offset, s->len);
  throw std::runtime_error("checkpoint: missing section " + name);
}

std::vector<std::string> CheckpointReader::names() const {
  std::vector<std::string> out;
  out.reserve(sections_.size());
  for (const auto& s : sections_) out.push_back(s.name);
  return out;
}

}  // namespace v6sonar::core
