#include "daemon/log_tail.hpp"

#include <errno.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cstring>
#include <stdexcept>

#include "util/metrics.hpp"

namespace v6sonar::daemon {

namespace {

struct TailMetrics {
  util::metrics::Counter records{"daemon.tail.records"};
  util::metrics::Counter bytes{"daemon.tail.bytes"};
  util::metrics::Counter rotations{"daemon.tail.rotations"};
  util::metrics::Counter truncations{"daemon.tail.truncations"};
};

TailMetrics& tail_metrics() {
  static TailMetrics m;
  return m;
}

}  // namespace

LogTailer::LogTailer(std::string path) : path_(std::move(path)) {}

void LogTailer::close_current() noexcept {
  fd_.close();
  ino_ = dev_ = 0;
  offset_ = 0;
  header_ok_ = false;
  pending_.clear();
}

bool LogTailer::ensure_open() {
  if (fd_.get() >= 0) return true;
  const int fd = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;  // not created yet — not an error
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return false;
  }
  fd_ = util::UniqueFd(fd);
  ino_ = st.st_ino;
  dev_ = st.st_dev;
  offset_ = 0;
  header_ok_ = false;
  pending_.clear();
  return true;
}

bool LogTailer::resume(const Cursor& c) {
  records_ = c.records;
  if (c.offset == 0) return true;  // nothing was consumed
  struct stat st{};
  if (!ensure_open() || ::fstat(fd_.get(), &st) != 0 || ino_ != c.ino || dev_ != c.dev ||
      static_cast<std::uint64_t>(st.st_size) < c.offset)
    return false;
  offset_ = c.offset;
  header_ok_ = true;  // a cursor past 0 lies past the verified header
  return true;
}

std::size_t LogTailer::drain_fd(const RecordFn& fn, std::size_t budget, bool& at_eof) {
  std::size_t delivered = 0;
  std::size_t pos = 0;  // bytes of pending_ consumed
  std::array<std::uint8_t, 64 * 1024> buf;
  at_eof = false;
  for (;;) {
    if (!header_ok_ && pending_.size() >= sim::kLogHeaderBytes) {
      std::uint64_t magic = 0;
      std::memcpy(&magic, pending_.data(), sizeof magic);
      if (magic != sim::kLogMagic)
        throw std::runtime_error("log_tail: " + path_ + " is not a .v6slog file");
      header_ok_ = true;
      pos = sim::kLogHeaderBytes;  // count field ignored: live files say 0
    }
    if (header_ok_) {
      for (; delivered < budget && pending_.size() - pos >= sim::kLogRecordBytes; ++delivered) {
        fn(sim::decode_record(pending_.data() + pos));
        pos += sim::kLogRecordBytes;
      }
    }
    if (delivered == budget) break;  // the rest waits for the next poll
    pending_.erase(pending_.begin(), pending_.begin() + static_cast<long>(pos));
    pos = 0;
    const ssize_t got = ::pread(fd_.get(), buf.data(), buf.size(), static_cast<off_t>(offset_));
    if (got < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("log_tail: read failed on " + path_);
    }
    if (got == 0) {
      at_eof = true;
      break;
    }
    offset_ += static_cast<std::uint64_t>(got);
    tail_metrics().bytes.add(static_cast<std::uint64_t>(got));
    pending_.insert(pending_.end(), buf.data(), buf.data() + got);
  }
  pending_.erase(pending_.begin(), pending_.begin() + static_cast<long>(pos));
  if (delivered) {
    records_ += delivered;
    tail_metrics().records.add(delivered);
  }
  return delivered;
}

std::size_t LogTailer::poll(const RecordFn& fn) {
  if (!ensure_open()) return 0;

  // Truncation: the current file shrank below what we consumed. The
  // overwritten tail is gone; restart from the (new) header.
  struct stat cur{};
  if (::fstat(fd_.get(), &cur) == 0 &&
      static_cast<std::uint64_t>(cur.st_size) < offset_) {
    ++truncations_;
    tail_metrics().truncations.add();
    const int keep = fd_.release();
    close_current();
    fd_ = util::UniqueFd(keep);  // same file, restart at byte 0
    ino_ = cur.st_ino;
    dev_ = cur.st_dev;
  }

  bool at_eof = false;
  std::size_t delivered = drain_fd(fn, kMaxPollRecords, at_eof);
  if (!at_eof) return delivered;  // capped: the file has more

  // Rotation: the path now names a different inode. The old fd was
  // just drained to EOF above, so switching loses nothing.
  struct stat now{};
  if (::stat(path_.c_str(), &now) == 0 &&
      (static_cast<std::uint64_t>(now.st_ino) != ino_ ||
       static_cast<std::uint64_t>(now.st_dev) != dev_)) {
    ++rotations_;
    tail_metrics().rotations.add();
    close_current();
    if (ensure_open()) delivered += drain_fd(fn, kMaxPollRecords - delivered, at_eof);
  }
  return delivered;
}

}  // namespace v6sonar::daemon
