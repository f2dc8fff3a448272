// Small POSIX file-descriptor helpers for the daemon's socket plumbing
// and the durability fixes: RAII ownership, non-blocking mode, and the
// flush-to-disk step the stdio writers were missing.
#pragma once

#include <cstddef>
#include <cstdio>
#include <string>
#include <utility>

namespace v6sonar::util {

/// Owns one fd; closes on destruction. Move-only.
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) noexcept : fd_(fd) {}
  ~UniqueFd() { close(); }
  UniqueFd(UniqueFd&& o) noexcept : fd_(std::exchange(o.fd_, -1)) {}
  UniqueFd& operator=(UniqueFd&& o) noexcept {
    if (this != &o) {
      close();
      fd_ = std::exchange(o.fd_, -1);
    }
    return *this;
  }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;

  [[nodiscard]] int get() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  /// Release ownership without closing.
  [[nodiscard]] int release() noexcept { return std::exchange(fd_, -1); }
  void close() noexcept;
  void reset(int fd = -1) noexcept {
    close();
    fd_ = fd;
  }

 private:
  int fd_ = -1;
};

/// Set or clear O_NONBLOCK. Returns false on fcntl failure.
bool set_nonblocking(int fd, bool on) noexcept;

/// A pipe (read end, write end), both non-blocking: a poll() wake-up
/// channel. Throws std::runtime_error on failure.
std::pair<UniqueFd, UniqueFd> nonblocking_pipe();

/// Flush a stdio stream's buffered data all the way to stable storage:
/// fflush + fsync(fileno). Returns false (with errno set) on failure.
/// This is the missing half of "the writer finalized the header": an
/// fflush alone leaves the bytes in page cache, where a crash or power
/// loss can still drop them after close() returned success.
bool flush_to_disk(std::FILE* f) noexcept;

/// Start writeback of a file's dirty pages without waiting for it
/// (sync_file_range on Linux; elsewhere nothing), so a later fsync
/// waits only for what was written since. A hint: its failure leaves
/// the work to the fsync.
void start_writeback(int fd) noexcept;

/// fsync a descriptor. Returns false on failure.
bool sync_fd(int fd) noexcept;

/// Write the whole buffer, retrying on EINTR and short writes. Returns
/// false on any other error (errno preserved). Blocking fds only.
bool write_fully(int fd, const void* data, std::size_t n) noexcept;

/// Read until `n` bytes arrived or end of file, retrying on EINTR and
/// short reads. Returns the bytes read, or -1 on any other error
/// (errno preserved). Blocking fds only.
[[nodiscard]] std::ptrdiff_t read_fully(int fd, void* data, std::size_t n) noexcept;

/// Truncate an open stdio stream's file to `len` bytes (fflush +
/// ftruncate on the underlying descriptor). Returns 0 on success,
/// nonzero with errno set on failure.
int truncate_file(std::FILE* f, std::size_t len) noexcept;

}  // namespace v6sonar::util
