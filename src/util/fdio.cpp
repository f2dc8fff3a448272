#include "util/fdio.hpp"

#include <errno.h>
#include <fcntl.h>
#include <unistd.h>

#include <stdexcept>

namespace v6sonar::util {

void UniqueFd::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool set_nonblocking(int fd, bool on) noexcept {
  const int flags = ::fcntl(fd, F_GETFL);
  if (flags < 0) return false;
  const int next = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  return ::fcntl(fd, F_SETFL, next) == 0;
}

std::pair<UniqueFd, UniqueFd> nonblocking_pipe() {
  int p[2];
  if (::pipe(p) != 0) throw std::runtime_error("cannot create a pipe");
  std::pair<UniqueFd, UniqueFd> ends{UniqueFd(p[0]), UniqueFd(p[1])};
  set_nonblocking(p[0], true);
  set_nonblocking(p[1], true);
  return ends;
}

bool flush_to_disk(std::FILE* f) noexcept {
  if (std::fflush(f) != 0) return false;
  return sync_fd(::fileno(f));
}

void start_writeback(int fd) noexcept {
#ifdef __linux__
  (void)::sync_file_range(fd, 0, 0, SYNC_FILE_RANGE_WRITE);
#else
  (void)fd;
#endif
}

bool sync_fd(int fd) noexcept {
  int rc;
  do {
    rc = ::fsync(fd);
  } while (rc != 0 && errno == EINTR);
  return rc == 0;
}

int truncate_file(std::FILE* f, std::size_t len) noexcept {
  if (std::fflush(f) != 0) return -1;
  int rc;
  do {
    rc = ::ftruncate(::fileno(f), static_cast<off_t>(len));
  } while (rc != 0 && errno == EINTR);
  return rc;
}

bool write_fully(int fd, const void* data, std::size_t n) noexcept {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t got = ::write(fd, p, n);
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

std::ptrdiff_t read_fully(int fd, void* data, std::size_t n) noexcept {
  char* p = static_cast<char*>(data);
  std::size_t done = 0;
  while (done < n) {
    const ssize_t got = ::read(fd, p + done, n - done);
    if (got < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (got == 0) break;
    done += static_cast<std::size_t>(got);
  }
  return static_cast<std::ptrdiff_t>(done);
}

}  // namespace v6sonar::util
