#include "service/protocol.h"

#include <cerrno>
#include <chrono>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "util/file_io.h"
#include "util/strings.h"

namespace culevo {
namespace {

using Clock = std::chrono::steady_clock;

/// Milliseconds until `deadline`, clamped at zero once it has passed.
int RemainingMillis(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  return left.count() > 0 ? static_cast<int>(left.count()) : 0;
}

/// Reads exactly `len` bytes. `*got_any` reports whether at least one
/// byte arrived (distinguishes clean EOF from a torn frame). With a
/// deadline, every read is gated on poll() against the remaining time, so
/// a stalled peer costs at most the deadline, never a hung thread.
Status ReadAll(int fd, char* data, size_t len, bool* got_any,
               bool has_deadline, Clock::time_point deadline) {
  size_t done = 0;
  while (done < len) {
    if (has_deadline) {
      const int remaining = RemainingMillis(deadline);
      if (remaining == 0) {
        return Status::DeadlineExceeded("frame read timed out");
      }
      struct pollfd pfd;
      pfd.fd = fd;
      pfd.events = POLLIN;
      pfd.revents = 0;
      const int ready = ::poll(&pfd, 1, remaining);
      if (ready < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(
            StrFormat("frame read poll failed: %s", std::strerror(errno)));
      }
      if (ready == 0) {
        return Status::DeadlineExceeded("frame read timed out");
      }
    }
    const ssize_t n = ::read(fd, data + done, len - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(
          StrFormat("frame read failed: %s", std::strerror(errno)));
    }
    if (n == 0) {
      return done == 0 && !*got_any
                 ? Status::NotFound("connection closed")
                 : Status::DataLoss("connection closed mid-frame");
    }
    done += static_cast<size_t>(n);
    *got_any = true;
  }
  return Status::Ok();
}

}  // namespace

Status WriteFrame(int fd, std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) {
    return Status::InvalidArgument(
        StrFormat("frame of %zu bytes exceeds the %u-byte limit",
                  payload.size(), kMaxFrameBytes));
  }
  const uint32_t len = static_cast<uint32_t>(payload.size());
  char prefix[4] = {static_cast<char>(len & 0xFF),
                    static_cast<char>((len >> 8) & 0xFF),
                    static_cast<char>((len >> 16) & 0xFF),
                    static_cast<char>((len >> 24) & 0xFF)};
  CULEVO_RETURN_IF_ERROR(
      WriteAll(fd, std::string_view(prefix, sizeof(prefix)), "frame"));
  return WriteAll(fd, payload, "frame");
}

Status ReadFrame(int fd, std::string* payload, int timeout_ms) {
  const bool has_deadline = timeout_ms >= 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(has_deadline ? timeout_ms : 0);
  bool got_any = false;
  char prefix[4];
  CULEVO_RETURN_IF_ERROR(
      ReadAll(fd, prefix, sizeof(prefix), &got_any, has_deadline, deadline));
  const uint32_t len = static_cast<uint32_t>(
      static_cast<unsigned char>(prefix[0]) |
      (static_cast<unsigned char>(prefix[1]) << 8) |
      (static_cast<unsigned char>(prefix[2]) << 16) |
      (static_cast<unsigned char>(prefix[3]) << 24));
  if (len > kMaxFrameBytes) {
    return Status::InvalidArgument(
        StrFormat("frame length %u exceeds the %u-byte limit", len,
                  kMaxFrameBytes));
  }
  payload->resize(len);
  if (len == 0) return Status::Ok();
  return ReadAll(fd, payload->data(), len, &got_any, has_deadline, deadline);
}

Status UnixSocketAddress(const std::string& path, struct sockaddr_un* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr->sun_path)) {
    return Status::InvalidArgument(
        StrFormat("socket path must be 1..%zu bytes, got %zu",
                  sizeof(addr->sun_path) - 1, path.size()));
  }
  std::memcpy(addr->sun_path, path.data(), path.size());
  return Status::Ok();
}

Result<int> ConnectUnixSocket(const std::string& path, int timeout_ms) {
  struct sockaddr_un addr;
  CULEVO_RETURN_IF_ERROR(UnixSocketAddress(path, &addr));
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(
        StrFormat("socket() failed: %s", std::strerror(errno)));
  }
  // A connect to a listener whose backlog is full waits for a free slot,
  // and a wedged server never frees one. The send timeout bounds that
  // wait (connect then fails with EAGAIN).
  struct timeval send_timeout;
  send_timeout.tv_sec = timeout_ms / 1000;
  send_timeout.tv_usec = (timeout_ms % 1000) * 1000;
  if ((timeout_ms > 0 &&
       ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
                    sizeof(send_timeout)) != 0) ||
      ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const Status status = Status::Unavailable(
        errno == EAGAIN
            ? StrFormat("connect(%s) timed out after %d ms", path.c_str(),
                        timeout_ms)
            : StrFormat("connect(%s) failed: %s", path.c_str(),
                        std::strerror(errno)));
    ::close(fd);
    return status;
  }
  return fd;
}

}  // namespace culevo
