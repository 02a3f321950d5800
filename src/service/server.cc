#include "service/server.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <functional>
#include <thread>

#include "obs/metrics.h"
#include "service/protocol.h"
#include "util/rng.h"
#include "util/signal.h"
#include "util/strings.h"
#include "util/subprocess.h"

namespace culevo {
namespace {

/// One poll tick: the stop-responsiveness bound of every blocking wait.
constexpr int kPollMillis = 200;

/// Waits for readability with a bounded tick; true when `fd` is ready.
bool PollReadable(int fd) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = POLLIN;
  pfd.revents = 0;
  return ::poll(&pfd, 1, kPollMillis) > 0;
}

}  // namespace

SocketServer::SocketServer(ServiceCore* core, ServerOptions options)
    : core_(core), options_(std::move(options)) {}

SocketServer::~SocketServer() { Stop(); }

Status SocketServer::Start() {
  if (running()) {
    return Status::FailedPrecondition("server already started");
  }
  // A client that closes mid-response must not kill the server: the
  // response write has to fail with EPIPE, not raise a fatal SIGPIPE.
  IgnoreSigPipe();
  struct sockaddr_un addr;
  CULEVO_RETURN_IF_ERROR(UnixSocketAddress(options_.socket_path, &addr));
  if (options_.threads < 1) {
    return Status::InvalidArgument("server needs at least one thread");
  }

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(
        StrFormat("socket() failed: %s", std::strerror(errno)));
  }
  // A stale socket file from a crashed instance would fail bind with
  // EADDRINUSE forever; the path is ours by configuration, reclaim it.
  ::unlink(options_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const Status status = Status::IOError(StrFormat(
        "bind(%s) failed: %s", options_.socket_path.c_str(),
        std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 64) != 0) {
    const Status status = Status::IOError(
        StrFormat("listen() failed: %s", std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
    return status;
  }
  // Non-blocking accept: all workers poll the shared fd, the losers of an
  // accept race see EAGAIN and go back to polling.
  ::fcntl(listen_fd_, F_SETFL,
          ::fcntl(listen_fd_, F_GETFL, 0) | O_NONBLOCK);

  stopping_.store(false, std::memory_order_relaxed);
  workers_.reserve(static_cast<size_t>(options_.threads));
  for (int i = 0; i < options_.threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::Ok();
}

void SocketServer::Stop() {
  if (!running()) return;
  stopping_.store(true, std::memory_order_relaxed);
  for (std::thread& worker : workers_) {
    worker.join();
  }
  workers_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(options_.socket_path.c_str());
}

void SocketServer::WorkerLoop() {
  static obs::Counter* accepts =
      obs::MetricsRegistry::Get().counter("serve.connections");
  static obs::Counter* accept_errors =
      obs::MetricsRegistry::Get().counter("serve.accept_errors");
  // Resource-exhaustion backoff: EMFILE/ENFILE (and kin) mean the fd
  // table is full *right now* — accept() will keep failing until some
  // connection closes, so a worker that retried immediately would spin a
  // core doing nothing. Decorrelated jitter (NextBackoffDelay), so the
  // workers that failed together do not retry together; capped below the
  // poll tick so Stop() stays responsive; resets on any success.
  constexpr std::chrono::milliseconds kErrorBackoffBase{5};
  constexpr std::chrono::milliseconds kErrorBackoffCap{160};
  Rng backoff_rng(DeriveSeed(
      0xACCE97ull, std::hash<std::thread::id>{}(std::this_thread::get_id())));
  std::chrono::milliseconds error_backoff = kErrorBackoffBase;
  while (!stopping_.load(std::memory_order_relaxed)) {
    if (!PollReadable(listen_fd_)) continue;
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) {
      // EAGAIN: another worker won the race. EINTR/ECONNABORTED: the
      // kernel withdrew this connection, nothing is wrong.
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
          errno == ECONNABORTED) {
        continue;
      }
      // EMFILE/ENFILE/ENOBUFS/ENOMEM and anything else transient: count
      // it, back off, keep serving. fd exhaustion is load, not a bug.
      accept_errors->Increment();
      error_backoff = NextBackoffDelay(kErrorBackoffBase, error_backoff,
                                       kErrorBackoffCap, &backoff_rng);
      std::this_thread::sleep_for(error_backoff);
      continue;
    }
    error_backoff = kErrorBackoffBase;
    accepts->Increment();
    ServeConnection(conn);
    ::close(conn);
  }
}

void SocketServer::ServeConnection(int fd) {
  static obs::Counter* client_timeouts =
      obs::MetricsRegistry::Get().counter("serve.client_timeouts");
  // The deadline applies per frame, from first byte to last: PollReadable
  // gates entry into ReadFrame, so a connection idling between requests
  // is never charged — only one that starts a frame and stalls.
  const int timeout_ms = options_.client_read_timeout_ms > 0
                             ? options_.client_read_timeout_ms
                             : -1;
  std::string request;
  while (!stopping_.load(std::memory_order_relaxed)) {
    if (!PollReadable(fd)) continue;
    const Status read = ReadFrame(fd, &request, timeout_ms);
    if (read.code() == StatusCode::kDeadlineExceeded) {
      client_timeouts->Increment();
      return;
    }
    // NotFound is the clean close; everything else (torn frame, bad
    // length, read error) also just drops the connection — there is no
    // frame boundary left to answer on.
    if (!read.ok()) return;
    const std::string response = core_->Handle(request);
    if (!WriteFrame(fd, response).ok()) return;
  }
}

}  // namespace culevo
