#include "service/supervisor.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <thread>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/metrics.h"
#include "service/protocol.h"
#include "util/file_io.h"
#include "util/rng.h"
#include "util/signal.h"
#include "util/strings.h"
#include "util/subprocess.h"

namespace culevo {
namespace {

using Clock = std::chrono::steady_clock;

/// One liveness probe: fresh connect, one `ping` frame, deadline-bounded
/// pong read. Any failure — no socket, refused or timed-out connect,
/// no/bad response — means the serving process is not answering, which is
/// the only health signal that matters for a query server.
Status ProbeOnce(const std::string& socket_path, int timeout_ms) {
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (socket_path.empty() || socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("bad probe socket path");
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(
        StrFormat("probe socket() failed: %s", std::strerror(errno)));
  }
  // A connect to a listener whose backlog is full waits for a free slot,
  // and a wedged child never frees one. The send timeout bounds that wait
  // (connect then fails with EAGAIN), as well as the ping write.
  struct timeval send_timeout;
  send_timeout.tv_sec = timeout_ms / 1000;
  send_timeout.tv_usec = (timeout_ms % 1000) * 1000;
  if (::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
                   sizeof(send_timeout)) != 0 ||
      ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const Status status = Status::Unavailable(
        errno == EAGAIN
            ? StrFormat("probe connect timed out after %d ms", timeout_ms)
            : StrFormat("probe connect failed: %s", std::strerror(errno)));
    ::close(fd);
    return status;
  }
  std::string response;
  Status status = WriteFrame(fd, "ping");
  if (status.ok()) status = ReadFrame(fd, &response, timeout_ms);
  ::close(fd);
  if (!status.ok()) return status;
  if (response.rfind("ok", 0) != 0) {
    return Status::Internal("probe got a non-ok response: " + response);
  }
  return Status::Ok();
}

/// Sleeps `total` in poll-sized slices so a cancel lands within one tick.
void InterruptibleSleep(std::chrono::milliseconds total, int poll_ms,
                        const CancelToken* cancel) {
  const Clock::time_point until = Clock::now() + total;
  while (Clock::now() < until && CancelToken::Check(cancel).ok()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
  }
}

}  // namespace

Result<SupervisorReport> SuperviseServer(const SupervisorOptions& options) {
  if (options.child_argv.empty()) {
    return Status::InvalidArgument("supervisor: empty child argv");
  }
  if (options.socket_path.empty()) {
    return Status::InvalidArgument(
        "supervisor: a socket path is required (it is the probe target)");
  }
  if (options.probe_interval_ms <= 0 || options.probe_timeout_ms <= 0 ||
      options.probe_failures_to_kill <= 0 || options.poll_ms <= 0) {
    return Status::InvalidArgument(
        "supervisor: probe cadence/timeout/threshold and poll_ms must be "
        "positive");
  }
  static obs::Counter* restarts_metric =
      obs::MetricsRegistry::Get().counter("serve.restarts");
  static obs::Counter* probe_failures_metric =
      obs::MetricsRegistry::Get().counter("serve.probe_failures");

  const std::chrono::milliseconds backoff_base(options.restart_backoff_ms);
  const std::chrono::milliseconds backoff_cap(options.restart_backoff_cap_ms);
  Rng backoff_rng(options.backoff_seed != 0
                      ? options.backoff_seed
                      : 0x53555052564953ull ^
                            static_cast<uint64_t>(::getpid()));
  std::chrono::milliseconds prev_backoff = backoff_base;

  SupervisorReport report;
  for (;;) {
    Subprocess child;
    SpawnOptions spawn;
    spawn.silence_stdout = options.silence_child;
    spawn.silence_stderr = options.silence_child;
    Status incident = Status::Ok();
    if (Status spawned = child.Spawn(options.child_argv, spawn);
        !spawned.ok()) {
      incident = spawned;  // fork failure: back off and retry like a crash
    } else {
      if (!options.pidfile.empty()) {
        AtomicWriteOptions pid_write;
        pid_write.sync = false;
        // Best effort: a missing pidfile degrades chaos tooling, not
        // serving.
        (void)WriteFileAtomic(
            options.pidfile,
            StrFormat("%lld\n", static_cast<long long>(child.pid())),
            pid_write);
      }

      const Clock::time_point spawned_at = Clock::now();
      bool healthy = false;  ///< answered >= 1 probe this incarnation
      int consecutive_failures = 0;
      Clock::time_point next_probe = Clock::now();
      while (incident.ok()) {
        if (!CancelToken::Check(options.cancel).ok()) {
          child.Terminate(2000);
          return report;  // clean shutdown: the only non-restart exit
        }
        if (options.forward_reload && ConsumeReloadRequest() &&
            child.running()) {
          ::kill(static_cast<pid_t>(child.pid()), SIGHUP);
        }

        ExitState state;
        if (child.TryWait(&state)) {
          incident = state.ToStatus("supervised culevod");
          if (incident.ok()) {
            // A clean child exit without a cancel still means nobody is
            // serving; treat it as an incident so the child comes back.
            incident = Status::Internal("supervised culevod exited 0");
          }
          break;
        }

        if (Clock::now() >= next_probe) {
          // Fast cadence until the incarnation proves healthy, so the
          // post-restart outage window is bounded by the restart backoff
          // rather than a full probe interval.
          const int cadence_ms =
              healthy ? options.probe_interval_ms
                      : std::min(options.probe_interval_ms, 50);
          next_probe =
              Clock::now() + std::chrono::milliseconds(cadence_ms);
          if (Status probe =
                  ProbeOnce(options.socket_path, options.probe_timeout_ms);
              probe.ok()) {
            healthy = true;
            consecutive_failures = 0;
            prev_backoff = backoff_base;  // proven healthy: backoff resets
          } else {
            ++report.probe_failures;
            probe_failures_metric->Increment();
            if (healthy) {
              if (++consecutive_failures >=
                  options.probe_failures_to_kill) {
                child.Kill();
                incident = Status::DeadlineExceeded(StrFormat(
                    "supervised culevod stopped answering: %d consecutive "
                    "probe failures (last: %s)",
                    consecutive_failures, probe.message().c_str()));
              }
            } else if (Clock::now() - spawned_at >
                       std::chrono::milliseconds(options.startup_grace_ms)) {
              child.Kill();
              incident = Status::DeadlineExceeded(StrFormat(
                  "supervised culevod never became healthy within %d ms "
                  "(last probe: %s)",
                  options.startup_grace_ms, probe.message().c_str()));
            }
          }
        }

        std::this_thread::sleep_for(
            std::chrono::milliseconds(options.poll_ms));
      }
    }

    if (options.max_restarts >= 0 &&
        report.restarts >= options.max_restarts) {
      return Status(incident.code(),
                    StrFormat("supervisor: restart budget (%d) exhausted; "
                              "last incident: %s",
                              options.max_restarts,
                              incident.message().c_str()));
    }
    ++report.restarts;
    restarts_metric->Increment();
    prev_backoff = NextBackoffDelay(backoff_base, prev_backoff, backoff_cap,
                                    &backoff_rng);
    InterruptibleSleep(prev_backoff, options.poll_ms, options.cancel);
    if (!CancelToken::Check(options.cancel).ok()) return report;
  }
}

}  // namespace culevo
