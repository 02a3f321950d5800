#include "service/supervisor.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <thread>

#include <unistd.h>

#include "obs/metrics.h"
#include "service/protocol.h"
#include "util/file_io.h"
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
  Result<int> connected = ConnectUnixSocket(socket_path, timeout_ms);
  if (!connected.ok()) return connected.status();
  const int fd = connected.value();
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

  RestartPacer pacer(options.max_restarts,
                     std::chrono::milliseconds(options.restart_backoff_ms),
                     std::chrono::milliseconds(options.restart_backoff_cap_ms),
                     0x53555052564953ull ^ static_cast<uint64_t>(::getpid()));
  SpawnOptions spawn;
  spawn.silence_stdout = options.silence_child;
  spawn.silence_stderr = options.silence_child;

  SupervisorReport report;
  // The current incarnation: its process and spawn time, whether it has
  // answered a probe, the failed probes since its last answer, and when
  // to probe next.
  Subprocess child;
  Clock::time_point spawned_at;
  bool healthy = false;
  int consecutive_failures = 0;
  Clock::time_point next_probe;

  // Records one incident (a death, a kill or a failed spawn); non-OK once
  // the restart budget is spent.
  const auto on_incident = [&](const Status& incident) -> Status {
    if (!pacer.RecordDeath(Clock::now())) {
      return Status(incident.code(),
                    StrFormat("supervisor: restart budget (%d) exhausted; "
                              "last incident: %s",
                              options.max_restarts,
                              incident.message().c_str()));
    }
    report.restarts = pacer.restarts();
    restarts_metric->Increment();
    return Status::Ok();
  };

  for (;; std::this_thread::sleep_for(
           std::chrono::milliseconds(options.poll_ms))) {
    if (!CancelToken::Check(options.cancel).ok()) {
      child.Terminate(2000);
      return report;  // clean shutdown: the only non-restart exit
    }

    if (!child.running()) {
      if (Clock::now() < pacer.next_spawn()) continue;
      if (Status spawned = child.Spawn(options.child_argv, spawn);
          !spawned.ok()) {
        CULEVO_RETURN_IF_ERROR(on_incident(spawned));
        continue;
      }
      if (!options.pidfile.empty()) {
        // Best effort: a missing pidfile degrades chaos tooling, not
        // serving.
        (void)WriteFileAtomic(
            options.pidfile,
            StrFormat("%lld\n", static_cast<long long>(child.pid())),
            /*sync=*/false);
      }
      spawned_at = Clock::now();
      healthy = false;
      consecutive_failures = 0;
      next_probe = spawned_at;
    }

    // SIGHUP's default action ends a process, and a child that is still
    // starting may not catch it yet: a reload request waits, latched,
    // until the child has answered a probe.
    if (options.forward_reload && healthy && ConsumeReloadRequest()) {
      ::kill(static_cast<pid_t>(child.pid()), SIGHUP);
    }

    ExitState state;
    if (child.TryWait(&state)) {
      Status incident = state.ToStatus("supervised culevod");
      if (incident.ok()) {
        // A clean child exit without a cancel still means nobody is
        // serving; treat it as an incident so the child comes back.
        incident = Status::Internal("supervised culevod exited 0");
      }
      CULEVO_RETURN_IF_ERROR(on_incident(incident));
      continue;
    }

    if (Clock::now() < next_probe) continue;
    // Fast cadence until the incarnation proves healthy, so the
    // post-restart outage window is bounded by the restart backoff rather
    // than a full probe interval.
    const int cadence_ms = healthy ? options.probe_interval_ms
                                   : std::min(options.probe_interval_ms, 50);
    next_probe = Clock::now() + std::chrono::milliseconds(cadence_ms);
    const Status probe =
        ProbeOnce(options.socket_path, options.probe_timeout_ms);
    if (probe.ok()) {
      healthy = true;
      consecutive_failures = 0;
      pacer.RecordHealthy();
      continue;
    }
    ++report.probe_failures;
    probe_failures_metric->Increment();
    if (healthy) {
      if (++consecutive_failures < options.probe_failures_to_kill) continue;
      child.Kill();
      CULEVO_RETURN_IF_ERROR(on_incident(Status::DeadlineExceeded(StrFormat(
          "supervised culevod stopped answering: %d consecutive probe "
          "failures (last: %s)",
          consecutive_failures, probe.message().c_str()))));
    } else if (Clock::now() - spawned_at >
               std::chrono::milliseconds(options.startup_grace_ms)) {
      child.Kill();
      CULEVO_RETURN_IF_ERROR(on_incident(Status::DeadlineExceeded(StrFormat(
          "supervised culevod never became healthy within %d ms (last "
          "probe: %s)",
          options.startup_grace_ms, probe.message().c_str()))));
    }
  }
}

}  // namespace culevo
