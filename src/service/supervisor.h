#ifndef CULEVO_SERVICE_SUPERVISOR_H_
#define CULEVO_SERVICE_SUPERVISOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/cancel.h"
#include "util/status.h"

namespace culevo {

/// Settings for one supervised serving session (see SuperviseServer).
struct SupervisorOptions {
  /// The child's full argv — the serving `culevod` invocation, including
  /// argv[0]. Required.
  std::vector<std::string> child_argv;
  /// The socket the child serves on; liveness probes connect here.
  /// Required.
  std::string socket_path;

  /// Steady-state probe cadence. Each probe is a fresh connect + one
  /// `ping` frame; while the child has not yet answered its first probe
  /// of an incarnation, probing runs at a faster cadence (<= 50 ms) so
  /// restarts are detected healthy quickly.
  int probe_interval_ms = 1000;
  /// Deadline on each probe's connect and on its response read. A probe
  /// that cannot connect (a full listen backlog included) or gets no pong
  /// within this fails.
  int probe_timeout_ms = 1000;
  /// Consecutive probe failures (after the child was first seen healthy)
  /// that trigger SIGKILL + restart — the fabric's journal-stall rule
  /// applied to a server whose only heartbeat is answering requests.
  int probe_failures_to_kill = 3;
  /// A freshly spawned child that has not answered any probe within this
  /// long is presumed wedged at startup and killed + restarted.
  int startup_grace_ms = 10000;

  /// Decorrelated-jitter backoff between restarts (RestartPacer,
  /// util/subprocess.h): uniform in [base, prev*3] capped, its jitter
  /// seeded from the supervisor's pid. A crash-looping child must not be
  /// re-exec'd in a tight loop.
  int restart_backoff_ms = 200;
  int restart_backoff_cap_ms = 2000;
  /// Restart budget; < 0 means unlimited (the production default — a
  /// supervisor that gives up is just a slower crash).
  int max_restarts = -1;

  /// When set, the current child's pid is written here (atomically,
  /// "<pid>\n") after every spawn — the handle chaos tests and operators
  /// use to signal the serving process directly.
  std::string pidfile;
  /// Redirect the child's stdout/stderr to /dev/null.
  bool silence_child = false;
  /// Supervision tick: spawns, child reaping, cancel checks, and SIGHUP
  /// forwarding all happen at this granularity.
  int poll_ms = 20;
  /// Cooperative shutdown: when tripped (SIGTERM/SIGINT via
  /// InstallCancelHandlers), the child is terminated gracefully and
  /// SuperviseServer returns OK.
  const CancelToken* cancel = nullptr;
  /// Forward SIGHUP to the child (reload requests must reach the process
  /// that owns the snapshot). Requires the caller to have called
  /// InstallReloadHandler(); the supervisor consumes the flag and
  /// re-raises SIGHUP on the child once that child has answered a probe
  /// (until then the request stays latched).
  bool forward_reload = true;
};

/// Outcome ledger of one supervised session.
struct SupervisorReport {
  int restarts = 0;           ///< Child respawns beyond the first exec.
  int64_t probe_failures = 0; ///< Individual failed probes (not kills).
};

/// Runs the serving child under supervision until the cancel token trips
/// (clean shutdown, returns the report) or the restart budget is
/// exhausted (returns the last incident's status).
///
/// The child is re-exec'd from `child_argv` whenever it exits, dies on a
/// signal, or stops answering `ping` probes over the real serving socket
/// (probe stall => SIGKILL first: a wedged server holds the socket and
/// must be removed before its replacement can bind). A failed spawn is an
/// incident too. Restarts are paced by a RestartPacer: decorrelated-jitter
/// backoff that resets to its base once an incarnation proves healthy.
///
/// Metrics: `serve.restarts`, `serve.probe_failures`.
Result<SupervisorReport> SuperviseServer(const SupervisorOptions& options);

}  // namespace culevo

#endif  // CULEVO_SERVICE_SUPERVISOR_H_
