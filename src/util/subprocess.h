#ifndef CULEVO_UTIL_SUBPROCESS_H_
#define CULEVO_UTIL_SUBPROCESS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"
#include "util/status.h"

namespace culevo {

/// How a finished child process ended.
struct ExitState {
  bool exited = false;    ///< true: normal exit, `code` valid
  bool signaled = false;  ///< true: killed by signal, `signal` valid
  int code = 0;
  int signal = 0;

  /// OK for a clean zero exit; Internal otherwise, with the exit code or
  /// signal number in the message so supervisors can log one line.
  Status ToStatus(const std::string& what) const;
};

/// Options for spawning one child process.
struct SpawnOptions {
  /// Extra environment entries as "NAME=value" strings. Each one replaces
  /// any inherited entry of the same name, which is dropped from the
  /// child's environment (glibc's getenv returns the first match, so a
  /// kept duplicate would shadow the extra entry).
  std::vector<std::string> extra_env;
  /// Redirect the child's stdout/stderr to /dev/null. Workers spawned by
  /// the fabric use this so N children don't interleave on the
  /// coordinator's terminal.
  bool silence_stdout = false;
  bool silence_stderr = false;
};

/// A fork/exec'd child process handle: non-blocking reaping, graceful
/// termination with SIGKILL escalation, and guaranteed cleanup.
///
/// The handle owns the pid. Destroying a handle whose child is still
/// running SIGKILLs and reaps it — a crashed coordinator never leaks
/// workers past its own exit. Move-only.
class Subprocess {
 public:
  Subprocess() = default;
  ~Subprocess();

  Subprocess(Subprocess&& other) noexcept { *this = std::move(other); }
  Subprocess& operator=(Subprocess&& other) noexcept;
  Subprocess(const Subprocess&) = delete;
  Subprocess& operator=(const Subprocess&) = delete;

  /// fork + execvp. `argv[0]` is the program (resolved via PATH when it
  /// has no slash). Returns InvalidArgument for an empty argv, IOError if
  /// fork fails. An exec failure in the child surfaces as exit code 127
  /// from Wait/TryWait, matching shell convention.
  Status Spawn(const std::vector<std::string>& argv,
               const SpawnOptions& options = {});

  /// Non-blocking reap. Returns true and fills `state` once the child has
  /// ended (idempotent afterwards: the final state is cached); false while
  /// it is still running.
  bool TryWait(ExitState* state);

  /// Blocking reap.
  ExitState Wait();

  /// SIGTERM, then SIGKILL if the child is still alive after `grace_ms`,
  /// then reap. Returns the final state. Safe to call on an already-ended
  /// child.
  ExitState Terminate(int grace_ms);

  /// Immediate SIGKILL + reap.
  ExitState Kill() { return Terminate(0); }

  bool running() const { return pid_ > 0 && !reaped_; }
  int64_t pid() const { return pid_; }

 private:
  int64_t pid_ = -1;
  bool reaped_ = false;
  ExitState state_;
};

/// One step of decorrelated-jitter backoff (Brooker, "Exponential Backoff
/// And Jitter"): uniform in [base, prev*3], capped at `cap`. Unlike plain
/// doubling, concurrent retriers that failed together do not wake together
/// — the delays decorrelate after the first step while still growing
/// toward the cap on repeated failure. Pure given the Rng state; pass
/// `prev = base` on the first step. RestartPacer paces restarts with it,
/// and SocketServer its accept-error sleeps.
std::chrono::milliseconds NextBackoffDelay(std::chrono::milliseconds base,
                                           std::chrono::milliseconds prev,
                                           std::chrono::milliseconds cap,
                                           Rng* rng);

/// The restart policy of one supervised child, shared by the sweep
/// fabric (one per shard) and `culevod --supervise`: a restart budget, a
/// decorrelated-jitter backoff (NextBackoffDelay) between a death and the
/// next spawn, and a reset of that backoff to its base once the child
/// proves healthy. What counts as a death is the caller's rule, with one
/// shared convention: a spawn that fails is a death, so a fork that keeps
/// failing is paced and budgeted like a crash loop.
///
/// Not thread-safe; owned by one supervision loop.
class RestartPacer {
 public:
  using Clock = std::chrono::steady_clock;

  /// `max_restarts` < 0 means unlimited. Every delay lies in [base, cap];
  /// `seed` seeds the jitter stream.
  RestartPacer(int max_restarts, std::chrono::milliseconds base,
               std::chrono::milliseconds cap, uint64_t seed)
      : max_restarts_(max_restarts),
        base_(base),
        cap_(cap),
        prev_(base),
        rng_(seed) {}

  /// Records one death at `now`. False once the budget is spent: the
  /// child stays down. Otherwise counts a restart and makes the next
  /// spawn due one backoff delay after `now`: the first delay is uniform
  /// in [base, 3·base], each later one in [base, 3 × the previous].
  bool RecordDeath(Clock::time_point now);

  /// The child proved healthy: the next delay starts over from the base.
  void RecordHealthy() { prev_ = base_; }

  /// When the next spawn may happen; before the first death, at once.
  Clock::time_point next_spawn() const { return next_spawn_; }

  /// Restarts granted so far, which is also the 0-based index of the
  /// next spawn.
  int restarts() const { return restarts_; }

 private:
  int max_restarts_;
  std::chrono::milliseconds base_;
  std::chrono::milliseconds cap_;
  std::chrono::milliseconds prev_;
  Rng rng_;
  int restarts_ = 0;
  Clock::time_point next_spawn_;
};

}  // namespace culevo

#endif  // CULEVO_UTIL_SUBPROCESS_H_
