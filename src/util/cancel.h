#ifndef CULEVO_UTIL_CANCEL_H_
#define CULEVO_UTIL_CANCEL_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "util/status.h"

namespace culevo {

/// Absolute steady-clock deadline, or "no deadline".
///
/// Deadlines are value types: compute one up front (e.g. from a
/// `--timeout-ms` flag) and install it on a CancelToken. Expiry checks
/// cost one steady_clock::now() call, so they are meant for granule
/// boundaries (replica, root class), not inner loops.
class Deadline {
 public:
  /// No deadline: never expires.
  Deadline() = default;

  static Deadline Infinite() { return Deadline(); }

  /// Expires `duration` from now. A non-positive duration gives an
  /// already-expired deadline, and one that ends past the clock's range
  /// none at all.
  static Deadline After(std::chrono::nanoseconds duration) {
    const int64_t now = NowNanos();
    if (duration.count() <= 0) return Deadline(now);
    if (duration.count() >= kInfinite - now) return Infinite();
    return Deadline(now + duration.count());
  }

  /// Expires `ms` milliseconds from now, saturating as After does.
  static Deadline AfterMillis(int64_t ms) {
    if (ms > kInfinite / 1'000'000) return Infinite();
    return After(std::chrono::milliseconds(ms < 0 ? 0 : ms));
  }

  bool infinite() const { return ns_ == kInfinite; }

  bool expired() const {
    return !infinite() && NowNanos() >= ns_;
  }

  /// Nanoseconds since the steady-clock epoch; kInfinite when unset.
  int64_t raw_nanos() const { return ns_; }

  static constexpr int64_t kInfinite = INT64_MAX;

  /// Current steady-clock time in nanoseconds since its epoch.
  static int64_t NowNanos() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  explicit Deadline(int64_t ns) : ns_(ns) {}

  int64_t ns_ = kInfinite;
};

/// Cooperative cancellation handle shared between a controller (CLI signal
/// handler, timeout watchdog, embedding server) and the long-running
/// computation that polls it.
///
/// Protocol: long-running entry points accept `const CancelToken*` (null
/// means "never cancelled") and poll `ShouldStop()` / `Check()` once per
/// work granule — a simulation replica, an Eclat root class. A cancelled
/// run abandons *pending* granules only; granules that already completed
/// did so fully, which keeps partial state well-formed and cancellation
/// responsive to within one granule.
///
/// Cancel() is a single relaxed atomic store: safe from any thread and
/// from async signal handlers. Determinism: cancellation affects *which*
/// granules run, never the data a completed granule produced, so a run
/// that finishes without tripping the token is bit-identical to the same
/// run without a token.
class CancelToken {
 public:
  CancelToken() = default;
  explicit CancelToken(Deadline deadline)
      : deadline_ns_(deadline.raw_nanos()) {}

  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Requests cancellation. Idempotent, thread-safe, async-signal-safe.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// Installs (or clears, with Deadline::Infinite()) the deadline.
  void set_deadline(Deadline deadline) {
    deadline_ns_.store(deadline.raw_nanos(), std::memory_order_relaxed);
  }

  bool cancel_requested() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  bool deadline_expired() const {
    const int64_t ns = deadline_ns_.load(std::memory_order_relaxed);
    return ns != Deadline::kInfinite && Deadline::NowNanos() >= ns;
  }

  /// True when the computation should stop (cancelled or past deadline).
  /// One relaxed load when no deadline is set.
  bool ShouldStop() const {
    return cancel_requested() || deadline_expired();
  }

  /// OK while running; kCancelled / kDeadlineExceeded once tripped.
  /// Explicit cancellation wins when both apply.
  Status Check() const;

  /// Null-tolerant helpers for the `const CancelToken*` plumbing
  /// convention (null == never cancelled).
  static bool ShouldStop(const CancelToken* token) {
    return token != nullptr && token->ShouldStop();
  }
  static Status Check(const CancelToken* token) {
    return token != nullptr ? token->Check() : Status::Ok();
  }

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<int64_t> deadline_ns_{Deadline::kInfinite};
};

}  // namespace culevo

#endif  // CULEVO_UTIL_CANCEL_H_
