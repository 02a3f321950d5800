#ifndef CULEVO_UTIL_FAILPOINT_H_
#define CULEVO_UTIL_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "util/status.h"

namespace culevo {

/// Named fault-injection points, compiled in unconditionally.
///
/// Error-handling branches behind OS failures (a write that fails
/// mid-stream, a journal append that errors) are unreachable from
/// normal tests; failpoints make them reachable on demand. Production
/// code marks a site with CULEVO_FAILPOINT("dotted.site.name"); when the
/// site is unarmed the check is a single relaxed atomic load (the global
/// armed count), so leaving sites in release builds is free in practice.
///
/// Naming convention: `<layer>.<operation>[.<step>]`, all lower-case,
/// dot-separated — e.g. `io.write.rename`, `corpus.parse.row`,
/// `ckpt.write.record`. Sites are listed in DESIGN.md §9.
///
/// Arming: tests call `Failpoints::Get().Arm(name, spec)` (and DisarmAll
/// in teardown — the registry is process-global); operators can arm via
/// the CULEVO_FAILPOINTS environment variable, parsed on first registry
/// use: `name[=skip][*fires]` entries separated by `;` or `,`, e.g.
/// `CULEVO_FAILPOINTS="ckpt.write.record=3;io.write.sync*1"`.
class Failpoints {
 public:
  struct ArmSpec {
    /// Status injected when the failpoint fires. Must be non-OK.
    Status status = Status::IOError("injected failure");
    /// Number of hits that pass through before the first injection.
    int skip = 0;
    /// Maximum number of injections; < 0 means unlimited.
    int fires = -1;
  };

  static Failpoints& Get();

  /// Arms (or re-arms, resetting counters) the named failpoint.
  void Arm(const std::string& name, ArmSpec spec);
  /// Arms with the default IOError spec.
  void Arm(const std::string& name) { Arm(name, ArmSpec{}); }

  /// Disarms one failpoint (no-op when not armed).
  void Disarm(const std::string& name);
  /// Disarms everything and zeroes hit counts. Tests call this in
  /// teardown so armed points never leak across test cases.
  void DisarmAll();

  /// Hits observed at `name` while it was armed (pass-throughs and
  /// injections both count). 0 when never armed.
  int64_t HitCount(const std::string& name) const;

  /// Parses a CULEVO_FAILPOINTS-style spec and arms each entry. Format:
  /// `name[=skip][*fires]` separated by `;` or `,`. Whitespace around
  /// entries is ignored. A malformed entry is skipped with a stderr
  /// warning and a `failpoint.parse_errors` metric increment; all
  /// well-formed entries still arm. Returns the first entry's
  /// InvalidArgument when anything was skipped, OK otherwise.
  Status ArmFromSpec(std::string_view spec);

  /// Evaluates the failpoint: OK (and fast) when unarmed, otherwise the
  /// armed spec decides. Prefer the CULEVO_FAILPOINT macro at call sites.
  static Status Eval(std::string_view name) {
    if (armed_count_.load(std::memory_order_relaxed) == 0) {
      return Status::Ok();
    }
    return Get().EvalSlow(name);
  }

 private:
  struct State {
    ArmSpec spec;
    bool armed = false;
    int64_t hits = 0;    ///< Hits while armed.
    int64_t fired = 0;   ///< Injections delivered.
  };

  Failpoints();
  Status EvalSlow(std::string_view name);

  /// Process-wide count of armed failpoints; the unarmed fast path reads
  /// only this.
  static std::atomic<int> armed_count_;

  mutable std::mutex mu_;
  std::map<std::string, State, std::less<>> points_;
};

/// Evaluates failpoint `name`; returns the injected Status when armed and
/// due to fire, OK otherwise.
inline Status FailpointCheck(std::string_view name) {
  return Failpoints::Eval(name);
}

}  // namespace culevo

/// Marks an injection site in a function returning Status (or Result<T>):
/// propagates the injected error to the caller when armed, no-ops when not.
#define CULEVO_FAILPOINT(name) \
  CULEVO_RETURN_IF_ERROR(::culevo::FailpointCheck(name))

#endif  // CULEVO_UTIL_FAILPOINT_H_
