#ifndef CULEVO_UTIL_FILE_IO_H_
#define CULEVO_UTIL_FILE_IO_H_

#include <chrono>
#include <string>
#include <string_view>

#include "util/rng.h"
#include "util/status.h"

namespace culevo {

/// Tuning knobs for WriteFileAtomic.
struct AtomicWriteOptions {
  /// Total attempts (first try + retries). Must be >= 1.
  int max_attempts = 3;
  /// Base (minimum) sleep before a retry; see NextBackoffDelay for how
  /// the actual delay grows and jitters from here.
  std::chrono::milliseconds retry_backoff{5};
  /// Ceiling on any single retry sleep.
  std::chrono::milliseconds max_backoff{1000};
  /// Seeds the jitter stream. The default 0 derives from the process id
  /// so concurrent processes retrying the same file spread out; tests
  /// pass a fixed nonzero seed for reproducible delay sequences.
  uint64_t backoff_seed = 0;
  /// fsync the temp file before the rename (and the directory after it),
  /// so a crash immediately after WriteFileAtomic returns OK cannot lose
  /// the content. Tests disable this to keep tmpfs churn down.
  bool sync = true;
};

/// One step of decorrelated-jitter backoff (Brooker, "Exponential Backoff
/// And Jitter"): uniform in [base, prev*3], capped at `cap`. Unlike plain
/// doubling, concurrent retriers that failed together do not wake together
/// — the delays decorrelate after the first step while still growing
/// toward the cap on repeated failure. Pure given the Rng state; pass
/// `prev = base` on the first retry.
std::chrono::milliseconds NextBackoffDelay(std::chrono::milliseconds base,
                                           std::chrono::milliseconds prev,
                                           std::chrono::milliseconds cap,
                                           Rng* rng);

/// Writes all of `data` to `fd`, looping over partial writes and EINTR.
/// `path` names the file in the IOError.
Status WriteAll(int fd, std::string_view data, const std::string& path);

/// Writes `content` to `path` atomically: the bytes land in a unique temp
/// file in the target directory, are flushed (and fsynced, see options),
/// and the temp file is renamed over `path`. Readers — and crashes at any
/// point — observe either the complete previous file or the complete new
/// one, never a truncated hybrid. Transient failures are retried with
/// decorrelated-jitter backoff (NextBackoffDelay) up to
/// `options.max_attempts`; the temp file is unlinked on every failure
/// path.
///
/// Metrics: `io.write.atomic` (successful writes), `io.write.retries`
/// (attempts beyond the first), `io.write.failures` (calls that exhausted
/// all attempts).
///
/// Failpoints: `io.write.open`, `io.write.write`, `io.write.sync`,
/// `io.write.rename` fire once per attempt inside the corresponding step.
Status WriteFileAtomic(const std::string& path, std::string_view content,
                       const AtomicWriteOptions& options = {});

}  // namespace culevo

#endif  // CULEVO_UTIL_FILE_IO_H_
