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

/// One atomic replacement of a file, written in pieces: Open creates a
/// unique temp file in the target directory (skipping a name a crashed
/// process left taken), Write appends to it, and Commit flushes it (fsync
/// when `sync` is set), renames it over the target and fsyncs the
/// directory. Readers — and crashes at any point — observe either the
/// complete previous file or the complete new one, never a truncated
/// hybrid: the target keeps its old bytes until Commit succeeds. A failed
/// step, or destroying the writer before Commit, unlinks the temp file.
/// Nothing is retried here; WriteFileAtomic retries whole attempts.
///
/// Metrics: `io.write.atomic` (successful commits).
///
/// Failpoints: `io.write.open` (Open), `io.write.write` (each Write),
/// `io.write.sync` and `io.write.rename` (Commit), each inside its step.
class AtomicFileWriter {
 public:
  AtomicFileWriter() = default;
  ~AtomicFileWriter();
  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  /// Starts replacing `path`, abandoning any uncommitted replacement.
  Status Open(std::string path, bool sync);
  /// Appends `data` to the replacement; a failure abandons it.
  Status Write(std::string_view data);
  /// Publishes the replacement. The writer is closed afterwards, whether
  /// or not Commit succeeded; Write and Commit are then refused until the
  /// next Open.
  Status Commit();

 private:
  /// Closes the temp file and unlinks it, if there is one.
  void Abandon();

  std::string path_;
  std::string temp_;
  int fd_ = -1;
  bool sync_ = true;
};

/// Writes `content` to `path` atomically through one AtomicFileWriter
/// Open–Write–Commit per attempt. Transient failures are retried with
/// decorrelated-jitter backoff (NextBackoffDelay) up to
/// `options.max_attempts`; no failed attempt leaves its temp file behind.
///
/// Metrics: `io.write.atomic` (successful writes, counted by Commit),
/// `io.write.retries` (attempts beyond the first), `io.write.failures`
/// (calls that exhausted all attempts).
///
/// Failpoints: AtomicFileWriter's, so each fires once per attempt.
Status WriteFileAtomic(const std::string& path, std::string_view content,
                       const AtomicWriteOptions& options = {});

}  // namespace culevo

#endif  // CULEVO_UTIL_FILE_IO_H_
