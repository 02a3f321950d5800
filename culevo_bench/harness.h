#ifndef CULEVO_BENCH_HARNESS_H_
#define CULEVO_BENCH_HARNESS_H_

// Measurement plumbing shared by every culevo_bench workload: the clock,
// exact percentiles over raw samples, the metric report that ends in the
// one-line JSON result, and the files child processes report through.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"
#include "util/subprocess.h"

namespace culevo::cbench {

/// Monotonic nanoseconds (CLOCK_MONOTONIC, so comparable across the
/// processes of one run).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of raw values (mean of the middle two for even counts); 0 for
/// an empty input.
double Median(std::vector<double> values);

/// Latency summary from raw samples. Percentiles are nearest-rank on the
/// sorted samples, never interpolated from histogram buckets.
struct LatencySummary {
  size_t count = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  double max = 0;
};
LatencySummary Summarize(std::vector<double> samples);

/// Nearest-rank percentile of ascending `sorted` (q in (0, 1]); 0 when
/// empty.
double NearestRank(const std::vector<double>& sorted, double q);

/// One metric of the benchmark's vocabulary (BENCHMARK.json lists the
/// same names and units; run.py --smoke checks that they agree).
struct MetricSpec {
  const char* name;
  const char* unit;
};
/// Printed by untraced runs: what a user of the workload waits on or pays.
extern const std::vector<MetricSpec> kEndToEndMetrics;
/// Printed by traced runs: one layer's work, time, waiting or failures.
/// A layer the workload never enters reads 0.
extern const std::vector<MetricSpec> kPerLayerMetrics;

/// Everything one workload run reports: metric values, the
/// attempted/failed operation counts, and the correctness verdict.
class Report {
 public:
  /// `name` must be in one of the catalogs above (a typo aborts).
  void Set(const std::string& name, double value);
  /// Records one correctness check; a false `ok` makes the run incorrect
  /// and prints `what` to stderr.
  void Check(bool ok, const std::string& what);
  void AddAttempted(int64_t n) { attempted_ += n; }
  void AddFailed(int64_t n) { failed_ += n; }

  bool correct() const { return correct_; }

  /// Prints `value unit` lines for every catalog metric that was set.
  void Print(std::FILE* out, const std::vector<MetricSpec>& catalog) const;

  /// `{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`
  /// with every metric of `catalog`, in catalog order (unset ones as 0).
  std::string Json(const std::vector<MetricSpec>& catalog) const;

 private:
  std::map<std::string, double> values_;
  bool correct_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// How the measured program's processes are spawned: their stdout (which
/// none of them uses) is silenced so this process's stdout stays
/// machine-readable; stderr passes through.
SpawnOptions MeasuredSpawnOptions();

/// Peak resident set (VmHWM) of a live process in MiB; 0 when unreadable.
double VmHwmMb(int64_t pid);

/// `key value...` lines of a result file written by a child role (or of
/// pinned.txt); lines starting with `#` are comments.
using KeyValues = std::map<std::string, std::vector<std::string>>;
Result<KeyValues> ReadKeyValues(const std::string& path);
/// Numeric field helpers over KeyValues (0 / empty when absent).
double KvNumber(const KeyValues& kv, const std::string& key);
std::vector<double> KvNumbers(const KeyValues& kv, const std::string& key);
/// Exact integers (nanosecond timestamps do not fit a double's mantissa).
std::vector<int64_t> KvInts(const KeyValues& kv, const std::string& key);

/// Size of a file in bytes; 0 when it cannot be stat'ed.
int64_t FileBytes(const std::string& path);

}  // namespace culevo::cbench

#endif  // CULEVO_BENCH_HARNESS_H_
