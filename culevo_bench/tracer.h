#ifndef CULEVO_BENCH_TRACER_H_
#define CULEVO_BENCH_TRACER_H_

// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its calls into each layer's public functions (the
// program itself is not instrumented), kept in memory, and written once
// as Chrome trace-event JSON when the run ends.

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace culevo::cbench {

/// One timed interval. `name` is `layer.function` and must be a string
/// literal (spans store the pointer). Ids start at 1; parent 0 = a root.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  int64_t ref = -1;  ///< Request or replica id; -1 when none.
  int64_t pid = 0;   ///< Process that ran the work; 0 = this one.

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

/// Self time of one layer: span durations minus the parts of each
/// interval that its child spans cover.
struct LayerTime {
  std::string layer;
  double self_ms = 0;
  int64_t spans = 0;
};

/// Not thread-safe: spans are opened and closed by one thread at a time
/// (the traced replays are single-threaded by design), and spans measured
/// elsewhere (worker processes) are added after the fact with Add().
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span as a child of the innermost open one. Returns its id,
  /// or 0 when tracing is off.
  uint64_t Open(const char* name, int64_t ref = -1);
  void Close(uint64_t id);

  /// Records a finished span (e.g. one a worker process measured).
  uint64_t Add(const char* name, int64_t start_ns, int64_t end_ns,
               uint64_t parent, int64_t ref = -1, int64_t pid = 0);

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations in milliseconds of every span called `name`.
  std::vector<double> Durations(const std::string& name) const;
  /// Sum of durations of every span called `name`, in milliseconds.
  double TotalMs(const std::string& name) const;

  /// Per-layer self times (layer = name up to the first '.'), descending.
  std::vector<LayerTime> SelfTimeByLayer() const;
  /// Summed duration of the root spans.
  double RootWallMs() const;
  /// Share of the root wall time attributed to layers other than the
  /// roots' own (the `bench` layer): how much of the traced time the
  /// per-layer table accounts for.
  double Coverage() const;

  void PrintSelfTimeTable(std::FILE* out) const;
  Status WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<uint64_t> open_;
};

/// RAII span.
class TraceScope {
 public:
  TraceScope(Tracer* tracer, const char* name, int64_t ref = -1)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Open(name, ref) : 0) {}
  ~TraceScope() {
    if (id_ != 0) tracer_->Close(id_);
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  Tracer* tracer_;
  uint64_t id_;
};

}  // namespace culevo::cbench

#endif  // CULEVO_BENCH_TRACER_H_
