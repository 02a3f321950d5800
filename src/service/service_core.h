#ifndef CULEVO_SERVICE_SERVICE_CORE_H_
#define CULEVO_SERVICE_SERVICE_CORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "corpus/corpus_stats.h"
#include "corpus/recipe_corpus.h"
#include "lexicon/lexicon.h"
#include "service/query_index.h"
#include "util/status.h"

namespace culevo {

/// Tuning knobs of the query service.
struct ServiceOptions {
  /// Per-request deadline; requests may lower (never raise) it with a
  /// `deadline_ms=` option. <= 0 disables the default deadline.
  int64_t default_deadline_ms = 250;
  /// Admission control: requests beyond this many concurrently executing
  /// ones are rejected with Unavailable instead of queuing without bound.
  int max_inflight = 256;
  /// Result-row cap for list-shaped queries (top-k, search, curves).
  size_t max_results = 100;
  /// Upper bound on `simulate` replicas (each replica is a full
  /// generate+mine cycle — the one expensive query).
  int max_simulate_replicas = 8;

  /// Brownout (graceful degradation): under overload the expensive
  /// request classes (`simulate`, `search`) are shed with Unavailable +
  /// a `retry-after-ms` hint while cheap point lookups keep being served.
  /// Overload is either trigger below; see ShouldShedExpensive.
  ///
  /// Inflight trigger: shed expensive requests once more than
  /// `brownout_inflight_fraction * max_inflight` requests are executing
  /// (the remaining headroom is reserved for cheap lookups). <= 0
  /// disables.
  double brownout_inflight_fraction = 0.75;
  /// Latency trigger: shed expensive requests while the rolling
  /// latency EMA exceeds this. <= 0 disables (the default — enable it
  /// alongside an SLO, e.g. half the default deadline).
  double brownout_latency_ms = 0;
  /// Smoothing factor of the rolling latency EMA (weight of the newest
  /// sample); the EMA is also exported as `serve.latency_ema_ms`.
  double latency_ema_alpha = 0.2;
  /// The retry hint attached to brownout rejections.
  int64_t brownout_retry_after_ms = 50;
};

/// Pure brownout predicate (exposed for tests): true when an expensive
/// request arriving with `inflight` requests executing and a rolling
/// latency EMA of `latency_ema_ms` must be shed under `options`.
bool ShouldShedExpensive(const ServiceOptions& options, int inflight,
                         double latency_ema_ms);

/// One immutable generation of the service's data: the corpus, its
/// precomputed stats, and the derived query indexes. Swapped wholesale on
/// reload; readers that still hold the previous generation keep using it
/// until they finish (shared_ptr refcount is the grace period).
struct ServiceSnapshot {
  RecipeCorpus corpus;
  std::vector<CuisineStats> stats;  ///< One entry per cuisine id.
  QueryIndex index;
  uint64_t epoch = 0;      ///< Monotonic install counter.
  std::string source;      ///< Snapshot path or "<synthetic>".
  /// CorpusContentFingerprint of `corpus`: the identity a reload-delta's
  /// base must match (see ReloadDelta).
  uint64_t content_fingerprint = 0;
};

/// The transport-independent query engine behind `culevod`.
///
/// Request grammar (one line; `key=value` tokens are options, everything
/// else positional; ingredients are names, or `#<id>` for raw ids;
/// comma-separated lists):
///
///   ping
///   info
///   metrics
///   stats   <CUISINE>
///   overrep <CUISINE> [k]
///   nearest <CUISINE> [k]
///   freq    <CUISINE> <ingredient>
///   recipe  <index>
///   search  <ingredient>[,<ingredient>...] [cuisine=CODE] [limit=N]
///   simulate <CUISINE> <CM-R|CM-C|CM-M|NM> [replicas=N] [seed=N]
///   reload-delta <path>
///
/// Any request accepts `deadline_ms=N` to tighten its deadline below the
/// service default. Responses: first line `ok [rows]` or
/// `error <Status>`, then one row per line, tab-separated; doubles are
/// rendered with %.17g so round-tripping them is lossless (the values are
/// bit-identical to the batch analysis entry points on the same corpus).
/// Brownout rejections carry one extra row, `retry-after-ms\t<N>`.
///
/// `metrics` and `reload-delta` are admin requests: they are exempt from
/// brownout shedding, and `metrics` works before any corpus is installed.
/// `reload-delta` paths must not contain spaces or '=' (both would split
/// under the token grammar).
///
/// Concurrency: Handle() is safe from any number of threads. Each request
/// acquires the current snapshot once (RCU-style: one mutex-guarded
/// shared_ptr copy) and runs entirely against that generation, so a
/// concurrent Reload never fails or torn-reads an in-flight request.
///
/// Metrics: serve.requests, serve.rejects, serve.errors,
/// serve.latency_ms, serve.latency_ema_ms, serve.inflight, serve.reloads,
/// serve.delta_reloads, serve.reload_failures, serve.deadline_drops,
/// serve.brownout.sheds, serve.brownout.active, serve.index.build_ms and
/// its per-table parts serve.index.{counts,overrep,profiles,postings,
/// ranks}_ms.
/// Failpoints: serve.reload (before any reload touches its file), plus
/// the staged delta-swap points serve.reload.delta.read,
/// serve.reload.delta.apply, serve.reload.index, serve.reload.install.
class ServiceCore {
 public:
  ServiceCore(const Lexicon* lexicon, ServiceOptions options);

  /// Loads a CULEVO-CORPUS snapshot file, builds the query indexes, and
  /// installs the new generation. On any failure the previous generation
  /// stays installed and keeps serving (serve.reload_failures counts it).
  Status LoadFromFile(const std::string& path);

  /// Builds the next generation from the *current* generation's corpus
  /// plus a CULEVO-DELTA file — no snapshot re-read (the hot incremental
  /// reload; `corpus.snapshot.mmap_loads` stays flat). The delta's base
  /// recipe count and content fingerprint must match the serving
  /// generation exactly; any mismatch is refused with FailedPrecondition.
  /// Like LoadFromFile, any failure at any stage of the swap leaves the
  /// old generation serving.
  Status ReloadDelta(const std::string& path);

  /// Installs an in-memory corpus (tests, benches, --synth mode).
  Status InstallCorpus(RecipeCorpus corpus, std::string source);

  /// Current generation; null until the first successful install.
  std::shared_ptr<const ServiceSnapshot> Acquire() const;

  /// Executes one request line and renders the response payload.
  /// Never throws; every failure renders as an `error <Status>` line.
  std::string Handle(std::string_view request);

  const ServiceOptions& options() const { return options_; }

  /// Rolling request-latency EMA in milliseconds (0 until the first
  /// completed request). The latency half of the brownout detector.
  double latency_ema_ms() const {
    return latency_ema_ms_.load(std::memory_order_relaxed);
  }

 private:
  Status Install(std::shared_ptr<const ServiceSnapshot> next);
  void RecordLatency(double elapsed_ms);

  const Lexicon* lexicon_;
  ServiceOptions options_;

  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const ServiceSnapshot> snapshot_;
  uint64_t next_epoch_ = 1;

  std::atomic<int> inflight_{0};
  std::atomic<double> latency_ema_ms_{0.0};
};

}  // namespace culevo

#endif  // CULEVO_SERVICE_SERVICE_CORE_H_
