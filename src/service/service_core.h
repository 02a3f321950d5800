#ifndef CULEVO_SERVICE_SERVICE_CORE_H_
#define CULEVO_SERVICE_SERVICE_CORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "corpus/corpus_snapshot.h"
#include "corpus/recipe_corpus.h"
#include "lexicon/lexicon.h"
#include "service/query_index.h"
#include "util/status.h"

namespace culevo {

/// Result-row cap for list-shaped queries (top-k, search, curves).
inline constexpr size_t kMaxResults = 100;
/// Upper bound on `simulate` replicas (each replica is a full
/// generate+mine cycle — the one expensive query).
inline constexpr int kMaxSimulateReplicas = 8;
/// Brownout inflight trigger: expensive requests are shed once more than
/// this share of ServiceOptions::max_inflight requests are executing (the
/// remaining headroom is reserved for cheap lookups).
inline constexpr double kBrownoutInflightFraction = 0.75;

/// Tuning knobs of the query service (culevod's serving flags).
struct ServiceOptions {
  /// Per-request deadline; requests may lower (never raise) it with a
  /// `deadline_ms=` option. <= 0 disables the default deadline.
  int64_t default_deadline_ms = 250;
  /// Admission control: requests beyond this many concurrently executing
  /// ones are rejected with Unavailable instead of queuing without bound.
  int max_inflight = 256;

  /// Brownout (graceful degradation): under overload the expensive
  /// request classes (`simulate`, `search`) are shed with Unavailable +
  /// a `retry-after-ms` hint while cheap point lookups keep being served.
  /// Overload is either the inflight trigger (kBrownoutInflightFraction)
  /// or the latency trigger below; see ShouldShedExpensive.
  ///
  /// Latency trigger: shed expensive requests while the rolling
  /// latency EMA exceeds this. <= 0 disables (the default — enable it
  /// alongside an SLO, e.g. half the default deadline).
  double brownout_latency_ms = 0;
};

/// Pure brownout predicate (exposed for tests): true when an expensive
/// request arriving with `inflight` requests executing and a rolling
/// latency EMA of `latency_ema_ms` must be shed under `options`.
bool ShouldShedExpensive(const ServiceOptions& options, int inflight,
                         double latency_ema_ms);

/// One immutable generation of the service's data: the corpus (with the
/// presence counts and size histograms it keeps) and the query indexes
/// derived from it. Swapped wholesale on reload; readers that
/// still hold the previous generation keep using it until they finish
/// (shared_ptr refcount is the grace period). A generation made by a
/// delta reload shares its corpus's base columns and its index's posting
/// base with the generation it extends, so those (and a mapped snapshot
/// they lie in) live as long as any generation that extends them.
///
/// Every generation counts in the serve.generations_live gauge from
/// construction to destruction, so one that something still pins after a
/// reload shows up there.
struct ServiceSnapshot {
  ServiceSnapshot();
  ~ServiceSnapshot();
  ServiceSnapshot(const ServiceSnapshot&) = delete;
  ServiceSnapshot& operator=(const ServiceSnapshot&) = delete;

  RecipeCorpus corpus;
  QueryIndex index;
  uint64_t epoch = 0;      ///< Monotonic install counter.
  std::string source;      ///< Snapshot path or "<synthetic>".
  /// CorpusContentFingerprint of `corpus`: the identity a reload-delta's
  /// base must match (see ReloadDelta).
  uint64_t content_fingerprint = 0;
  /// HashCorpusColumns of `corpus`, which the fingerprint folds: a delta
  /// reload keeps their full blocks and hashes only the rest.
  CorpusColumnHashes column_hashes;
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
///   overrep <CUISINE> [k] [k=N]
///   nearest <CUISINE> [k] [k=N]
///   freq    <CUISINE> <ingredient>
///   recipe  <index>
///   search  <ingredient>[,<ingredient>...] [cuisine=CODE] [limit=N]
///   simulate <CUISINE> <CM-R|CM-C|CM-M|NM> [replicas=N] [seed=N]
///   reload-delta <path>
///
/// `overrep` and `nearest` return their top k rows (default 5), k given
/// positionally or as `k=N`; a positional k wins. Any request accepts
/// `deadline_ms=N` to tighten its deadline below the service default.
/// Responses: first line `ok [rows]` or `error <Status>`, then one row
/// per line, tab-separated; doubles are rendered with %.17g so
/// round-tripping them is lossless (the values are bit-identical to the
/// batch analysis entry points on the same corpus).
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
/// serve.brownout.sheds, serve.brownout.active, serve.generations_live
/// (ServiceSnapshots alive: 1 when idle, 2 while a reload builds the next
/// one or a reader still holds the previous one), serve.index.build_ms and
/// its per-table parts serve.index.{overrep,profiles,postings,ranks}_ms
/// (a full index build: cold start, LoadFromFile, InstallCorpus),
/// serve.index.tail_recipes (gauge: the recipes in the installed
/// generation's posting tail, 0 after a full install), and the stages of
/// a successful delta reload,
/// serve.reload.{load,apply,index,fingerprint,install,release}_ms
/// (release is dropping the replaced generation after the swap).
/// Failpoints: serve.reload (before any reload touches its file), plus
/// the staged delta-swap points serve.reload.delta.read,
/// serve.reload.delta.apply, serve.reload.index, serve.reload.install.
class ServiceCore {
 public:
  ServiceCore(const Lexicon* lexicon, ServiceOptions options);

  /// Loads a CULEVO-CORPUS snapshot file, builds the query indexes, and
  /// installs the new generation. On any failure the previous generation
  /// stays installed and keeps serving (serve.reload_failures counts it).
  /// Every install path refuses, with FailedPrecondition, a corpus that
  /// uses an ingredient id outside the lexicon.
  Status LoadFromFile(const std::string& path);

  /// Builds the next generation from the *current* generation's corpus
  /// plus a CULEVO-DELTA file — no snapshot re-read (the hot incremental
  /// reload; `corpus.snapshot.mmap_loads` stays flat). The next corpus
  /// shares the current one's base columns and owns a tail over every
  /// recipe added since that base (IncrementalCorpus), plus its own
  /// unique lists, presence counts and size histograms, so a reload
  /// allocates O(delta) columns and never copies the base. The delta's
  /// base recipe count and content fingerprint must match the serving
  /// generation exactly; any mismatch is refused with FailedPrecondition.
  /// Like LoadFromFile, any failure at any stage of the swap leaves the
  /// old generation serving. The next generation's index extends the current
  /// one's (QueryIndex::Extend): both share one posting base, and only
  /// the tail over the recipes added since that base is placed, on the
  /// calling thread alone, so the CPUs of the other workers stay with the
  /// reads they serve meanwhile. The fingerprint extends the serving
  /// generation's column block hashes (HashCorpusColumns with a prefix):
  /// only each column's last block and the bytes the delta added are
  /// hashed. LoadFromFile and InstallCorpus start a fresh base with an
  /// empty tail.
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
  /// Swaps `next` in and returns the generation it replaced (null for
  /// the first install). The swap is all that runs under snapshot_mu_:
  /// the caller drops the returned handle after the lock is released, so
  /// tearing the old generation down never stalls a reader's Acquire().
  Result<std::shared_ptr<const ServiceSnapshot>> Install(
      std::shared_ptr<const ServiceSnapshot> next);
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
