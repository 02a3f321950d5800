#include "service/service_core.h"

#include <algorithm>
#include <map>
#include <utility>

#include "core/copy_mutate.h"
#include "core/evolution_model.h"
#include "core/null_model.h"
#include "core/simulation.h"
#include "corpus/corpus_snapshot.h"
#include "corpus/corpus_stats.h"
#include "corpus/cuisine.h"
#include "corpus/ingestion.h"
#include "obs/metrics.h"
#include "util/cancel.h"
#include "util/failpoint.h"
#include "util/stopwatch.h"
#include "util/strings.h"

namespace culevo {
namespace {

/// Smoothing factor of the rolling latency EMA (weight of the newest
/// sample); the EMA is also exported as `serve.latency_ema_ms`.
constexpr double kLatencyEmaAlpha = 0.2;
/// The retry hint attached to brownout rejections.
constexpr int64_t kBrownoutRetryAfterMs = 50;

/// One parsed request: positional tokens plus key=value options.
struct ParsedRequest {
  std::string command;
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;
};

Result<ParsedRequest> ParseRequest(std::string_view request) {
  ParsedRequest parsed;
  for (const std::string& raw : Split(std::string(request), ' ')) {
    const std::string_view token = Trim(raw);
    if (token.empty()) continue;
    const size_t eq = token.find('=');
    // `#` ids and ingredient names never contain '='; any token with one
    // is an option.
    if (eq != std::string_view::npos && eq > 0) {
      const std::string key(token.substr(0, eq));
      if (key != "deadline_ms" && key != "limit" && key != "cuisine" &&
          key != "replicas" && key != "seed" && key != "k") {
        return Status::InvalidArgument(
            StrFormat("unknown option '%s'", key.c_str()));
      }
      parsed.options[key] = std::string(token.substr(eq + 1));
      continue;
    }
    if (parsed.command.empty()) {
      parsed.command = std::string(token);
    } else {
      parsed.positional.emplace_back(token);
    }
  }
  if (parsed.command.empty()) {
    return Status::InvalidArgument("empty request");
  }
  return parsed;
}

Result<long long> ParseInt(const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0') {
    return Status::InvalidArgument(
        StrFormat("malformed integer '%s'", text.c_str()));
  }
  return value;
}

/// Option lookup with default; malformed values are errors, not silent
/// fallbacks (a typo'd limit must not return unbounded rows).
Result<long long> IntOption(const ParsedRequest& request,
                            const std::string& key, long long fallback) {
  const auto it = request.options.find(key);
  if (it == request.options.end()) return fallback;
  return ParseInt(it->second);
}

/// Resolves `#<id>` or a lexicon name to an ingredient id.
Result<IngredientId> ResolveIngredient(const Lexicon& lexicon,
                                       std::string_view mention) {
  if (!mention.empty() && mention.front() == '#') {
    Result<long long> id = ParseInt(std::string(mention.substr(1)));
    if (!id.ok()) return id.status();
    if (*id < 0 || static_cast<size_t>(*id) >= lexicon.size()) {
      return Status::NotFound(
          StrFormat("ingredient id %lld out of range", *id));
    }
    return static_cast<IngredientId>(*id);
  }
  const std::optional<IngredientId> id = lexicon.Find(mention);
  if (!id.has_value()) {
    return Status::NotFound(StrFormat("unknown ingredient '%.*s'",
                                      static_cast<int>(mention.size()),
                                      mention.data()));
  }
  return *id;
}

std::string Num(double value) { return StrFormat("%.17g", value); }

std::string RenderOk(const std::vector<std::string>& rows) {
  std::string out = StrFormat("ok %zu\n", rows.size());
  for (const std::string& row : rows) {
    out += row;
    out += '\n';
  }
  return out;
}

std::string RenderError(const Status& status) {
  return "error " + status.ToString() + "\n";
}

/// Brownout rejection: the error line plus a machine-readable retry hint
/// row, so clients can back off instead of hammering an overloaded server.
std::string RenderErrorWithRetry(const Status& status, int64_t retry_ms) {
  return RenderError(status) +
         StrFormat("retry-after-ms\t%lld\n",
                   static_cast<long long>(retry_ms));
}

/// The expensive request classes brownout sheds first: `simulate` runs
/// full generate+mine replicas, `search` walks postings intersections.
/// Everything else is a point lookup into precomputed tables.
bool IsExpensiveCommand(const std::string& command) {
  return command == "simulate" || command == "search";
}

Result<CuisineId> CuisineArg(const ParsedRequest& request, size_t pos) {
  if (request.positional.size() <= pos) {
    return Status::InvalidArgument("missing cuisine code");
  }
  return CuisineFromCode(request.positional[pos]);
}

/// The `k` of `overrep` and `nearest`: the positional one, else the `k=`
/// option, else 5.
Result<size_t> TopK(const ParsedRequest& request) {
  Result<long long> k = request.positional.size() > 1
                            ? ParseInt(request.positional[1])
                            : IntOption(request, "k", 5);
  if (!k.ok()) return k.status();
  if (*k <= 0) return Status::InvalidArgument("k must be positive");
  return static_cast<size_t>(*k);
}

/// `overrep <CUISINE> [k]` — prefix slice of the precomputed table.
Result<std::vector<std::string>> HandleOverrep(
    const Lexicon& lexicon, const ParsedRequest& request,
    const ServiceSnapshot& snapshot) {
  Result<CuisineId> cuisine = CuisineArg(request, 0);
  if (!cuisine.ok()) return cuisine.status();
  const Result<size_t> k = TopK(request);
  if (!k.ok()) return k.status();
  const std::span<const OverrepresentationScore> table =
      snapshot.index.Overrepresentation(*cuisine);
  const size_t n = std::min<size_t>({*k, table.size(), kMaxResults});
  std::vector<std::string> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const OverrepresentationScore& s = table[i];
    rows.push_back(StrFormat("%s\t%s\t%s\t%s",
                             lexicon.name(s.ingredient).c_str(),
                             Num(s.score).c_str(),
                             Num(s.cuisine_fraction).c_str(),
                             Num(s.world_fraction).c_str()));
  }
  return rows;
}

/// `nearest <CUISINE> [k]` — prefix of the precomputed neighbour list.
Result<std::vector<std::string>> HandleNearest(
    const ParsedRequest& request, const ServiceSnapshot& snapshot) {
  Result<CuisineId> cuisine = CuisineArg(request, 0);
  if (!cuisine.ok()) return cuisine.status();
  const Result<size_t> k = TopK(request);
  if (!k.ok()) return k.status();
  const std::span<const CuisineNeighbor> neighbors =
      snapshot.index.Nearest(*cuisine, std::min(*k, kMaxResults));
  std::vector<std::string> rows;
  rows.reserve(neighbors.size());
  for (const CuisineNeighbor& n : neighbors) {
    rows.push_back(StrFormat("%s\t%s",
                             std::string(CuisineAt(n.cuisine).code).c_str(),
                             Num(n.distance).c_str()));
  }
  return rows;
}

/// `freq <CUISINE> <ingredient>` — usage count/fraction/rank.
Result<std::vector<std::string>> HandleFreq(const Lexicon& lexicon,
                                            const ParsedRequest& request,
                                            const ServiceSnapshot& snapshot) {
  Result<CuisineId> cuisine = CuisineArg(request, 0);
  if (!cuisine.ok()) return cuisine.status();
  if (request.positional.size() < 2) {
    return Status::InvalidArgument("missing ingredient");
  }
  std::string mention = request.positional[1];
  for (size_t i = 2; i < request.positional.size(); ++i) {
    mention += ' ';
    mention += request.positional[i];
  }
  Result<IngredientId> id = ResolveIngredient(lexicon, mention);
  if (!id.ok()) return id.status();
  const std::optional<QueryIndex::UsageRank> usage =
      snapshot.index.Usage(*cuisine, *id);
  if (!usage.has_value()) {
    return Status::NotFound(
        StrFormat("'%s' is not used in %s", mention.c_str(),
                  std::string(CuisineAt(*cuisine).code).c_str()));
  }
  return std::vector<std::string>{
      StrFormat("%u\t%s\t%u", usage->count, Num(usage->fraction).c_str(),
                usage->rank)};
}

/// `recipe <index>` — one recipe's cuisine + ingredient names.
Result<std::vector<std::string>> HandleRecipe(
    const Lexicon& lexicon, const ParsedRequest& request,
    const ServiceSnapshot& snapshot) {
  if (request.positional.empty()) {
    return Status::InvalidArgument("missing recipe index");
  }
  Result<long long> index = ParseInt(request.positional[0]);
  if (!index.ok()) return index.status();
  if (*index < 0 ||
      static_cast<size_t>(*index) >= snapshot.corpus.num_recipes()) {
    return Status::NotFound(
        StrFormat("recipe %lld out of range (corpus has %zu)", *index,
                  snapshot.corpus.num_recipes()));
  }
  const uint32_t r = static_cast<uint32_t>(*index);
  std::vector<std::string> names;
  for (IngredientId id : snapshot.corpus.ingredients_of(r)) {
    names.push_back(lexicon.name(id));
  }
  return std::vector<std::string>{StrFormat(
      "%s\t%s",
      std::string(CuisineAt(snapshot.corpus.cuisine_of(r)).code).c_str(),
      Join(names, ", ").c_str())};
}

/// `search <ingredient>[,...] [cuisine=CODE] [limit=N]` — postings
/// intersection.
Result<std::vector<std::string>> HandleSearch(
    const Lexicon& lexicon, const ParsedRequest& request,
    const ServiceSnapshot& snapshot) {
  if (request.positional.empty()) {
    return Status::InvalidArgument("missing ingredient list");
  }
  std::string joined = request.positional[0];
  for (size_t i = 1; i < request.positional.size(); ++i) {
    joined += ' ';
    joined += request.positional[i];
  }
  std::vector<IngredientId> ids;
  for (const std::string& mention : SplitAndTrim(joined, ',')) {
    Result<IngredientId> id = ResolveIngredient(lexicon, mention);
    if (!id.ok()) return id.status();
    ids.push_back(*id);
  }
  if (ids.empty()) {
    return Status::InvalidArgument("missing ingredient list");
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());

  std::optional<CuisineId> cuisine;
  if (const auto it = request.options.find("cuisine");
      it != request.options.end()) {
    Result<CuisineId> parsed = CuisineFromCode(it->second);
    if (!parsed.ok()) return parsed.status();
    cuisine = *parsed;
  }
  Result<long long> limit = IntOption(request, "limit", 10);
  if (!limit.ok()) return limit.status();
  if (*limit <= 0) return Status::InvalidArgument("limit must be positive");

  const std::vector<uint32_t> hits = snapshot.index.SearchRecipes(
      ids, cuisine,
      std::min<size_t>(static_cast<size_t>(*limit), kMaxResults));
  std::vector<std::string> rows;
  rows.reserve(hits.size());
  for (uint32_t r : hits) {
    std::vector<std::string> names;
    for (IngredientId id : snapshot.corpus.ingredients_of(r)) {
      names.push_back(lexicon.name(id));
    }
    rows.push_back(StrFormat(
        "%u\t%s\t%s", r,
        std::string(CuisineAt(snapshot.corpus.cuisine_of(r)).code).c_str(),
        Join(names, ", ").c_str()));
  }
  return rows;
}

/// `stats <CUISINE>` — the CuisineStats row, read off the corpus's size
/// histogram and unique list.
Result<std::vector<std::string>> HandleStats(const ParsedRequest& request,
                                             const ServiceSnapshot& snapshot) {
  Result<CuisineId> cuisine = CuisineArg(request, 0);
  if (!cuisine.ok()) return cuisine.status();
  const CuisineStats stats = ComputeCuisineStats(snapshot.corpus, *cuisine);
  return std::vector<std::string>{
      StrFormat("recipes\t%zu", stats.num_recipes),
      StrFormat("unique_ingredients\t%zu", stats.num_unique_ingredients),
      StrFormat("mean_size\t%s", Num(stats.mean_recipe_size).c_str()),
      StrFormat("min_size\t%d", stats.min_recipe_size),
      StrFormat("max_size\t%d", stats.max_recipe_size)};
}

/// `simulate <CUISINE> <model> [replicas=N] [seed=N]` — bounded
/// on-demand model simulation under the request deadline.
Result<std::vector<std::string>> HandleSimulate(
    const Lexicon& lexicon, const ParsedRequest& request,
    const ServiceSnapshot& snapshot, const CancelToken& cancel) {
  Result<CuisineId> cuisine = CuisineArg(request, 0);
  if (!cuisine.ok()) return cuisine.status();
  if (request.positional.size() < 2) {
    return Status::InvalidArgument(
        "missing model name (CM-R, CM-C, CM-M, NM)");
  }
  const std::string& name = request.positional[1];
  std::unique_ptr<CopyMutateModel> cm;
  const NullModel nm;
  const EvolutionModel* model = nullptr;
  if (name == "CM-R") {
    cm = MakeCmR(&lexicon);
    model = cm.get();
  } else if (name == "CM-C") {
    cm = MakeCmC(&lexicon);
    model = cm.get();
  } else if (name == "CM-M") {
    cm = MakeCmM(&lexicon);
    model = cm.get();
  } else if (name == "NM") {
    model = &nm;
  } else {
    return Status::InvalidArgument(
        StrFormat("unknown model '%s' (want CM-R, CM-C, CM-M, NM)",
                  name.c_str()));
  }

  Result<long long> replicas = IntOption(request, "replicas", 2);
  if (!replicas.ok()) return replicas.status();
  if (*replicas <= 0 || *replicas > kMaxSimulateReplicas) {
    return Status::InvalidArgument(
        StrFormat("replicas must be in [1, %d], got %lld",
                  kMaxSimulateReplicas, *replicas));
  }
  Result<long long> seed = IntOption(request, "seed", 42);
  if (!seed.ok()) return seed.status();

  Result<CuisineContext> context =
      ContextFromCorpus(snapshot.corpus, *cuisine);
  if (!context.ok()) return context.status();

  SimulationConfig config;
  config.replicas = static_cast<int>(*replicas);
  config.seed = static_cast<uint64_t>(*seed);
  config.cancel = &cancel;
  Result<SimulationResult> result =
      RunSimulation(*model, *context, lexicon, config);
  if (!result.ok()) return result.status();

  const std::vector<double>& values = result->ingredient_curve.values();
  const size_t n = std::min(values.size(), kMaxResults);
  std::vector<std::string> rows;
  rows.reserve(n + 1);
  rows.push_back(StrFormat("model\t%s\treplicas\t%d\tseed\t%lld",
                           name.c_str(), config.replicas, *seed));
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(StrFormat("%zu\t%s", i + 1, Num(values[i]).c_str()));
  }
  return rows;
}

Result<std::vector<std::string>> HandleInfo(const ServiceSnapshot& snapshot) {
  size_t populated = 0;
  for (int c = 0; c < kNumCuisines; ++c) {
    if (snapshot.corpus.num_recipes_in(static_cast<CuisineId>(c)) > 0) {
      ++populated;
    }
  }
  return std::vector<std::string>{
      StrFormat("epoch\t%llu",
                static_cast<unsigned long long>(snapshot.epoch)),
      StrFormat("source\t%s", snapshot.source.c_str()),
      StrFormat("recipes\t%zu", snapshot.corpus.num_recipes()),
      StrFormat("mentions\t%zu", snapshot.corpus.total_mentions()),
      StrFormat("cuisines\t%zu", populated),
      StrFormat("fingerprint\t%016llx",
                static_cast<unsigned long long>(
                    snapshot.content_fingerprint))};
}

/// `metrics` — the full registry, one row per metric. Counters and gauges
/// render their value; histograms render count/mean/p50/p99. Admin
/// introspection (the soak harness reads corpus.snapshot.mmap_loads here),
/// so the rows are not subject to kMaxResults.
std::vector<std::string> HandleMetrics() {
  const obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Get().Snapshot();
  std::vector<std::string> rows;
  rows.reserve(snapshot.size());
  for (const auto& [name, value] : snapshot.counters) {
    rows.push_back(StrFormat("counter\t%s\t%lld", name.c_str(),
                             static_cast<long long>(value)));
  }
  for (const auto& [name, value] : snapshot.gauges) {
    rows.push_back(StrFormat("gauge\t%s\t%s", name.c_str(),
                             Num(value).c_str()));
  }
  for (const auto& [name, stats] : snapshot.histograms) {
    rows.push_back(StrFormat(
        "hist\t%s\t%lld\t%s\t%s\t%s", name.c_str(),
        static_cast<long long>(stats.count), Num(stats.mean()).c_str(),
        Num(stats.Quantile(0.5)).c_str(), Num(stats.Quantile(0.99)).c_str()));
  }
  return rows;
}

Result<std::vector<std::string>> Dispatch(const Lexicon& lexicon,
                                          const ParsedRequest& request,
                                          const ServiceSnapshot& snapshot,
                                          const CancelToken& cancel) {
  if (request.command == "ping") {
    return std::vector<std::string>{"pong"};
  }
  if (request.command == "info") return HandleInfo(snapshot);
  if (request.command == "stats") return HandleStats(request, snapshot);
  if (request.command == "overrep") {
    return HandleOverrep(lexicon, request, snapshot);
  }
  if (request.command == "nearest") {
    return HandleNearest(request, snapshot);
  }
  if (request.command == "freq") {
    return HandleFreq(lexicon, request, snapshot);
  }
  if (request.command == "recipe") {
    return HandleRecipe(lexicon, request, snapshot);
  }
  if (request.command == "search") {
    return HandleSearch(lexicon, request, snapshot);
  }
  if (request.command == "simulate") {
    return HandleSimulate(lexicon, request, snapshot, cancel);
  }
  return Status::InvalidArgument(
      StrFormat("unknown command '%s'", request.command.c_str()));
}

/// RAII in-flight counter (admission control + serve.inflight gauge).
class InflightGuard {
 public:
  InflightGuard(std::atomic<int>* inflight, obs::Gauge* gauge)
      : inflight_(inflight), gauge_(gauge) {
    entered_ = inflight_->fetch_add(1, std::memory_order_relaxed) + 1;
    gauge_->Add(1.0);
  }
  ~InflightGuard() {
    inflight_->fetch_sub(1, std::memory_order_relaxed);
    gauge_->Add(-1.0);
  }
  InflightGuard(const InflightGuard&) = delete;
  InflightGuard& operator=(const InflightGuard&) = delete;

  /// This request's position in the in-flight count (1 = alone).
  int entered() const { return entered_; }

 private:
  std::atomic<int>* inflight_;
  obs::Gauge* gauge_;
  int entered_ = 0;
};

obs::Gauge* GenerationsLive() {
  static obs::Gauge* gauge =
      obs::MetricsRegistry::Get().gauge("serve.generations_live");
  return gauge;
}

}  // namespace

bool ShouldShedExpensive(const ServiceOptions& options, int inflight,
                         double latency_ema_ms) {
  if (static_cast<double>(inflight) >
      kBrownoutInflightFraction * options.max_inflight) {
    return true;
  }
  return options.brownout_latency_ms > 0 &&
         latency_ema_ms > options.brownout_latency_ms;
}

ServiceSnapshot::ServiceSnapshot() { GenerationsLive()->Add(1.0); }

ServiceSnapshot::~ServiceSnapshot() { GenerationsLive()->Add(-1.0); }

ServiceCore::ServiceCore(const Lexicon* lexicon, ServiceOptions options)
    : lexicon_(lexicon), options_(options) {}

Result<std::shared_ptr<const ServiceSnapshot>> ServiceCore::Install(
    std::shared_ptr<const ServiceSnapshot> next) {
  // Requests render ids through the lexicon, which CHECK-fails outside it.
  CULEVO_RETURN_IF_ERROR(
      CheckIdsInLexicon(next->corpus, *lexicon_, next->source));
  static obs::Gauge* tail_recipes =
      obs::MetricsRegistry::Get().gauge("serve.index.tail_recipes");
  static obs::Gauge* postings_bytes =
      obs::MetricsRegistry::Get().gauge("serve.index.postings_bytes");
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  const_cast<ServiceSnapshot&>(*next).epoch = next_epoch_++;
  tail_recipes->Set(static_cast<double>(next->index.tail_recipes()));
  postings_bytes->Set(static_cast<double>(next->index.postings_bytes()));
  snapshot_.swap(next);
  return next;
}

Status ServiceCore::LoadFromFile(const std::string& path) {
  static obs::Counter* reloads =
      obs::MetricsRegistry::Get().counter("serve.reloads");
  static obs::Counter* reload_failures =
      obs::MetricsRegistry::Get().counter("serve.reload_failures");
  Status status = [&]() -> Status {
    CULEVO_FAILPOINT("serve.reload");
    Result<LoadedCorpusSnapshot> loaded = LoadCorpusSnapshot(path);
    if (!loaded.ok()) return loaded.status();
    auto next = std::make_shared<ServiceSnapshot>();
    next->corpus = std::move(loaded->corpus);
    next->index = QueryIndex::Build(next->corpus);
    next->source = path;
    next->content_fingerprint = loaded->content_fingerprint;
    next->column_hashes = std::move(loaded->column_hashes);
    return Install(std::move(next)).status();
  }();
  if (status.ok()) {
    reloads->Increment();
  } else {
    reload_failures->Increment();
  }
  return status;
}

Status ServiceCore::ReloadDelta(const std::string& path) {
  static obs::Counter* reloads =
      obs::MetricsRegistry::Get().counter("serve.reloads");
  static obs::Counter* delta_reloads =
      obs::MetricsRegistry::Get().counter("serve.delta_reloads");
  static obs::Counter* reload_failures =
      obs::MetricsRegistry::Get().counter("serve.reload_failures");
  // Stage timers, recorded together once the swap has succeeded, so a
  // refused delta leaves no sample.
  enum Stage {
    kLoad,
    kApply,
    kIndex,
    kFingerprint,
    kInstall,
    kRelease,
    kStages
  };
  static obs::Histogram* const stage_ms[kStages] = {
      obs::MetricsRegistry::Get().histogram("serve.reload.load_ms"),
      obs::MetricsRegistry::Get().histogram("serve.reload.apply_ms"),
      obs::MetricsRegistry::Get().histogram("serve.reload.index_ms"),
      obs::MetricsRegistry::Get().histogram("serve.reload.fingerprint_ms"),
      obs::MetricsRegistry::Get().histogram("serve.reload.install_ms"),
      obs::MetricsRegistry::Get().histogram("serve.reload.release_ms")};
  double elapsed_ms[kStages] = {};
  Stopwatch stage;
  const auto lap = [&](Stage done) {
    elapsed_ms[done] = stage.ElapsedMillis();
    stage.Restart();
  };
  // Every stage of the swap is failpoint-armable and every failure path
  // returns before Install, so the old generation keeps serving no matter
  // where the swap dies.
  Status status = [&]() -> Status {
    CULEVO_FAILPOINT("serve.reload");
    std::shared_ptr<const ServiceSnapshot> current = Acquire();
    if (current == nullptr) {
      return Status::FailedPrecondition(
          "no generation installed to apply a delta to");
    }
    CULEVO_FAILPOINT("serve.reload.delta.read");
    stage.Restart();
    Result<CorpusDelta> delta = LoadCorpusDelta(path);
    if (!delta.ok()) return delta.status();
    lap(kLoad);
    if (delta->base_recipes != current->corpus.num_recipes() ||
        delta->base_fingerprint != current->content_fingerprint) {
      return Status::FailedPrecondition(StrFormat(
          "delta base mismatch: %s extends %llu recipes / fingerprint "
          "%016llx, serving generation has %zu / %016llx",
          path.c_str(),
          static_cast<unsigned long long>(delta->base_recipes),
          static_cast<unsigned long long>(delta->base_fingerprint),
          current->corpus.num_recipes(),
          static_cast<unsigned long long>(current->content_fingerprint)));
    }
    CULEVO_FAILPOINT("serve.reload.delta.apply");
    auto next = std::make_shared<ServiceSnapshot>();
    {
      // The next corpus shares the serving one's base and owns a tail over
      // every recipe since it, seeded with room for the delta so Add never
      // reallocates it, then moved into `next`.
      size_t delta_mentions = 0;
      for (const CorpusDeltaRecord& record : delta->records) {
        delta_mentions += record.ingredients.size();
      }
      IncrementalCorpus incremental = IncrementalCorpus::FromCorpus(
          current->corpus, {}, delta->records.size(), delta_mentions);
      for (const CorpusDeltaRecord& record : delta->records) {
        CULEVO_RETURN_IF_ERROR(
            incremental.Add(record.cuisine, record.ingredients));
      }
      Result<RecipeCorpus> corpus = std::move(incremental).Materialize();
      if (!corpus.ok()) return corpus.status();
      next->corpus = std::move(*corpus);
    }
    lap(kApply);
    CULEVO_FAILPOINT("serve.reload.index");
    // The next index shares the serving one's posting base and places only
    // the recipes past it, on this thread: the other workers keep their
    // CPUs for the reads they serve meanwhile.
    next->index = QueryIndex::Extend(current->index, next->corpus);
    lap(kIndex);
    next->source = current->source + "+" + path;
    // The serving generation's columns begin the next one's, so their
    // full blocks are the next one's too: only the last block of each
    // column and the delta's bytes are hashed.
    next->column_hashes =
        HashCorpusColumns(next->corpus, &current->column_hashes);
    next->content_fingerprint = CorpusContentFingerprint(next->column_hashes);
    lap(kFingerprint);
    CULEVO_FAILPOINT("serve.reload.install");
    Result<std::shared_ptr<const ServiceSnapshot>> previous =
        Install(std::move(next));
    if (!previous.ok()) return previous.status();
    lap(kInstall);
    // Both handles point at the replaced generation; it is torn down here
    // unless a reader still holds it.
    previous->reset();
    current.reset();
    lap(kRelease);
    return Status::Ok();
  }();
  if (status.ok()) {
    for (int i = 0; i < kStages; ++i) stage_ms[i]->Record(elapsed_ms[i]);
    reloads->Increment();
    delta_reloads->Increment();
  } else {
    reload_failures->Increment();
  }
  return status;
}

Status ServiceCore::InstallCorpus(RecipeCorpus corpus, std::string source) {
  auto next = std::make_shared<ServiceSnapshot>();
  next->index = QueryIndex::Build(corpus);
  next->column_hashes = HashCorpusColumns(corpus);
  next->content_fingerprint = CorpusContentFingerprint(next->column_hashes);
  next->corpus = std::move(corpus);
  next->source = std::move(source);
  return Install(std::move(next)).status();
}

std::shared_ptr<const ServiceSnapshot> ServiceCore::Acquire() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

void ServiceCore::RecordLatency(double elapsed_ms) {
  static obs::Histogram* latency =
      obs::MetricsRegistry::Get().histogram("serve.latency_ms");
  static obs::Gauge* ema_gauge =
      obs::MetricsRegistry::Get().gauge("serve.latency_ema_ms");
  latency->Record(elapsed_ms);
  double prev = latency_ema_ms_.load(std::memory_order_relaxed);
  double next;
  do {
    // The first sample seeds the EMA directly so the detector does not
    // have to climb from zero through a cold-start window.
    next = prev <= 0 ? elapsed_ms
                     : kLatencyEmaAlpha * elapsed_ms +
                           (1 - kLatencyEmaAlpha) * prev;
  } while (!latency_ema_ms_.compare_exchange_weak(
      prev, next, std::memory_order_relaxed));
  ema_gauge->Set(next);
}

std::string ServiceCore::Handle(std::string_view request) {
  static obs::Counter* requests =
      obs::MetricsRegistry::Get().counter("serve.requests");
  static obs::Counter* rejects =
      obs::MetricsRegistry::Get().counter("serve.rejects");
  static obs::Counter* errors =
      obs::MetricsRegistry::Get().counter("serve.errors");
  static obs::Counter* deadline_drops =
      obs::MetricsRegistry::Get().counter("serve.deadline_drops");
  static obs::Counter* brownout_sheds =
      obs::MetricsRegistry::Get().counter("serve.brownout.sheds");
  static obs::Gauge* brownout_active =
      obs::MetricsRegistry::Get().gauge("serve.brownout.active");
  static obs::Gauge* inflight_gauge =
      obs::MetricsRegistry::Get().gauge("serve.inflight");

  requests->Increment();
  const InflightGuard guard(&inflight_, inflight_gauge);
  if (guard.entered() > options_.max_inflight) {
    rejects->Increment();
    return RenderError(Status::Unavailable(
        StrFormat("over capacity: %d requests in flight (max %d)",
                  guard.entered(), options_.max_inflight)));
  }
  const Stopwatch timer;

  Result<ParsedRequest> parsed = ParseRequest(request);
  if (!parsed.ok()) {
    errors->Increment();
    return RenderError(parsed.status());
  }

  // Admin requests: exempt from brownout (an overloaded server must stay
  // introspectable and reloadable); `metrics` needs no snapshot at all.
  if (parsed->command == "metrics") {
    return RenderOk(HandleMetrics());
  }
  if (parsed->command == "reload-delta") {
    if (parsed->positional.empty()) {
      errors->Increment();
      return RenderError(Status::InvalidArgument("missing delta path"));
    }
    if (Status s = ReloadDelta(parsed->positional[0]); !s.ok()) {
      errors->Increment();
      return RenderError(s);
    }
    const std::shared_ptr<const ServiceSnapshot> swapped = Acquire();
    RecordLatency(timer.ElapsedMillis());
    return RenderOk(
        {StrFormat("epoch\t%llu",
                   static_cast<unsigned long long>(swapped->epoch)),
         StrFormat("recipes\t%zu", swapped->corpus.num_recipes())});
  }

  // Per-request deadline: the service default, tightened (never widened)
  // by a deadline_ms option.
  CancelToken cancel;
  {
    Result<long long> requested =
        IntOption(*parsed, "deadline_ms", options_.default_deadline_ms);
    if (!requested.ok()) {
      errors->Increment();
      return RenderError(requested.status());
    }
    int64_t effective_ms = options_.default_deadline_ms;
    if (*requested > 0 &&
        (effective_ms <= 0 || *requested < effective_ms)) {
      effective_ms = *requested;
    } else if (*requested <= 0 &&
               parsed->options.count("deadline_ms") > 0) {
      effective_ms = 0;  // explicit non-positive deadline: already expired
      cancel.Cancel();
    }
    if (effective_ms > 0) {
      cancel.set_deadline(Deadline::AfterMillis(effective_ms));
    }
  }
  if (cancel.ShouldStop()) {
    // Admission-time deadline rejection: do not start work that cannot
    // finish in time.
    rejects->Increment();
    deadline_drops->Increment();
    return RenderError(Status::DeadlineExceeded(
        "deadline expired before the request was admitted"));
  }

  // Brownout: shed the expensive classes before touching the snapshot or
  // doing any work, leaving the headroom to cheap point lookups.
  if (IsExpensiveCommand(parsed->command)) {
    if (ShouldShedExpensive(options_, guard.entered(), latency_ema_ms())) {
      brownout_active->Set(1.0);
      brownout_sheds->Increment();
      rejects->Increment();
      return RenderErrorWithRetry(
          Status::Unavailable(StrFormat(
              "shedding expensive '%s' under overload (%d in flight, "
              "latency EMA %.3f ms)",
              parsed->command.c_str(), guard.entered(), latency_ema_ms())),
          kBrownoutRetryAfterMs);
    }
    brownout_active->Set(0.0);
  }

  const std::shared_ptr<const ServiceSnapshot> snapshot = Acquire();
  if (snapshot == nullptr) {
    errors->Increment();
    return RenderError(
        Status::FailedPrecondition("no corpus snapshot installed"));
  }

  Result<std::vector<std::string>> rows =
      Dispatch(*lexicon_, *parsed, *snapshot, cancel);
  RecordLatency(timer.ElapsedMillis());
  if (!rows.ok()) {
    errors->Increment();
    return RenderError(rows.status());
  }
  return RenderOk(*rows);
}

}  // namespace culevo
