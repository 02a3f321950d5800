// evolve_grid and evolve_fabric: the paper's Fig. 4 experiment (every
// cuisine x {CM-R, CM-C, CM-M, NM}) from the mmap-loaded world snapshot.
//
// The measured program runs in a child process (this binary re-executed
// with --role), so its peak RSS excludes the input generator:
//   evolve-setup   load the snapshot and derive all 25 cuisine contexts;
//   grid           EvaluateCuisine per cuisine on one ThreadPool;
//   fabric         per cuisine, RunWorkerFabric over 4 worker processes
//                  and then the in-process merge pass, exactly the path of
//                  `culevo_cli evaluate --workers 4`;
//   fabric-worker  one shard of one cuisine (spawned by the fabric).
// The grid and fabric roles run one untimed warm-up pass over all
// cuisines at --warmup-replicas (allocator arenas, page tables and the
// page cache settle in it), then timed passes at --replicas for as long
// as another pass still fits in --seconds (at least one), and write their
// observations to --out.

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <fstream>
#include <memory>

#include "analysis/distance.h"
#include "core/copy_mutate.h"
#include "core/evaluator.h"
#include "core/null_model.h"
#include "core/simulation.h"
#include "corpus/corpus_snapshot.h"
#include "exec/fabric.h"
#include "lexicon/world_lexicon.h"
#include "obs/metrics.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace culevo::cbench {
namespace {

constexpr int kFabricWorkers = 4;
constexpr int kSetupSpawns = 9;
constexpr uint64_t kDigestSeed = 0x6375C0DE5EED0F4Aull;

struct Models {
  explicit Models(const Lexicon* lexicon)
      : cm_r(MakeCmR(lexicon)), cm_c(MakeCmC(lexicon)), cm_m(MakeCmM(lexicon)) {
    all = {cm_r.get(), cm_c.get(), cm_m.get(), &nm};
  }
  std::unique_ptr<CopyMutateModel> cm_r;
  std::unique_ptr<CopyMutateModel> cm_c;
  std::unique_ptr<CopyMutateModel> cm_m;
  NullModel nm;
  std::vector<const EvolutionModel*> all;
};

uint64_t FoldCurve(uint64_t digest, const RankFrequency& curve) {
  digest = HashCombine(digest, curve.size());
  for (double v : curve.values()) {
    digest = HashCombine(digest, std::bit_cast<uint64_t>(v));
  }
  return digest;
}

/// Order-sensitive 64-bit digest over every ModelScore: the MAE bit
/// patterns and both aggregated curves.
uint64_t FoldDigest(uint64_t digest, const CuisineEvaluation& evaluation) {
  for (const ModelScore& score : evaluation.scores) {
    digest = HashCombine(digest, std::bit_cast<uint64_t>(score.mae_ingredient));
    digest = HashCombine(digest, std::bit_cast<uint64_t>(score.mae_category));
    digest =
        HashCombine(digest, std::bit_cast<uint64_t>(score.paper_eq2_ingredient));
    digest = FoldCurve(digest, score.ingredient_curve);
    digest = FoldCurve(digest, score.category_curve);
  }
  return digest;
}

std::string Hex(uint64_t v) {
  return StrFormat("%016llx", static_cast<unsigned long long>(v));
}

/// Accumulates `key value...` lines for a role's --out file.
class ResultFile {
 public:
  template <typename T>
  void Add(const std::string& key, const std::vector<T>& values) {
    text_ += key;
    for (const T& v : values) {
      text_ += ' ';
      text_ += Format(v);
    }
    text_ += "\n";
  }
  template <typename T>
  void Add(const std::string& key, const T& value) {
    Add(key, std::vector<T>{value});
  }
  Status Write(const std::string& path) const {
    std::ofstream out(path);
    out << text_;
    return out ? Status::Ok() : Status::IOError("cannot write " + path);
  }

 private:
  static std::string Format(double v) { return StrFormat("%.17g", v); }
  static std::string Format(int64_t v) { return std::to_string(v); }
  static std::string Format(const std::string& v) { return v; }
  std::string text_;
};

struct GridPass {
  std::vector<double> pass_s;
  std::vector<double> cuisine_ms;
  std::vector<std::string> digests;
  int64_t nm_wins = 0;
  int64_t replicas_failed = 0;
};

void Score(const CuisineEvaluation& evaluation, uint64_t* digest,
           GridPass* out) {
  *digest = FoldDigest(*digest, evaluation);
  if (evaluation.scores[evaluation.BestByIngredientMae()].model == "NM") {
    ++out->nm_wins;
  }
  for (const ModelScore& score : evaluation.scores) {
    out->replicas_failed += score.report.replicas_failed;
  }
}

/// One in-process pass over every cuisine; the reference digest.
Result<uint64_t> GridDigest(const RecipeCorpus& corpus,
                            const SimulationConfig& config, ThreadPool* pool) {
  const Models models(&WorldLexicon());
  uint64_t digest = kDigestSeed;
  for (int c = 0; c < kNumCuisines; ++c) {
    Result<CuisineEvaluation> evaluation =
        EvaluateCuisine(corpus, static_cast<CuisineId>(c), WorldLexicon(),
                        models.all, config, pool);
    if (!evaluation.ok()) return evaluation.status();
    digest = FoldDigest(digest, *evaluation);
  }
  return digest;
}

SimulationConfig GridConfig(const FlagParser& flags) {
  SimulationConfig config;
  config.replicas = static_cast<int>(flags.GetInt("replicas", 100));
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  return config;
}

/// Whether another timed pass fits: `passes` passes took `elapsed_ns`,
/// and one more of their mean length must end within `seconds`.
bool AnotherPassFits(int64_t elapsed_ns, int passes, double seconds) {
  return static_cast<double>(elapsed_ns) * (passes + 1) / passes <= seconds * 1e9;
}

/// This process's peak resident set in MiB: VmHWM, which belongs to the
/// address space and so starts afresh at exec. (ru_maxrss does not: a
/// forked child inherits its parent's high-water mark across exec, which
/// would count the input generator.)
double SelfPeakRssMb() { return VmHwmMb(::getpid()); }

int Fail(const Status& status) {
  std::fprintf(stderr, "culevo_bench child: %s\n", status.ToString().c_str());
  return 1;
}

/// One untimed pass over every cuisine at --warmup-replicas.
Status WarmUp(const RecipeCorpus& corpus, const Models& models,
              const FlagParser& flags, ThreadPool* pool) {
  SimulationConfig config = GridConfig(flags);
  config.replicas = static_cast<int>(flags.GetInt("warmup-replicas", 1));
  for (int c = 0; c < kNumCuisines; ++c) {
    Result<CuisineEvaluation> evaluation = EvaluateCuisine(
        corpus, static_cast<CuisineId>(c), WorldLexicon(), models.all, config, pool);
    if (!evaluation.ok()) return evaluation.status();
  }
  return Status::Ok();
}

int RoleSetup(const FlagParser& flags) {
  Result<LoadedCorpusSnapshot> loaded =
      LoadCorpusSnapshot(flags.GetString("snapshot", ""));
  if (!loaded.ok()) return Fail(loaded.status());
  for (int c = 0; c < kNumCuisines; ++c) {
    Result<CuisineContext> context =
        ContextFromCorpus(loaded->corpus, static_cast<CuisineId>(c));
    if (!context.ok()) return Fail(context.status());
  }
  return 0;
}

int RoleGrid(const FlagParser& flags) {
  Result<LoadedCorpusSnapshot> loaded =
      LoadCorpusSnapshot(flags.GetString("snapshot", ""));
  if (!loaded.ok()) return Fail(loaded.status());
  const double seconds = flags.GetDouble("seconds", 10);
  const SimulationConfig config = GridConfig(flags);
  const Models models(&WorldLexicon());
  const size_t threads = static_cast<size_t>(flags.GetInt("threads", 4));
  ThreadPool pool(threads);
  if (Status s = WarmUp(loaded->corpus, models, flags, &pool); !s.ok()) {
    return Fail(s);
  }

  obs::MetricsRegistry::Get().Reset();
  GridPass pass;
  const int64_t t0 = NowNs();
  for (int p = 1;; ++p) {
    const int64_t p0 = NowNs();
    uint64_t digest = kDigestSeed;
    for (int c = 0; c < kNumCuisines; ++c) {
      const int64_t c0 = NowNs();
      Result<CuisineEvaluation> evaluation =
          EvaluateCuisine(loaded->corpus, static_cast<CuisineId>(c),
                          WorldLexicon(), models.all, config, &pool);
      if (!evaluation.ok()) return Fail(evaluation.status());
      pass.cuisine_ms.push_back(static_cast<double>(NowNs() - c0) / 1e6);
      Score(*evaluation, &digest, &pass);
    }
    pass.pass_s.push_back(static_cast<double>(NowNs() - p0) / 1e9);
    pass.digests.push_back(Hex(digest));
    if (!AnotherPassFits(NowNs() - t0, p, seconds)) break;
  }
  const double wall_ms = static_cast<double>(NowNs() - t0) / 1e6;

  const obs::MetricsSnapshot metrics = obs::MetricsRegistry::Get().Snapshot();
  const auto hist = [&metrics](const std::string& name) {
    const auto it = metrics.histograms.find(name);
    return it == metrics.histograms.end() ? obs::HistogramStats{} : it->second;
  };
  ResultFile out;
  out.Add("pass_s", pass.pass_s);
  out.Add("cuisine_ms", pass.cuisine_ms);
  out.Add("digest", pass.digests);
  out.Add("nm_wins", pass.nm_wins);
  out.Add("replicas_failed", pass.replicas_failed);
  out.Add("wall_ms", wall_ms);
  out.Add("threads", static_cast<int64_t>(threads));
  out.Add("pool_idle_ms", hist("threadpool.worker_idle_ms").sum);
  out.Add("pool_task_p99_ms", hist("threadpool.task_ms").Quantile(0.99));
  out.Add("pool_tasks", static_cast<int64_t>(hist("threadpool.task_ms").count));
  out.Add("rss_mb", SelfPeakRssMb());
  const Status written = out.Write(flags.GetString("out", ""));
  return written.ok() ? 0 : Fail(written);
}

/// What a fabric worker writes beside its shard journal: its span
/// (`enter ready end pid` on CLOCK_MONOTONIC) and its peak RSS.
std::string WorkerFile(const std::string& dir, int shard) {
  return StrFormat("%s/worker%d.out", dir.c_str(), shard);
}

int RoleFabricWorker(const FlagParser& flags) {
  const int64_t enter = NowNs();
  Result<LoadedCorpusSnapshot> loaded =
      LoadCorpusSnapshot(flags.GetString("snapshot", ""));
  if (!loaded.ok()) return Fail(loaded.status());
  const int64_t ready = NowNs();
  SimulationConfig config = GridConfig(flags);
  config.checkpoint.directory = flags.GetString("checkpoint", "");
  config.checkpoint.resume = true;
  config.checkpoint.sync = false;
  config.shard.index = static_cast<int>(flags.GetInt("worker-shard", 0));
  config.shard.count = static_cast<int>(flags.GetInt("workers", 1));
  const Models models(&WorldLexicon());
  Result<CuisineEvaluation> evaluation = EvaluateCuisine(
      loaded->corpus, static_cast<CuisineId>(flags.GetInt("cuisine", 0)),
      WorldLexicon(), models.all, config);
  if (!evaluation.ok()) return Fail(evaluation.status());
  ResultFile out;
  out.Add("span", std::vector<int64_t>{enter, ready, NowNs(),
                                       static_cast<int64_t>(::getpid())});
  out.Add("rss_mb", SelfPeakRssMb());
  const Status written =
      out.Write(WorkerFile(config.checkpoint.directory, config.shard.index));
  return written.ok() ? 0 : Fail(written);
}

int RoleFabric(const FlagParser& flags) {
  const std::string snapshot = flags.GetString("snapshot", "");
  Result<LoadedCorpusSnapshot> loaded = LoadCorpusSnapshot(snapshot);
  if (!loaded.ok()) return Fail(loaded.status());
  const double seconds = flags.GetDouble("seconds", 10);
  const std::string scratch = flags.GetString("scratch", "");
  const bool spans = flags.GetBool("spans", false);
  const SimulationConfig config = GridConfig(flags);
  const Models models(&WorldLexicon());

  GridPass pass;
  std::vector<double> dispatch_ms, merge_ms, spawn_ms, compute_ms, imbalance,
      tail_ms, journal_bytes;
  std::vector<int64_t> span_rows;  // kind cuisine start end pid, flattened
  double worker_rss_mb = 0;
  int64_t retries = 0;
  int64_t t0 = 0;
  for (int p = 0;; ++p) {
    const bool timed = p > 0;  // pass 0 is the warm-up
    if (p == 1) {
      obs::MetricsRegistry::Get().Reset();
      t0 = NowNs();
    }
    SimulationConfig pass_config = config;
    if (!timed) {
      pass_config.replicas = static_cast<int>(flags.GetInt("warmup-replicas", 1));
    }
    const int64_t p0 = NowNs();
    uint64_t digest = kDigestSeed;
    for (int c = 0; c < kNumCuisines; ++c) {
      const std::string dir = StrFormat("%s/p%dc%d", scratch.c_str(), p, c);
      std::filesystem::create_directories(dir);
      const std::vector<std::string> argv = {
          flags.GetString("self", ""), "--role",     "fabric-worker",
          "--snapshot",                snapshot,     "--cuisine",
          std::to_string(c),           "--replicas", std::to_string(pass_config.replicas),
          "--seed",                    std::to_string(pass_config.seed),
          "--checkpoint",              dir,          "--workers",
          std::to_string(kFabricWorkers)};
      FabricOptions fabric;
      fabric.workers = kFabricWorkers;
      fabric.checkpoint_dir = dir;
      const int64_t c0 = NowNs();
      Result<FabricReport> dispatched = RunWorkerFabric(argv, fabric);
      if (!dispatched.ok()) return Fail(dispatched.status());
      const int64_t c1 = NowNs();
      SimulationConfig merge = pass_config;
      merge.checkpoint.directory = dir;
      merge.checkpoint.resume = true;
      merge.checkpoint.sync = false;
      merge.checkpoint.merge_shards = kFabricWorkers;
      Result<CuisineEvaluation> evaluation =
          EvaluateCuisine(loaded->corpus, static_cast<CuisineId>(c),
                          WorldLexicon(), models.all, merge);
      if (!evaluation.ok()) return Fail(evaluation.status());
      const int64_t c2 = NowNs();
      if (!timed) {
        std::filesystem::remove_all(dir);
        continue;
      }
      retries += dispatched->total_retries();
      Score(*evaluation, &digest, &pass);
      pass.cuisine_ms.push_back(static_cast<double>(c2 - c0) / 1e6);
      dispatch_ms.push_back(static_cast<double>(c1 - c0) / 1e6);
      merge_ms.push_back(static_cast<double>(c2 - c1) / 1e6);
      if (spans) span_rows.insert(span_rows.end(), {0, c, c0, c1, 0, 1, c, c1, c2, 0});

      double min_compute = 1e300, max_compute = 0;
      int64_t last_end = c0;
      for (int s = 0; s < kFabricWorkers; ++s) {
        Result<KeyValues> kv = ReadKeyValues(WorkerFile(dir, s));
        if (!kv.ok()) return Fail(kv.status());
        worker_rss_mb = std::max(worker_rss_mb, KvNumber(*kv, "rss_mb"));
        const std::vector<int64_t> v = KvInts(*kv, "span");
        if (v.size() != 4) return Fail(Status::DataLoss("bad worker file"));
        const int64_t enter = v[0];
        const int64_t ready = v[1];
        const int64_t end = v[2];
        const int64_t pid = v[3];
        if (spans) {
          span_rows.insert(span_rows.end(),
                           {2, c, enter, ready, pid, 3, c, ready, end, pid});
        }
        spawn_ms.push_back(static_cast<double>(enter - c0) / 1e6);
        const double ms = static_cast<double>(end - ready) / 1e6;
        compute_ms.push_back(ms);
        min_compute = std::min(min_compute, ms);
        max_compute = std::max(max_compute, ms);
        last_end = std::max(last_end, end);
      }
      imbalance.push_back(max_compute / std::max(1e-9, min_compute));
      tail_ms.push_back(static_cast<double>(c1 - last_end) / 1e6);
      int64_t bytes = 0;
      for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() == ".journal") {
          bytes += static_cast<int64_t>(entry.file_size());
        }
      }
      journal_bytes.push_back(static_cast<double>(bytes));
      std::filesystem::remove_all(dir);
    }
    if (!timed) continue;
    pass.digests.push_back(Hex(digest));
    pass.pass_s.push_back(static_cast<double>(NowNs() - p0) / 1e9);
    if (spans) span_rows.insert(span_rows.end(), {4, -1, p0, NowNs(), 0});
    if (!AnotherPassFits(NowNs() - t0, p, seconds)) break;
  }

  const obs::MetricsSnapshot metrics = obs::MetricsRegistry::Get().Snapshot();
  const auto counter = [&metrics](const std::string& name) {
    const auto it = metrics.counters.find(name);
    return it == metrics.counters.end() ? int64_t{0} : it->second;
  };
  ResultFile out;
  out.Add("pass_s", pass.pass_s);
  out.Add("cuisine_ms", pass.cuisine_ms);
  out.Add("digest", pass.digests);
  out.Add("nm_wins", pass.nm_wins);
  out.Add("replicas_failed", pass.replicas_failed);
  out.Add("worker_retries", retries);
  out.Add("workers_spawned", counter("exec.workers_spawned"));
  out.Add("worker_stalls", counter("exec.worker_stalls"));
  // The measured program's largest process: the coordinator or a worker.
  const double coordinator_rss_mb = SelfPeakRssMb();
  out.Add("rss_mb", std::max(coordinator_rss_mb, worker_rss_mb));
  out.Add("coordinator_rss_mb", coordinator_rss_mb);
  out.Add("worker_rss_mb", worker_rss_mb);
  out.Add("dispatch_ms", dispatch_ms);
  out.Add("merge_ms", merge_ms);
  out.Add("spawn_ms", spawn_ms);
  out.Add("compute_ms", compute_ms);
  out.Add("imbalance", imbalance);
  out.Add("tail_ms", tail_ms);
  out.Add("journal_bytes", journal_bytes);
  out.Add("spans", span_rows);
  const Status written = out.Write(flags.GetString("out", ""));
  return written.ok() ? 0 : Fail(written);
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

/// Median of 9 cold starts of the evolve program: spawn, mmap-load the
/// world snapshot, derive every cuisine context, exit.
double SetupSeconds(const RunContext& ctx, const std::string& snapshot,
                    Report* report) {
  std::vector<double> setups;
  for (int i = 0; i < kSetupSpawns; ++i) {
    Subprocess child;
    const int64_t t0 = NowNs();
    const Status started =
        child.Spawn({ctx.self_exe, "--role", "evolve-setup", "--snapshot", snapshot},
                    MeasuredSpawnOptions());
    report->Check(started.ok(), "spawn evolve-setup: " + started.ToString());
    if (!started.ok()) return 0;
    const Status exited = child.Wait().ToStatus("evolve-setup");
    report->Check(exited.ok(), exited.ToString());
    setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  std::printf("# setup_s cold starts:");
  for (double s : setups) std::printf(" %.4f", s);
  std::printf("\n");
  return Median(setups);
}

/// Replays `trace_cuisines` cuisines x 4 models x `trace_replicas`
/// replicas single-threaded through the same public calls RunSimulation
/// makes, with a span around each, and asserts that the decomposed curves
/// are bit-identical to RunSimulation's: the spans time the same work.
void DecomposeReplicas(const RunContext& ctx, const RecipeCorpus& world,
                       Tracer* tracer, Report* report) {
  const Lexicon& lexicon = WorldLexicon();
  const Models models(&lexicon);
  SimulationConfig config;
  config.replicas = ctx.sizes.trace_replicas;
  config.seed = ctx.seed;
  struct Decomposed {
    CuisineId cuisine;
    const EvolutionModel* model;
    std::vector<RankFrequency> ingredient;
    RankFrequency aggregate_ingredient;
    RankFrequency aggregate_category;
    double ms = 0;
  };
  std::vector<Decomposed> runs;
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Get().Snapshot();
  {
    const TraceScope root(tracer, "bench.evolve_trace");
    for (int i = 0; i < ctx.sizes.trace_cuisines; ++i) {
      const auto cuisine =
          static_cast<CuisineId>(i * kNumCuisines / ctx.sizes.trace_cuisines);
      Result<CuisineContext> context = [&] {
        const TraceScope span(tracer, "core.ContextFromCorpus", cuisine);
        return ContextFromCorpus(world, cuisine);
      }();
      if (!context.ok()) return report->Check(false, context.status().ToString());
      RankFrequency empirical_ingredient, empirical_category;
      {
        const TraceScope span(tracer, "analysis.EmpiricalCurves", cuisine);
        empirical_ingredient = IngredientCombinationCurve(world, cuisine, config.mining);
        empirical_category =
            CategoryCombinationCurve(world, cuisine, lexicon, config.mining);
      }
      for (const EvolutionModel* model : models.all) {
        const int64_t m0 = NowNs();
        Decomposed run{cuisine, model, {}, {}, {}, 0};
        std::vector<RankFrequency> category;
        for (int k = 0; k < config.replicas; ++k) {
          // RunSimulation's per-replica body; this span's self time is the
          // release of the replica's store and transaction sets.
          const TraceScope replica(tracer, "core.replica", k);
          RecipeStore store;
          {
            const TraceScope span(tracer, "core.GenerateInto", k);
            const Status generated =
                model->GenerateInto(*context, DeriveSeed(config.seed, k), &store);
            if (!generated.ok()) return report->Check(false, generated.ToString());
          }
          TransactionSet ingredient_tx, category_tx;
          {
            const TraceScope span(tracer, "analysis.StoreTransactions", k);
            ingredient_tx = StoreTransactions(store, context->ingredients);
            category_tx =
                StoreCategoryTransactions(store, context->ingredients, lexicon);
          }
          const TraceScope span(tracer, "analysis.CombinationCurve", k);
          run.ingredient.push_back(CombinationCurve(ingredient_tx, config.mining));
          category.push_back(CombinationCurve(category_tx, config.mining));
        }
        {
          const TraceScope span(tracer, "analysis.Aggregate", cuisine);
          run.aggregate_ingredient = AverageRankFrequencies(run.ingredient);
          run.aggregate_category = AverageRankFrequencies(category);
          MeanAbsoluteError(empirical_ingredient, run.aggregate_ingredient);
          MeanAbsoluteError(empirical_category, run.aggregate_category);
          PaperEq2Distance(empirical_ingredient, run.aggregate_ingredient);
        }
        run.ms = static_cast<double>(NowNs() - m0) / 1e6;
        runs.push_back(std::move(run));
      }
    }
  }
  const obs::MetricsSnapshot after = obs::MetricsRegistry::Get().Snapshot();
  const auto delta = [&](const std::string& name) {
    const auto a = after.counters.find(name);
    const auto b = before.counters.find(name);
    return static_cast<double>(
        (a == after.counters.end() ? 0 : a->second) -
        (b == before.counters.end() ? 0 : b->second));
  };

  // The reference: RunSimulation on the same inputs, untraced.
  double reference_ms = 0;
  double traced_ms = 0;
  bool identical = true;
  const double mine_before =
      after.histograms.count("sim.replica.mine_ms")
          ? after.histograms.at("sim.replica.mine_ms").sum
          : 0.0;
  for (const Decomposed& run : runs) {
    Result<CuisineContext> context = ContextFromCorpus(world, run.cuisine);
    if (!context.ok()) return report->Check(false, context.status().ToString());
    const int64_t r0 = NowNs();
    Result<SimulationResult> sim =
        RunSimulation(*run.model, *context, lexicon, config);
    reference_ms += static_cast<double>(NowNs() - r0) / 1e6;
    traced_ms += run.ms;
    if (!sim.ok()) return report->Check(false, sim.status().ToString());
    for (int k = 0; k < config.replicas; ++k) {
      identical = identical && sim->replica_ingredient_curves[k].values() ==
                                   run.ingredient[k].values();
    }
    identical = identical &&
                sim->ingredient_curve.values() ==
                    run.aggregate_ingredient.values() &&
                sim->category_curve.values() == run.aggregate_category.values();
  }
  report->Check(identical,
                "decomposed replica curves differ from RunSimulation's");
  const obs::MetricsSnapshot final_metrics = obs::MetricsRegistry::Get().Snapshot();
  const double registry_mine_ms =
      final_metrics.histograms.at("sim.replica.mine_ms").sum - mine_before;
  const double replicas = static_cast<double>(runs.size()) * config.replicas;
  const double spans_mine_ms = tracer->TotalMs("analysis.StoreTransactions") +
                               tracer->TotalMs("analysis.CombinationCurve");
  std::printf(
      "# decomposition: %zu runs x %d replicas bit-identical to "
      "RunSimulation: %s; transactions+eclat %.1f ms vs registry "
      "sim.replica.mine_ms %.1f ms\n",
      runs.size(), config.replicas, identical ? "yes" : "NO", spans_mine_ms,
      registry_mine_ms);

  report->Set("core.context_ms", Mean(tracer->Durations("core.ContextFromCorpus")));
  report->Set("core.generate_ms", Mean(tracer->Durations("core.GenerateInto")));
  const double accepted = delta("sim.generate.mutations.accepted");
  const double rejected = delta("sim.generate.mutations.rejected");
  report->Set("core.mutation_accept_ratio",
              accepted + rejected > 0 ? accepted / (accepted + rejected) : 0);
  report->Set("core.items_generated", delta("sim.generate.items"));
  report->Set("analysis.transactions_ms",
              tracer->TotalMs("analysis.StoreTransactions") / replicas);
  report->Set("analysis.eclat_ms",
              tracer->TotalMs("analysis.CombinationCurve") / replicas);
  report->Set("analysis.eclat_itemsets", delta("mine.eclat.itemsets"));
  const double intersections = delta("mine.eclat.dense_intersections") +
                               delta("mine.eclat.sparse_intersections") +
                               delta("mine.eclat.mixed_intersections");
  report->Set("analysis.eclat_intersections", intersections);
  report->Set("analysis.early_abort_ratio",
              intersections > 0 ? delta("mine.eclat.early_aborts") / intersections
                                : 0);
  report->Set("analysis.empirical_ms",
              Mean(tracer->Durations("analysis.EmpiricalCurves")));
  report->Set("analysis.aggregate_ms", Mean(tracer->Durations("analysis.Aggregate")));
  report->Set("trace.overhead_share", traced_ms / reference_ms - 1.0);
}

/// What both evolve workloads share: inputs, setup, the timed child.
struct EvolveRun {
  Result<RecipeCorpus> world = Status::Internal("not generated");
  std::string snapshot;
  KeyValues result;
  bool ok = false;
};

EvolveRun StartEvolve(const RunContext& ctx, const std::string& role,
                      double seconds, const std::vector<std::string>& extra,
                      Tracer* tracer, Report* report) {
  EvolveRun run;
  run.world = MakeWorld(ctx);
  if (!run.world.ok()) {
    report->Check(false, run.world.status().ToString());
    return run;
  }
  run.snapshot = ctx.dir + "/world.snap";
  if (Status s = WriteCorpusSnapshot(run.snapshot, *run.world, {.sync = false});
      !s.ok()) {
    report->Check(false, s.ToString());
    return run;
  }
  std::printf("# world corpus: %zu recipes, snapshot %.1f MiB\n",
              run.world->num_recipes(),
              static_cast<double>(FileBytes(run.snapshot)) / (1 << 20));
  if (!ctx.trace) {
    report->Set("setup_s", SetupSeconds(ctx, run.snapshot, report));
  } else {
    report->Set("corpus.snapshot_mb",
                static_cast<double>(FileBytes(run.snapshot)) / (1 << 20));
    {
      const TraceScope root(tracer, "bench.snapshot_load");
      const TraceScope span(tracer, "corpus.LoadCorpusSnapshot");
      report->Check(LoadCorpusSnapshot(run.snapshot).ok(), "world snapshot load");
    }
    report->Set("corpus.snapshot_load_ms",
                tracer->TotalMs("corpus.LoadCorpusSnapshot"));
  }

  const std::string out = ctx.dir + "/" + role + ".out";
  std::vector<std::string> argv = {
      ctx.self_exe, "--role", role, "--snapshot", run.snapshot,
      "--seconds", StrFormat("%.3f", seconds),
      "--replicas", std::to_string(ctx.sizes.grid_replicas),
      "--warmup-replicas", std::to_string(ctx.sizes.warmup_replicas),
      "--seed", std::to_string(ctx.seed), "--out", out};
  argv.insert(argv.end(), extra.begin(), extra.end());
  Subprocess child;
  if (Status s = child.Spawn(argv, MeasuredSpawnOptions());
      !s.ok()) {
    report->Check(false, s.ToString());
    return run;
  }
  const Status exited = child.Wait().ToStatus(role + " child");
  report->Check(exited.ok(), exited.ToString());
  Result<KeyValues> kv = ReadKeyValues(out);
  if (!exited.ok() || !kv.ok()) {
    report->Check(kv.ok(), kv.status().ToString());
    return run;
  }
  run.result = std::move(*kv);
  run.ok = true;
  return run;
}

/// Checks and end-to-end metrics common to both evolve workloads; returns
/// the digest of the first timed pass.
std::string FinishEvolve(const RunContext& ctx, const EvolveRun& run,
                         Report* report) {
  const std::vector<double> pass_s = KvNumbers(run.result, "pass_s");
  const auto digests = run.result.count("digest")
                           ? run.result.at("digest")
                           : std::vector<std::string>{};
  const double per_pass = static_cast<double>(kNumCuisines) * 4 *
                          static_cast<double>(ctx.sizes.grid_replicas);
  const int64_t passes = static_cast<int64_t>(pass_s.size());
  report->AddAttempted(static_cast<int64_t>(digests.size()) *
                       static_cast<int64_t>(per_pass));
  report->AddFailed(static_cast<int64_t>(KvNumber(run.result, "replicas_failed") +
                                         KvNumber(run.result, "worker_retries")));
  report->Check(passes >= 1 && digests.size() == pass_s.size(),
                "no complete timed grid pass");
  if (digests.empty()) return "";
  for (const std::string& d : digests) {
    report->Check(d == digests[0], "grid digest differs between passes");
  }
  report->Check(KvNumber(run.result, "replicas_failed") == 0, "replicas failed");
  // The paper's claim and the pinned digests hold for the full-size
  // inputs; a smoke corpus (a few dozen recipes per cuisine) is too small
  // for the first and differs from the second.
  if (!ctx.smoke) {
    report->Check(KvNumber(run.result, "nm_wins") == 0,
                  "the null model beat every copy-mutate model on a cuisine");
    const auto pinned = ctx.pinned.grid_digests.find(ctx.seed);
    if (pinned != ctx.pinned.grid_digests.end()) {
      report->Check(digests[0] == pinned->second,
                    StrFormat("grid digest %s != %s pinned for seed %llu",
                              digests[0].c_str(), pinned->second.c_str(),
                              static_cast<unsigned long long>(ctx.seed)));
    }
  }
  if (run.result.count("worker_rss_mb")) {
    std::printf("# fabric peak rss: coordinator %.1f MiB, largest worker %.1f MiB\n",
                KvNumber(run.result, "coordinator_rss_mb"),
                KvNumber(run.result, "worker_rss_mb"));
  }
  std::printf("# grid digest %s over %lld pass(es); pass seconds:",
              digests[0].c_str(), static_cast<long long>(passes));
  for (double s : pass_s) std::printf(" %.3f", s);
  std::printf("\n");
  if (!ctx.trace) {
    std::vector<double> rates;
    for (double s : pass_s) rates.push_back(per_pass / s);
    const LatencySummary lat = Summarize(KvNumbers(run.result, "cuisine_ms"));
    std::printf("# throughput: %.1f replicas/s (median over passes); per-cuisine "
                "evaluation latency: n=%zu p50=%.3f p90=%.3f ms\n",
                Median(rates), lat.count, lat.p50, lat.p90);
  }
  return digests[0];
}

}  // namespace

int RunEvolveRole(const std::string& role, const FlagParser& flags) {
  if (role == "evolve-setup") return RoleSetup(flags);
  if (role == "grid") return RoleGrid(flags);
  if (role == "fabric") return RoleFabric(flags);
  if (role == "fabric-worker") return RoleFabricWorker(flags);
  std::fprintf(stderr, "unknown --role %s\n", role.c_str());
  return 2;
}

void RunEvolveGrid(const RunContext& ctx, Report* report, Tracer* tracer) {
  const unsigned threads = std::min(4u, ctx.cores);
  // Traced: one pass (seconds 0 stops after the first).
  const EvolveRun run =
      StartEvolve(ctx, "grid", ctx.trace ? 0 : ctx.seconds,
                  {"--threads", std::to_string(threads)}, tracer, report);
  if (!run.ok) return;
  FinishEvolve(ctx, run, report);
  if (!ctx.trace) {
    report->Set("peak_rss_mb", KvNumber(run.result, "rss_mb"));
    return;
  }
  const double wall_ms = KvNumber(run.result, "wall_ms");
  report->Set("thread_pool.idle_share",
              KvNumber(run.result, "pool_idle_ms") /
                  (wall_ms * KvNumber(run.result, "threads")));
  report->Set("thread_pool.task_p99_ms", KvNumber(run.result, "pool_task_p99_ms"));
  report->Set("thread_pool.tasks", KvNumber(run.result, "pool_tasks"));
  DecomposeReplicas(ctx, *run.world, tracer, report);
}

void RunEvolveFabric(const RunContext& ctx, Report* report, Tracer* tracer) {
  std::vector<std::string> extra = {"--self", ctx.self_exe, "--scratch",
                                    ctx.dir + "/fabric"};
  if (ctx.trace) extra.push_back("--spans");
  // Traced: one pass (seconds 0 stops after the first).
  const EvolveRun run = StartEvolve(ctx, "fabric", ctx.trace ? 0 : ctx.seconds,
                                    extra, tracer, report);
  if (!run.ok) return;
  const std::string digest = FinishEvolve(ctx, run, report);

  // The merged fabric result must equal the in-process grid's.
  SimulationConfig config;
  config.replicas = ctx.sizes.grid_replicas;
  config.seed = ctx.seed;
  ThreadPool pool(std::min(4u, ctx.cores));
  Result<uint64_t> reference = GridDigest(*run.world, config, &pool);
  report->Check(reference.ok() && Hex(*reference) == digest,
                StrFormat("fabric digest %s != in-process grid digest %s",
                          digest.c_str(),
                          reference.ok() ? Hex(*reference).c_str() : "(failed)"));
  if (!ctx.trace) {
    report->Set("peak_rss_mb", KvNumber(run.result, "rss_mb"));
    return;
  }
  report->Set("exec.dispatch_ms", Mean(KvNumbers(run.result, "dispatch_ms")));
  report->Set("exec.merge_ms", Mean(KvNumbers(run.result, "merge_ms")));
  report->Set("exec.spawn_ms", Mean(KvNumbers(run.result, "spawn_ms")));
  report->Set("exec.worker_compute_ms", Mean(KvNumbers(run.result, "compute_ms")));
  report->Set("exec.shard_imbalance", Mean(KvNumbers(run.result, "imbalance")));
  report->Set("exec.tail_ms", Mean(KvNumbers(run.result, "tail_ms")));
  report->Set("exec.workers_spawned", KvNumber(run.result, "workers_spawned"));
  report->Set("exec.worker_retries", KvNumber(run.result, "worker_retries"));
  report->Set("exec.worker_stalls", KvNumber(run.result, "worker_stalls"));
  double bytes = 0;
  for (double b : KvNumbers(run.result, "journal_bytes")) bytes += b;
  report->Set("checkpoint.bytes", bytes);

  // The child's spans of its single traced pass: pass > dispatch and
  // merge per cuisine > each worker's snapshot load and compute. Rows are
  // `kind cuisine start end pid`; the pass row comes last, so it is added
  // first to parent the rest.
  static constexpr const char* kSpanNames[] = {
      "exec.RunWorkerFabric", "exec.merge", "corpus.worker_load",
      "core.worker_EvaluateCuisine", "bench.fabric_pass"};
  const std::vector<int64_t> rows = KvInts(run.result, "spans");
  uint64_t pass_id = 0;
  uint64_t dispatch_id = 0;
  for (size_t r = 0; r + 5 <= rows.size(); r += 5) {
    if (rows[r] == 4) pass_id = tracer->Add(kSpanNames[4], rows[r + 2], rows[r + 3], 0);
  }
  for (size_t r = 0; r + 5 <= rows.size(); r += 5) {
    const int64_t kind = rows[r];
    if (kind == 4) continue;
    const uint64_t id =
        tracer->Add(kSpanNames[kind], rows[r + 2], rows[r + 3],
                    kind >= 2 ? dispatch_id : pass_id, rows[r + 1], rows[r + 4]);
    if (kind == 0) dispatch_id = id;
  }
  DecomposeReplicas(ctx, *run.world, tracer, report);
}

}  // namespace culevo::cbench
