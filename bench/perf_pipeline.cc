// Engineering benchmark: end-to-end experiment-pipeline throughput —
// context extraction, empirical mining, one full model evaluation — plus
// the multi-process fabric row: the same evaluation sharded across N
// supervised worker processes (exec/fabric.h), merged, and timed against
// the single-process run rep by rep.
//
// The fabric row self-execs this binary as its workers: the coordinator
// writes the corpus to a CULEVO-CORPUS snapshot once and every worker
// mmap-loads it (--load-snapshot), so no worker pays world synthesis.
//
// Flags beyond bench_common's: --workers <n> fabric width (default 4);
// --reps <n> paired single/fabric repetitions (default 3);
// --assert-fabric-speedup exits nonzero unless (a) the merged fabric
// result is bit-identical to the single-process one in every rep and
// (b) the fabric beats the single-process wall clock within tolerance in
// at least one rep — on a 1-core host, where (b) is vacuous, a
// coordination-overhead bound replaces it. Hidden: --worker-shard marks
// a spawned worker.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/copy_mutate.h"
#include "core/evaluator.h"
#include "corpus/corpus_snapshot.h"
#include "exec/fabric.h"
#include "util/stopwatch.h"

namespace {

using namespace culevo;

/// The benchmarked pipeline: one full CM-M evaluation of ITA (context
/// extraction + empirical mining + replicas + aggregation + MAE).
Result<CuisineEvaluation> EvaluatePipeline(const RecipeCorpus& corpus,
                                           const Lexicon& lexicon,
                                           const SimulationConfig& config) {
  const auto cm_m = MakeCmM(&lexicon);
  return EvaluateCuisine(corpus, CuisineFromCode("ITA").value(), lexicon,
                         {cm_m.get()}, config);
}

/// Worker mode: mmap the coordinator's snapshot, run the owned replica
/// shard into the shard journal, exit 0. Results flow through the
/// journals only.
int RunWorker(const bench::BenchOptions& options) {
  // Any int; RunSimulation refuses one outside [0, --workers).
  const int shard = options.flags.GetIntIn("worker-shard", 0,
                                           std::numeric_limits<int>::min());
  const int workers = options.flags.GetIntIn("workers", 1, 1);
  const Lexicon& lexicon = WorldLexicon();
  Result<LoadedCorpusSnapshot> loaded =
      LoadCorpusSnapshot(options.flags.GetString("load-snapshot", ""));
  if (!loaded.ok()) {
    std::cerr << loaded.status() << "\n";
    return 1;
  }
  SimulationConfig config;
  config.replicas = options.replicas;
  config.seed = options.seed;
  config.checkpoint.directory = options.flags.GetString("checkpoint", "");
  config.checkpoint.resume = true;
  // fsync off, like every bench (EXPERIMENTS.md): the single-process row
  // journals nothing, so charging the fabric row per-append fsyncs would
  // measure durability, not execution.
  config.checkpoint.sync = false;
  config.shard.index = shard;
  config.shard.count = workers;
  Result<CuisineEvaluation> evaluation =
      EvaluatePipeline(loaded->corpus, lexicon, config);
  if (!evaluation.ok()) {
    std::cerr << evaluation.status() << "\n";
    return 1;
  }
  return 0;
}

int Run(int argc, char** argv) {
  bench::BenchOptions options = bench::ParseOptions(
      argc, argv,
      {"load-snapshot", "checkpoint", "worker-shard", "workers", "reps",
       "assert-fabric-speedup"});
  if (options.flags.Has("worker-shard")) return RunWorker(options);
  const int workers = options.flags.GetIntIn("workers", 4, 1);
  const int reps = options.flags.GetIntIn("reps", 3, 1);
  const bool assert_speedup =
      options.flags.GetBool("assert-fabric-speedup", false);

  bench::BenchReporter reporter("perf_pipeline", options);
  const Lexicon& lexicon = WorldLexicon();
  reporter.BeginPhase("world_synthesis");
  const RecipeCorpus corpus = bench::MakeWorld(options, &reporter);
  const CuisineId ita = CuisineFromCode("ITA").value();

  reporter.BeginPhase("context_extraction");
  Stopwatch watch;
  constexpr int kContextReps = 20;
  for (int i = 0; i < kContextReps; ++i) {
    Result<CuisineContext> context = ContextFromCorpus(corpus, ita);
    if (!context.ok()) return reporter.Fail(context.status());
  }
  const double context_ms = watch.ElapsedSeconds() * 1000.0 / kContextReps;

  reporter.BeginPhase("empirical_curve");
  watch.Restart();
  constexpr int kCurveReps = 5;
  size_t curve_len = 0;
  for (int i = 0; i < kCurveReps; ++i) {
    curve_len = IngredientCombinationCurve(corpus, ita).size();
  }
  const double curve_ms = watch.ElapsedSeconds() * 1000.0 / kCurveReps;
  std::printf(
      "context extraction %.3f ms; empirical curve %.2f ms (%zu ranks)\n",
      context_ms, curve_ms, curve_len);
  reporter.AddResult("context_extraction_ms", context_ms);
  reporter.AddResult("empirical_curve_ms", curve_ms);

  // Scratch tree: one snapshot shared by all reps, one checkpoint
  // directory per rep (each rep runs a different seed, and the manifest
  // refusal matrix would — correctly — reject reuse across seeds).
  const char* tmpdir = std::getenv("TMPDIR");
  const std::string base_dir =
      StrFormat("%s/culevo_perf_pipeline_%d",
                tmpdir != nullptr ? tmpdir : "/tmp",
                static_cast<int>(::getpid()));
  std::filesystem::create_directories(base_dir);
  const std::string snapshot_path = base_dir + "/corpus.snap";
  if (Status s = WriteCorpusSnapshot(snapshot_path, corpus); !s.ok()) {
    return reporter.Fail(s);
  }

  reporter.BeginPhase("pipeline");
  std::printf(
      "\n== pipeline: single process vs %d-worker fabric (replicas=%d) "
      "==\n",
      workers, options.replicas);
  std::vector<double> single_s;
  std::vector<double> fabric_s;
  bool identical = true;
  for (int rep = 0; rep < reps; ++rep) {
    SimulationConfig config;
    config.replicas = options.replicas;
    config.seed = options.seed + static_cast<uint64_t>(rep);

    watch.Restart();
    Result<CuisineEvaluation> single =
        EvaluatePipeline(corpus, lexicon, config);
    if (!single.ok()) return reporter.Fail(single.status());
    single_s.push_back(watch.ElapsedSeconds());

    const std::string dir = StrFormat("%s/rep%d", base_dir.c_str(), rep);
    watch.Restart();
    FabricOptions fabric;
    fabric.workers = workers;
    fabric.checkpoint_dir = dir;
    const std::vector<std::string> worker_argv = {
        argv[0],
        "--workers", std::to_string(workers),
        "--checkpoint", dir,
        "--load-snapshot", snapshot_path,
        "--replicas", std::to_string(options.replicas),
        "--seed", std::to_string(config.seed),
    };
    Result<FabricReport> dispatched = RunWorkerFabric(worker_argv, fabric);
    if (!dispatched.ok()) return reporter.Fail(dispatched.status());
    const double dispatch_s = watch.ElapsedSeconds();
    SimulationConfig merged_config = config;
    merged_config.checkpoint.directory = dir;
    merged_config.checkpoint.resume = true;
    merged_config.checkpoint.sync = false;
    merged_config.checkpoint.merge_shards = workers;
    Result<CuisineEvaluation> merged =
        EvaluatePipeline(corpus, lexicon, merged_config);
    if (!merged.ok()) return reporter.Fail(merged.status());
    fabric_s.push_back(watch.ElapsedSeconds());

    // Bit-identity: the merged fabric run must reproduce the
    // single-process curves exactly, not approximately.
    const ModelScore& a = single->scores[0];
    const ModelScore& b = merged->scores[0];
    const bool same =
        a.mae_ingredient == b.mae_ingredient &&
        a.mae_category == b.mae_category &&
        a.ingredient_curve.values() == b.ingredient_curve.values();
    identical = identical && same;
    std::printf(
        "rep %d: single %.2fs, fabric %.2fs (dispatch %.2fs + merge %.2fs) "
        "(x%.2f)%s\n",
        rep, single_s.back(), fabric_s.back(), dispatch_s,
        fabric_s.back() - dispatch_s,
        single_s.back() / std::max(1e-9, fabric_s.back()),
        same ? "" : "  RESULT MISMATCH");
  }

  const double single_min =
      *std::min_element(single_s.begin(), single_s.end());
  const double fabric_min =
      *std::min_element(fabric_s.begin(), fabric_s.end());
  std::printf("best: single %.2fs, fabric %.2fs (x%.2f), bit-identical: %s\n",
              single_min, fabric_min,
              single_min / std::max(1e-9, fabric_min),
              identical ? "yes" : "NO");
  // Tolerance mirrors the other perf gates: the gate fails only when the
  // fabric loses every rep by more than scheduling noise (5% + 100 ms).
  bool lost_every_rep = true;
  for (size_t i = 0; i < fabric_s.size(); ++i) {
    if (fabric_s[i] <= single_s[i] * 1.05 + 0.1) lost_every_rep = false;
  }
  reporter.AddSeries("pipeline_single_s", std::move(single_s));
  reporter.AddSeries("pipeline_fabric_s", std::move(fabric_s));
  reporter.AddResult("pipeline_single_s_min", single_min);
  reporter.AddResult("pipeline_fabric_s_min", fabric_min);
  reporter.AddResult("fabric_speedup",
                     single_min / std::max(1e-9, fabric_min));
  reporter.AddResult("fabric_bit_identical", identical ? 1.0 : 0.0);

  std::error_code ec;
  std::filesystem::remove_all(base_dir, ec);  // best-effort scratch cleanup

  if (assert_speedup) {
    if (!identical) {
      return reporter.Fail(Status::Internal(
          "fabric gate: merged fabric result diverged from the "
          "single-process run"));
    }
    const unsigned cores = std::thread::hardware_concurrency();
    if (cores < 2) {
      // One core: N processes cannot beat one by construction, so the
      // speedup leg is vacuous. The gate still binds — bit-identity above,
      // and a coordination-overhead bound here that catches pathological
      // regressions (an accidental stall wait or backoff sleep dwarfs it).
      if (fabric_min > single_min * 1.05 + 0.75) {
        return reporter.Fail(Status::Internal(StrFormat(
            "fabric gate: coordination overhead out of bounds on a 1-core "
            "host (fabric %.2fs vs single %.2fs + 0.75s budget)",
            fabric_min, single_min)));
      }
      std::printf(
          "fabric gate: ok (1-core host — checked bit-identity and "
          "overhead bound; speedup not applicable)\n");
    } else if (lost_every_rep) {
      return reporter.Fail(Status::Internal(StrFormat(
          "fabric gate: %d-worker fabric slower than single process in "
          "every rep (best %.2fs vs %.2fs)",
          workers, fabric_min, single_min)));
    } else {
      std::printf("fabric gate: ok (multi-process >= single-process)\n");
    }
  }
  return reporter.Finish();
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
