// Reproduces Fig. 4 and the Section-VI model comparison: for each of the
// 25 cuisines, the rank-frequency distribution of frequent ingredient
// combinations under the empirical corpus and under CM-R / CM-C / CM-M /
// NM (aggregated over replicas), with the MAE of each model against the
// empirical distribution, plus the Section-VI per-cuisine winner and the
// category-combination check.
//
// Paper-shape expectations: every copy-mutate model has far lower MAE than
// the null model in every cuisine; copy-mutate curves decline gradually
// while the null model's declines abruptly; the winning copy-mutate model
// varies across cuisines; category-combination distributions are much less
// discriminative than ingredient-combination ones.

// Pass --details-json <path> to also write the full per-cuisine,
// per-model results (MAE values and aggregated curves) as machine-readable
// JSON. (--json emits the standard BENCH telemetry document shared by all
// bench binaries; see bench_common.h.)

#include <cstdio>
#include <iostream>
#include <limits>
#include <map>

#include "bench/bench_common.h"
#include "core/copy_mutate.h"
#include "core/evaluator.h"
#include "core/null_model.h"
#include "exec/fabric.h"
#include "util/csv.h"
#include "util/json.h"
#include "util/table_printer.h"

namespace {

using namespace culevo;

int Run(int argc, char** argv) {
  bench::BenchOptions options = bench::ParseOptions(
      argc, argv,
      {"checkpoint", "resume", "workers", "worker-shard", "worker-stall-ms",
       "worker-retries", "details-json"});
  const int workers = options.flags.GetIntIn("workers", 1, 1);
  const int worker_retries = options.flags.GetIntIn("worker-retries", 2, 0);
  // Any int: RunSimulation refuses a shard outside [0, --workers), and a
  // stall bound of 0 or below turns stall detection off.
  const int worker_shard = options.flags.GetIntIn(
      "worker-shard", 0, std::numeric_limits<int>::min());
  const int worker_stall_ms = options.flags.GetIntIn(
      "worker-stall-ms", 30000, std::numeric_limits<int>::min());
  bench::BenchReporter reporter("fig4_models", options);
  const Lexicon& lexicon = WorldLexicon();
  reporter.BeginPhase("world_synthesis");
  const RecipeCorpus corpus = bench::MakeWorld(options, &reporter);
  reporter.BeginPhase("simulation");

  const auto cm_r = MakeCmR(&lexicon);
  const auto cm_c = MakeCmC(&lexicon);
  const auto cm_m = MakeCmM(&lexicon);
  const NullModel nm;
  const std::vector<const EvolutionModel*> models = {cm_r.get(), cm_c.get(),
                                                     cm_m.get(), &nm};

  SimulationConfig config;
  config.replicas = options.replicas;
  config.seed = options.seed;
  // --checkpoint <dir> journals completed replicas per model × cuisine;
  // --resume restores them after an interruption, so a long 25-cuisine
  // sweep picks up where it died. ckpt.* counters land in BENCH JSON via
  // the metrics snapshot. Benches skip fsync: tmpfs durability is enough
  // for a harness, and the sync cost would pollute the timings.
  config.checkpoint.directory = options.flags.GetString("checkpoint", "");
  config.checkpoint.resume = options.flags.GetBool("resume", false);
  config.checkpoint.sync = false;

  // --workers <n> shards every per-cuisine simulation across n supervised
  // worker processes (re-execs of this binary with --worker-shard; see
  // exec/fabric.h), then merges the shard journals and finishes in
  // process — output bit-identical to --workers 1.
  const bool is_worker = options.flags.Has("worker-shard");
  if (workers > 1 && !config.checkpoint.enabled()) {
    return reporter.Fail(Status::InvalidArgument(
        "--workers requires --checkpoint <dir>"));
  }
  if (is_worker) {
    config.shard.index = worker_shard;
    config.shard.count = workers;
    config.checkpoint.resume = true;
  } else if (workers > 1) {
    FabricOptions fabric;
    fabric.workers = workers;
    fabric.checkpoint_dir = config.checkpoint.directory;
    fabric.stall_ms = worker_stall_ms;
    fabric.max_worker_retries = worker_retries;
    Result<FabricReport> dispatched =
        RunWorkerFabric(std::vector<std::string>(argv, argv + argc), fabric);
    if (!dispatched.ok()) {
      return reporter.Fail(dispatched.status());
    }
    std::printf("fabric %s\n",
                FabricReportToJson(dispatched.value()).c_str());
    config.checkpoint.resume = true;
    config.checkpoint.merge_shards = workers;
  }

  std::printf(
      "\n== Fig. 4: ingredient-combination MAE, model vs empirical "
      "(replicas=%d) ==\n\n",
      options.replicas);
  TablePrinter table({"Cuisine", "CM-R", "CM-C", "CM-M", "NM", "winner",
                      "NM/bestCM"});
  std::map<std::string, int> winner_counts;
  double sum_best_cm = 0.0;
  double sum_nm = 0.0;
  double cat_cm = 0.0;
  double cat_nm = 0.0;

  // Decline-shape check: a gradual decline keeps many ranks on the curve
  // and a long tail above half the head frequency; the null model's curve
  // is short and collapses immediately ("rapid and abrupt", Section VI).
  double emp_len = 0.0;
  double cm_len = 0.0;  // best CM model
  double nm_len = 0.0;
  double emp_half = 0.0;  // head frequencies
  double cm_half = 0.0;
  double nm_half = 0.0;
  int shape_cuisines = 0;

  // MAE of each model per cuisine, in cuisine order (reporter series).
  std::vector<std::vector<double>> model_mae(4);

  JsonWriter json;
  json.BeginObject();
  json.Key("scale");
  json.Number(options.scale);
  json.Key("replicas");
  json.Int(options.replicas);
  json.Key("cuisines");
  json.BeginArray();

  for (int c = 0; c < kNumCuisines; ++c) {
    const CuisineId cuisine = static_cast<CuisineId>(c);
    Result<CuisineEvaluation> ev =
        EvaluateCuisine(corpus, cuisine, lexicon, models, config);
    if (!ev.ok()) {
      return reporter.Fail(ev.status());
    }
    if (is_worker) continue;  // results live in the shard journals
    const CuisineEvaluation& evaluation = ev.value();
    const size_t best = evaluation.BestByIngredientMae();
    const ModelScore& nm_score = evaluation.scores[3];
    double best_cm = evaluation.scores[0].mae_ingredient;
    for (size_t i = 1; i < 3; ++i) {
      best_cm = std::min(best_cm, evaluation.scores[i].mae_ingredient);
    }
    sum_best_cm += best_cm;
    sum_nm += nm_score.mae_ingredient;
    ++winner_counts[evaluation.scores[best].model];
    for (size_t m = 0; m < 4 && m < evaluation.scores.size(); ++m) {
      model_mae[m].push_back(evaluation.scores[m].mae_ingredient);
    }

    const auto head = [](const RankFrequency& rf) {
      return rf.empty() ? 0.0 : rf.at_rank(1);
    };
    emp_len += static_cast<double>(evaluation.empirical_ingredient.size());
    cm_len += static_cast<double>(
        evaluation.scores[best].ingredient_curve.size());
    nm_len += static_cast<double>(nm_score.ingredient_curve.size());
    emp_half += head(evaluation.empirical_ingredient);
    cm_half += head(evaluation.scores[best].ingredient_curve);
    nm_half += head(nm_score.ingredient_curve);
    ++shape_cuisines;

    double best_cat = evaluation.scores[0].mae_category;
    for (size_t i = 1; i < 3; ++i) {
      best_cat = std::min(best_cat, evaluation.scores[i].mae_category);
    }
    cat_cm += best_cat;
    cat_nm += nm_score.mae_category;

    json.BeginObject();
    json.Key("code");
    json.String(CuisineAt(cuisine).code);
    json.Key("empirical_curve_len");
    json.Int(static_cast<long long>(evaluation.empirical_ingredient.size()));
    json.Key("models");
    json.BeginArray();
    for (const ModelScore& score : evaluation.scores) {
      json.BeginObject();
      json.Key("name");
      json.String(score.model);
      json.Key("mae_ingredient");
      json.Number(score.mae_ingredient);
      json.Key("mae_category");
      json.Number(score.mae_category);
      json.Key("paper_eq2_ingredient");
      json.Number(score.paper_eq2_ingredient);
      json.Key("curve_head");
      json.BeginArray();
      for (size_t r = 1; r <= std::min<size_t>(20, score.ingredient_curve
                                                        .size());
           ++r) {
        json.Number(score.ingredient_curve.at_rank(r));
      }
      json.EndArray();
      json.EndObject();
    }
    json.EndArray();
    json.Key("winner");
    json.String(evaluation.scores[best].model);
    json.EndObject();

    table.AddRow(
        {std::string(CuisineAt(cuisine).code),
         TablePrinter::Num(evaluation.scores[0].mae_ingredient, 4),
         TablePrinter::Num(evaluation.scores[1].mae_ingredient, 4),
         TablePrinter::Num(evaluation.scores[2].mae_ingredient, 4),
         TablePrinter::Num(nm_score.mae_ingredient, 4),
         evaluation.scores[best].model,
         TablePrinter::Num(nm_score.mae_ingredient / std::max(1e-12, best_cm),
                           1)});
  }
  if (is_worker) return 0;  // the coordinator prints; we only journal
  table.Print(std::cout);

  std::printf("\nWinner distribution:");
  for (const auto& [model, count] : winner_counts) {
    std::printf("  %s=%d", model.c_str(), count);
  }
  std::printf("\nMean MAE: best copy-mutate %.4f vs null %.4f (x%.1f)\n",
              sum_best_cm / kNumCuisines, sum_nm / kNumCuisines,
              (sum_nm / kNumCuisines) / (sum_best_cm / kNumCuisines));
  const double n = static_cast<double>(shape_cuisines);
  std::printf(
      "Decline shape (gradual vs abrupt):\n"
      "  mean frequent-combination count: empirical %.1f, copy-mutate %.1f, "
      "null %.1f (abrupt collapse)\n"
      "  mean head frequency f(1):        empirical %.2f, copy-mutate %.2f, "
      "null %.2f\n",
      emp_len / n, cm_len / n, nm_len / n, emp_half / n, cm_half / n,
      nm_half / n);

  // Section VI's category check: how much less discriminative are category
  // combinations? Compare NM-vs-CM gaps on both curve families.
  std::printf(
      "\n== Section VI: category combinations are non-discriminative ==\n");
  std::printf(
      "Mean category-combination MAE: best copy-mutate %.4f vs null %.4f "
      "(x%.1f; ingredient gap above is larger)\n",
      cat_cm / kNumCuisines, cat_nm / kNumCuisines,
      (cat_nm / kNumCuisines) / std::max(1e-12, cat_cm / kNumCuisines));

  json.EndArray();
  json.EndObject();
  const std::string details_path =
      options.flags.GetString("details-json", "");
  if (!details_path.empty()) {
    Status status = WriteStringToFile(details_path, std::move(json).Take());
    if (!status.ok()) {
      return reporter.Fail(status);
    }
    std::printf("\nDetailed JSON results written to %s\n",
                details_path.c_str());
  }

  const char* model_names[4] = {"cm_r", "cm_c", "cm_m", "nm"};
  for (size_t m = 0; m < 4; ++m) {
    reporter.AddSeries(std::string("mae_ingredient_") + model_names[m],
                       std::move(model_mae[m]));
  }
  reporter.AddResult("mean_mae_best_copy_mutate", sum_best_cm / kNumCuisines);
  reporter.AddResult("mean_mae_null_model", sum_nm / kNumCuisines);
  reporter.AddResult("mean_mae_best_cm_category", cat_cm / kNumCuisines);
  reporter.AddResult("mean_mae_nm_category", cat_nm / kNumCuisines);
  return reporter.Finish();
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
