// Ablation D (supports the paper's Section-VI parameter statement): sweeps
// the initial ingredient-pool size m and runs the full copy-mutate
// parameter grid search, verifying that the paper's choices (m = 20,
// M = 4-6) fall in the best-fitting region.

#include <cstdio>
#include <iostream>

#include "bench/bench_common.h"
#include "core/sweeps.h"
#include "util/table_printer.h"

namespace {

using namespace culevo;

int Run(int argc, char** argv) {
  bench::BenchOptions options = bench::ParseOptions(argc, argv, {"cuisine"});
  const Result<CuisineId> cuisine =
      CuisineFromCode(options.flags.GetString("cuisine", "FRA"));
  if (!cuisine.ok()) options.flags.RefuseValue("cuisine");
  bench::BenchReporter reporter("ablation_pool", options);
  const Lexicon& lexicon = WorldLexicon();
  reporter.BeginPhase("world_synthesis");
  const RecipeCorpus corpus = bench::MakeWorld(options, &reporter);
  reporter.BeginPhase("pool_size_sweep");

  SimulationConfig config;
  config.replicas = options.replicas;
  config.seed = options.seed;

  std::printf("\n== Ablation D1: initial pool size m (CM-M, M=6, cuisine "
              "%s) ==\n\n",
              std::string(CuisineAt(*cuisine).code).c_str());
  ModelParams base;
  base.policy = ReplacementPolicy::kMixture;
  base.mutations = 6;
  Result<std::vector<SweepPoint>> sweep = SweepInitialPool(
      corpus, *cuisine, lexicon, {5, 10, 20, 40, 80, 160}, base, config);
  if (!sweep.ok()) {
    return reporter.Fail(sweep.status());
  }
  TablePrinter m_table({"m", "MAE ingredient", "MAE category"});
  for (const SweepPoint& point : sweep.value()) {
    m_table.AddRow({TablePrinter::Num(point.value, 0),
                    TablePrinter::Num(point.mae_ingredient, 4),
                    TablePrinter::Num(point.mae_category, 4)});
  }
  m_table.Print(std::cout);

  reporter.BeginPhase("grid_search");
  std::printf("\n== Ablation D2: full parameter grid search ==\n\n");
  FitGrid grid;
  Result<std::vector<FitResult>> fits =
      FitCopyMutateParameters(corpus, *cuisine, lexicon, grid, config);
  if (!fits.ok()) {
    return reporter.Fail(fits.status());
  }
  TablePrinter fit_table({"rank", "policy", "m", "M", "MAE ingredient"});
  for (size_t i = 0; i < fits->size() && i < 8; ++i) {
    const FitResult& fit = (*fits)[i];
    fit_table.AddRow({std::to_string(i + 1),
                      ReplacementPolicyName(fit.params.policy),
                      std::to_string(fit.params.initial_pool),
                      std::to_string(fit.params.mutations),
                      TablePrinter::Num(fit.mae_ingredient, 4)});
  }
  fit_table.Print(std::cout);
  std::printf(
      "\nPaper reference: m=20 with M=4 (CM-R) / 6 (CM-C, CM-M) "
      "\"consistently reproduce the empirical distributions\".\n");

  std::vector<double> pool_values;
  std::vector<double> pool_mae;
  for (const SweepPoint& point : sweep.value()) {
    pool_values.push_back(point.value);
    pool_mae.push_back(point.mae_ingredient);
  }
  reporter.AddSeries("initial_pool_values", std::move(pool_values));
  reporter.AddSeries("initial_pool_mae_ingredient", std::move(pool_mae));
  if (!fits->empty()) {
    reporter.AddResult("grid_best_mae_ingredient",
                       (*fits)[0].mae_ingredient);
    reporter.AddResult("grid_best_initial_pool",
                       (*fits)[0].params.initial_pool);
    reporter.AddResult("grid_best_mutations", (*fits)[0].params.mutations);
  }
  return reporter.Finish();
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
