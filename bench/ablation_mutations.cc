// Ablation B (paper §VI parameter choice + §VII future work): sweeps the
// per-copy mutation count M and the variable-recipe-size mutation rate.
//
// Expected shape: the MAE is U-shaped in M — too few mutations leave the
// evolved pool overly concentrated, too many destroy the inherited
// combination structure; the paper's choices (M = 4-6) sit near the
// bottom. Moderate insert/delete rates do not destroy the fit (variable
// recipe sizes are compatible with copy-mutation).

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
      CuisineFromCode(options.flags.GetString("cuisine", "ITA"));
  if (!cuisine.ok()) options.flags.RefuseValue("cuisine");
  bench::BenchReporter reporter("ablation_mutations", options);
  const Lexicon& lexicon = WorldLexicon();
  reporter.BeginPhase("world_synthesis");
  const RecipeCorpus corpus = bench::MakeWorld(options, &reporter);
  reporter.BeginPhase("mutation_count_sweep");

  SimulationConfig config;
  config.replicas = options.replicas;
  config.seed = options.seed;

  std::printf("\n== Ablation B1: mutation count M (CM-M, cuisine %s) ==\n\n",
              std::string(CuisineAt(*cuisine).code).c_str());
  ModelParams base;
  base.policy = ReplacementPolicy::kMixture;
  Result<std::vector<SweepPoint>> m_sweep = SweepMutationCount(
      corpus, *cuisine, lexicon, {1, 2, 3, 4, 6, 8, 12, 16}, base, config);
  if (!m_sweep.ok()) {
    return reporter.Fail(m_sweep.status());
  }
  TablePrinter m_table({"M", "MAE ingredient", "MAE category"});
  for (const SweepPoint& point : m_sweep.value()) {
    m_table.AddRow({TablePrinter::Num(point.value, 0),
                    TablePrinter::Num(point.mae_ingredient, 4),
                    TablePrinter::Num(point.mae_category, 4)});
  }
  m_table.Print(std::cout);

  reporter.BeginPhase("size_mutation_sweep");
  std::printf("\n== Ablation B2: variable recipe sizes, insert/delete rate "
              "(CM-M, M=6) ==\n\n");
  base.mutations = 6;
  Result<std::vector<SweepPoint>> r_sweep = SweepSizeMutationRate(
      corpus, *cuisine, lexicon, {0.0, 0.05, 0.1, 0.2, 0.4}, base, config);
  if (!r_sweep.ok()) {
    return reporter.Fail(r_sweep.status());
  }
  TablePrinter r_table({"insert/delete rate", "MAE ingredient",
                        "MAE category"});
  for (const SweepPoint& point : r_sweep.value()) {
    r_table.AddRow({TablePrinter::Num(point.value, 2),
                    TablePrinter::Num(point.mae_ingredient, 4),
                    TablePrinter::Num(point.mae_category, 4)});
  }
  r_table.Print(std::cout);

  const auto add_sweep_series = [&](const char* prefix,
                                    const std::vector<SweepPoint>& points) {
    std::vector<double> values;
    std::vector<double> mae;
    for (const SweepPoint& point : points) {
      values.push_back(point.value);
      mae.push_back(point.mae_ingredient);
    }
    reporter.AddSeries(std::string(prefix) + "_values", std::move(values));
    reporter.AddSeries(std::string(prefix) + "_mae_ingredient",
                       std::move(mae));
  };
  add_sweep_series("mutation_count", m_sweep.value());
  add_sweep_series("size_mutation_rate", r_sweep.value());
  return reporter.Finish();
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
