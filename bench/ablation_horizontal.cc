// Ablation C (paper §VII future work): horizontal transmission between
// cuisines. Evolves a 5-cuisine sub-world jointly under increasing
// migration probability and reports (a) per-cuisine fit against the
// empirical distributions and (b) between-cuisine homogenization —
// the mean pairwise MAE among the evolved cuisines' curves.
//
// Expected shape: moderate migration leaves per-cuisine fit largely
// intact while driving the evolved cuisines' curves closer together
// (smaller mean pairwise MAE), mirroring the paper's remark that culinary
// propagation is horizontal as well as vertical.

#include <cstdio>
#include <iostream>

#include "analysis/combinations.h"
#include "analysis/distance.h"
#include "bench/bench_common.h"
#include "core/horizontal.h"
#include "util/table_printer.h"

namespace {

using namespace culevo;

int Run(int argc, char** argv) {
  bench::BenchOptions options = bench::ParseOptions(argc, argv);
  bench::BenchReporter reporter("ablation_horizontal", options);
  const Lexicon& lexicon = WorldLexicon();
  reporter.BeginPhase("world_synthesis");
  const RecipeCorpus corpus = bench::MakeWorld(options, &reporter);
  reporter.BeginPhase("migration_sweep");

  const std::vector<const char*> codes = {"ITA", "FRA", "GRC", "SP", "ME"};
  std::vector<CuisineContext> contexts;
  std::vector<RankFrequency> empirical;
  for (const char* code : codes) {
    const CuisineId cuisine = CuisineFromCode(code).value();
    Result<CuisineContext> context = ContextFromCorpus(corpus, cuisine);
    if (!context.ok()) {
      return reporter.Fail(context.status());
    }
    contexts.push_back(std::move(context).value());
    empirical.push_back(IngredientCombinationCurve(corpus, cuisine));
  }

  std::printf("\n== Ablation C: horizontal transmission "
              "(ITA/FRA/GRC/SP/ME sub-world) ==\n\n");
  TablePrinter table({"migration", "mean MAE vs empirical",
                      "mean pairwise MAE (evolved)",
                      "pairwise MAE (empirical)"});

  const std::vector<std::vector<double>> empirical_matrix =
      PairwiseMae(empirical);
  const double empirical_pairwise = MeanOffDiagonal(empirical_matrix);

  std::vector<double> migration_series;
  std::vector<double> fit_series;
  std::vector<double> pairwise_series;
  for (double migration : {0.0, 0.01, 0.05, 0.1, 0.25}) {
    HorizontalConfig config;
    config.migration_prob = migration;
    config.seed = options.seed;
    Result<std::vector<TransactionSet>> world =
        EvolveHorizontalWorld(contexts, lexicon, config);
    if (!world.ok()) {
      return reporter.Fail(world.status());
    }
    std::vector<RankFrequency> evolved;
    double mae_total = 0.0;
    for (size_t k = 0; k < contexts.size(); ++k) {
      const RankFrequency curve = CombinationCurve((*world)[k]);
      mae_total += MeanAbsoluteError(empirical[k], curve);
      evolved.push_back(curve);
    }
    const double pairwise = MeanOffDiagonal(PairwiseMae(evolved));
    migration_series.push_back(migration);
    fit_series.push_back(mae_total / static_cast<double>(contexts.size()));
    pairwise_series.push_back(pairwise);
    table.AddRow({TablePrinter::Num(migration, 2),
                  TablePrinter::Num(mae_total /
                                        static_cast<double>(contexts.size()),
                                    4),
                  TablePrinter::Num(pairwise, 4),
                  TablePrinter::Num(empirical_pairwise, 4)});
  }
  table.Print(std::cout);

  reporter.AddSeries("migration_prob", std::move(migration_series));
  reporter.AddSeries("mean_mae_vs_empirical", std::move(fit_series));
  reporter.AddSeries("mean_pairwise_mae_evolved",
                     std::move(pairwise_series));
  reporter.AddResult("mean_pairwise_mae_empirical", empirical_pairwise);
  return reporter.Finish();
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
