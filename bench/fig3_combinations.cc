// Reproduces Fig. 3: the cuisine-wise and aggregate rank-frequency
// distributions of frequent (>= 5% support) combinations of (a)
// ingredients and (b) ingredient categories, and the pairwise-MAE
// homogeneity analysis of Section IV.
//
// Paper-shape expectations: the 25 curves are homogeneous — the paper
// reports average pairwise MAE 0.035 for ingredient combinations and 0.052
// for category combinations — and the cuisines with the fewest recipes
// (Central America, Korea, ...) are the most distinct.

#include <algorithm>
#include <cstdio>
#include <iostream>

// Pass --csv-dir <dir> to also write the per-cuisine curves and the
// pairwise-MAE matrices as CSV (fig3_ingredient_curves.csv,
// fig3_category_curves.csv, fig3_ingredient_mae.csv,
// fig3_category_mae.csv) for external plotting.

#include "analysis/combinations.h"
#include "analysis/distance.h"
#include "analysis/export.h"
#include "bench/bench_common.h"
#include "util/csv.h"
#include "util/table_printer.h"

namespace {

using namespace culevo;

void PrintCurveFamily(const char* title,
                      const std::vector<RankFrequency>& curves,
                      const RecipeCorpus& corpus) {
  std::printf("\n== %s ==\n\n", title);
  TablePrinter table({"Cuisine", "#combos", "f(1)", "f(5)", "f(10)",
                      "f(50)", "mean MAE vs others"});
  const std::vector<std::vector<double>> matrix = PairwiseMae(curves);

  // Mean distance of each cuisine to all others (distinctness).
  std::vector<std::pair<double, int>> distinctness;
  for (int c = 0; c < kNumCuisines; ++c) {
    double total = 0.0;
    for (int d = 0; d < kNumCuisines; ++d) {
      if (d != c) {
        total += matrix[static_cast<size_t>(c)][static_cast<size_t>(d)];
      }
    }
    distinctness.emplace_back(total / (kNumCuisines - 1), c);
  }

  const auto at = [](const RankFrequency& rf, size_t rank) {
    return rank <= rf.size() ? rf.at_rank(rank) : 0.0;
  };
  for (int c = 0; c < kNumCuisines; ++c) {
    const RankFrequency& rf = curves[static_cast<size_t>(c)];
    table.AddRow({std::string(CuisineAt(static_cast<CuisineId>(c)).code),
                  std::to_string(rf.size()),
                  TablePrinter::Num(at(rf, 1), 3),
                  TablePrinter::Num(at(rf, 5), 3),
                  TablePrinter::Num(at(rf, 10), 3),
                  TablePrinter::Num(at(rf, 50), 3),
                  TablePrinter::Num(distinctness[static_cast<size_t>(c)]
                                        .first,
                                    4)});
  }
  table.Print(std::cout);

  std::printf("\nAverage pairwise MAE: %.4f\n", MeanOffDiagonal(matrix));
  std::sort(distinctness.begin(), distinctness.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::printf("Most distinct cuisines (smallest corpora are expected "
              "here):");
  for (int i = 0; i < 4; ++i) {
    const CuisineId cuisine = static_cast<CuisineId>(distinctness
                                                         [static_cast<size_t>(
                                                             i)]
                                                             .second);
    std::printf("  %s(n=%zu)", std::string(CuisineAt(cuisine).code).c_str(),
                corpus.num_recipes_in(cuisine));
  }
  std::printf("\n");
}

int Run(int argc, char** argv) {
  bench::BenchOptions options = bench::ParseOptions(argc, argv, {"csv-dir"});
  bench::BenchReporter reporter("fig3_combinations", options);
  const Lexicon& lexicon = WorldLexicon();
  reporter.BeginPhase("world_synthesis");
  const RecipeCorpus corpus = bench::MakeWorld(options, &reporter);
  reporter.BeginPhase("mining");

  std::vector<RankFrequency> ingredient_curves;
  std::vector<RankFrequency> category_curves;
  for (int c = 0; c < kNumCuisines; ++c) {
    const CuisineId cuisine = static_cast<CuisineId>(c);
    ingredient_curves.push_back(IngredientCombinationCurve(corpus, cuisine));
    category_curves.push_back(
        CategoryCombinationCurve(corpus, cuisine, lexicon));
  }

  reporter.BeginPhase("homogeneity_analysis");
  PrintCurveFamily("Fig. 3(a): frequent ingredient combinations",
                   ingredient_curves, corpus);
  PrintCurveFamily("Fig. 3(b): frequent category combinations",
                   category_curves, corpus);

  const std::string csv_dir = options.flags.GetString("csv-dir", "");
  if (!csv_dir.empty()) {
    std::vector<std::string> labels;
    for (int c = 0; c < kNumCuisines; ++c) {
      labels.emplace_back(CuisineAt(static_cast<CuisineId>(c)).code);
    }
    const auto write = [&](const std::string& name,
                           const std::string& csv) {
      const Status status = WriteStringToFile(csv_dir + "/" + name, csv);
      if (!status.ok()) std::cerr << status << "\n";
    };
    write("fig3_ingredient_curves.csv",
          CurvesToCsv(labels, ingredient_curves));
    write("fig3_category_curves.csv", CurvesToCsv(labels, category_curves));
    write("fig3_ingredient_mae.csv",
          MatrixToCsv(labels, PairwiseMae(ingredient_curves)));
    write("fig3_category_mae.csv",
          MatrixToCsv(labels, PairwiseMae(category_curves)));
    std::printf("\nCSV data written to %s/fig3_*.csv\n", csv_dir.c_str());
  }

  std::printf("\nPaper reference: average pairwise MAE 0.035 (ingredient) "
              "and 0.052 (category) at full scale.\n");

  reporter.AddCurve("fig3a_aggregate_ingredient",
                    AverageRankFrequencies(ingredient_curves));
  reporter.AddCurve("fig3b_aggregate_category",
                    AverageRankFrequencies(category_curves));
  reporter.AddResult("avg_pairwise_mae_ingredient",
                     MeanOffDiagonal(PairwiseMae(ingredient_curves)));
  reporter.AddResult("avg_pairwise_mae_category",
                     MeanOffDiagonal(PairwiseMae(category_curves)));
  return reporter.Finish();
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
