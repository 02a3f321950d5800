// Reproduces Fig. 2: boxplots of the average number of ingredients used
// per recipe from each category, across the 25 world cuisines.
//
// Paper-shape expectations: Vegetable, Additive, Spice, Dairy, Herb, Plant
// and Fruit are the most-used categories everywhere, while per-cuisine
// means vary widely — e.g. INSC and AFR use spices more than JPN, ANZ and
// IRL; SCND, FRA and IRL use dairy more than JPN, SEA, THA and KOR.

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "analysis/category_usage.h"
#include "analysis/summary.h"
#include "bench/bench_common.h"
#include "util/table_printer.h"

namespace {

using namespace culevo;

int Run(int argc, char** argv) {
  bench::BenchOptions options = bench::ParseOptions(argc, argv);
  bench::BenchReporter reporter("fig2_category_usage", options);
  const Lexicon& lexicon = WorldLexicon();
  reporter.BeginPhase("world_synthesis");
  const RecipeCorpus corpus = bench::MakeWorld(options, &reporter);
  reporter.BeginPhase("category_usage");

  const auto matrix = CategoryUsageMatrix(corpus, lexicon);

  // Per-category boxplot across the 25 per-cuisine means (the spread the
  // paper's figure shows), ordered by median usage.
  std::printf("\n== Fig. 2: ingredients-per-recipe by category ==\n\n");
  TablePrinter table({"Category", "min", "q1", "median", "q3", "max",
                      "top cuisine", "bottom cuisine"});
  std::vector<std::pair<double, int>> by_median;
  for (int k = 0; k < kNumCategories; ++k) {
    std::vector<double> means;
    for (int c = 0; c < kNumCuisines; ++c) {
      means.push_back(matrix[static_cast<size_t>(c)][static_cast<size_t>(k)]);
    }
    by_median.emplace_back(Quantile(means, 0.5), k);
  }
  std::sort(by_median.begin(), by_median.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  for (const auto& [median, k] : by_median) {
    std::vector<double> means;
    int top_cuisine = 0;
    int bottom_cuisine = 0;
    for (int c = 0; c < kNumCuisines; ++c) {
      const double v =
          matrix[static_cast<size_t>(c)][static_cast<size_t>(k)];
      means.push_back(v);
      if (v > means[static_cast<size_t>(top_cuisine)]) top_cuisine = c;
      if (v < means[static_cast<size_t>(bottom_cuisine)]) bottom_cuisine = c;
    }
    const BoxplotStats box = ComputeBoxplotStats(means);
    table.AddRow({std::string(CategoryName(CategoryFromIndex(k))),
                  TablePrinter::Num(box.min, 2),
                  TablePrinter::Num(box.q1, 2),
                  TablePrinter::Num(box.median, 2),
                  TablePrinter::Num(box.q3, 2),
                  TablePrinter::Num(box.max, 2),
                  std::string(CuisineAt(static_cast<CuisineId>(top_cuisine))
                                  .code),
                  std::string(
                      CuisineAt(static_cast<CuisineId>(bottom_cuisine))
                          .code)});
  }
  table.Print(std::cout);

  // The paper's named contrasts.
  const auto usage = [&](const char* code, Category category) {
    const CuisineId cuisine = CuisineFromCode(code).value();
    return matrix[cuisine][static_cast<size_t>(category)];
  };
  std::printf("\nNamed contrasts (mean ingredients/recipe):\n");
  std::printf("  Spice: INSC %.2f, AFR %.2f  vs  JPN %.2f, ANZ %.2f, IRL "
              "%.2f\n",
              usage("INSC", Category::kSpice), usage("AFR", Category::kSpice),
              usage("JPN", Category::kSpice), usage("ANZ", Category::kSpice),
              usage("IRL", Category::kSpice));
  std::printf("  Dairy: SCND %.2f, FRA %.2f, IRL %.2f  vs  JPN %.2f, SEA "
              "%.2f, THA %.2f, KOR %.2f\n",
              usage("SCND", Category::kDairy), usage("FRA", Category::kDairy),
              usage("IRL", Category::kDairy), usage("JPN", Category::kDairy),
              usage("SEA", Category::kDairy), usage("THA", Category::kDairy),
              usage("KOR", Category::kDairy));

  // One series per category: the 25 per-cuisine means behind the boxplots.
  for (int k = 0; k < kNumCategories; ++k) {
    std::vector<double> means;
    for (int c = 0; c < kNumCuisines; ++c) {
      means.push_back(
          matrix[static_cast<size_t>(c)][static_cast<size_t>(k)]);
    }
    reporter.AddSeries(std::string("category_usage_") +
                           std::string(CategoryName(CategoryFromIndex(k))),
                       std::move(means));
  }
  reporter.AddResult("spice_contrast_insc_minus_jpn",
                     usage("INSC", Category::kSpice) -
                         usage("JPN", Category::kSpice));
  reporter.AddResult("dairy_contrast_fra_minus_jpn",
                     usage("FRA", Category::kDairy) -
                         usage("JPN", Category::kDairy));
  return reporter.Finish();
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
