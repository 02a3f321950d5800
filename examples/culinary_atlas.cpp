// Culinary atlas: a deep-dive diversity report for one cuisine —
// Table-I-style statistics, overrepresented ingredients (Eq. 1), category
// usage (Fig. 2), the recipe-size distribution (Fig. 1), the Zipf exponent
// of ingredient popularity, and the strongest ingredient pairings (the
// food-pairing analysis the paper's introduction builds on).
//
// Usage: culinary_atlas [--cuisine THA] [--scale 0.25] [--pairings 8]

#include <iostream>

#include "analysis/category_usage.h"
#include "analysis/cooccurrence.h"
#include "analysis/network_stats.h"
#include "analysis/overrepresentation.h"
#include "analysis/similarity.h"
#include "analysis/summary.h"
#include "analysis/zipf.h"
#include "corpus/corpus_stats.h"
#include "lexicon/world_lexicon.h"
#include "synth/generator.h"
#include "util/flags.h"
#include "util/table_printer.h"

using namespace culevo;

int main(int argc, char** argv) {
  FlagParser flags;
  if (Status s = flags.Parse(argc, argv, {"scale", "cuisine", "pairings"});
      !s.ok()) {
    std::cerr << s << "\n";
    return 2;
  }
  const Lexicon& lexicon = WorldLexicon();

  SynthConfig synth;
  synth.scale = flags.GetDouble("scale", 0.25);
  Result<RecipeCorpus> corpus = SynthesizeWorldCorpus(lexicon, synth);
  if (!corpus.ok()) {
    std::cerr << corpus.status() << "\n";
    return 1;
  }

  Result<CuisineId> cuisine =
      CuisineFromCode(flags.GetString("cuisine", "THA"));
  if (!cuisine.ok()) {
    std::cerr << cuisine.status() << "\n";
    return 1;
  }
  const CuisineInfo& info = CuisineAt(cuisine.value());

  // --- Header statistics (Table I) -------------------------------------
  const std::vector<CuisineStats> stats = ComputeCuisineStats(*corpus);
  const CuisineStats& s = stats[cuisine.value()];
  std::cout << "=== " << info.name << " (" << info.code << ") ===\n"
            << s.num_recipes << " recipes, " << s.num_unique_ingredients
            << " unique ingredients, mean recipe size "
            << TablePrinter::Num(s.mean_recipe_size, 2) << " (sizes "
            << s.min_recipe_size << ".." << s.max_recipe_size << ")\n";

  const GaussianFit size_fit = FitGaussianToHistogram(s.size_histogram);
  std::cout << "Recipe sizes: Gaussian fit mean "
            << TablePrinter::Num(size_fit.mean, 2) << ", stddev "
            << TablePrinter::Num(size_fit.stddev, 2) << ", TV-error "
            << TablePrinter::Num(size_fit.tv_error, 3) << "\n";

  const ZipfFit zipf =
      FitZipf(IngredientPopularityCurve(*corpus, cuisine.value()));
  std::cout << "Ingredient popularity: Zipf exponent "
            << TablePrinter::Num(zipf.exponent, 2) << " (R^2 "
            << TablePrinter::Num(zipf.r_squared, 3) << ")\n\n";

  // --- Overrepresentation (Eq. 1) --------------------------------------
  std::cout << "Top overrepresented ingredients (Eq. 1):\n";
  TablePrinter over({"Ingredient", "score", "cuisine freq", "world freq"});
  for (const OverrepresentationScore& score :
       TopOverrepresented(*corpus, cuisine.value(), 10)) {
    over.AddRow({lexicon.name(score.ingredient),
                 TablePrinter::Num(score.score, 3),
                 TablePrinter::Num(score.cuisine_fraction, 3),
                 TablePrinter::Num(score.world_fraction, 3)});
  }
  over.Print(std::cout);

  // --- Category profile (Fig. 2) ---------------------------------------
  std::cout << "\nCategory usage (mean ingredients per recipe):\n";
  const auto matrix = CategoryUsageMatrix(*corpus, lexicon);
  TablePrinter usage({"Category", "this cuisine", "world mean"});
  for (int k = 0; k < kNumCategories; ++k) {
    double world = 0.0;
    for (int c = 0; c < kNumCuisines; ++c) {
      world += matrix[static_cast<size_t>(c)][static_cast<size_t>(k)];
    }
    world /= kNumCuisines;
    const double mine =
        matrix[cuisine.value()][static_cast<size_t>(k)];
    if (mine < 0.05 && world < 0.05) continue;
    usage.AddRow({std::string(CategoryName(CategoryFromIndex(k))),
                  TablePrinter::Num(mine, 2), TablePrinter::Num(world, 2)});
  }
  usage.Print(std::cout);

  // --- Food pairing ------------------------------------------------------
  const size_t k = static_cast<size_t>(flags.GetInt("pairings", 8));
  std::cout << "\nStrongest ingredient pairings (PMI, >=2% co-occurrence):\n";
  const size_t min_co = std::max<size_t>(2, s.num_recipes / 50);
  TablePrinter pairs({"Ingredient A", "Ingredient B", "PMI", "recipes"});
  const std::vector<PairingEdge> network =
      BuildPairingNetwork(*corpus, cuisine.value(), min_co);
  size_t shown = 0;
  for (const PairingEdge& edge : network) {
    pairs.AddRow({lexicon.name(edge.a), lexicon.name(edge.b),
                  TablePrinter::Num(edge.pmi, 2),
                  std::to_string(edge.cooccurrences)});
    if (++shown == k) break;
  }
  pairs.Print(std::cout);

  const NetworkStats net = ComputeNetworkStats(network);
  std::cout << "\nPairing-network structure: " << net.num_nodes
            << " ingredients, " << net.num_edges << " edges, density "
            << TablePrinter::Num(net.density, 3) << ", mean degree "
            << TablePrinter::Num(net.mean_degree, 1) << ", clustering "
            << TablePrinter::Num(net.clustering, 3) << "\n";

  // --- Nearest cuisines ---------------------------------------------------
  std::cout << "\nMost similar cuisines (ingredient-usage cosine):\n";
  for (const CuisineNeighbor& neighbor :
       NearestCuisines(*corpus, cuisine.value(), 5)) {
    std::cout << "  " << CuisineAt(neighbor.cuisine).name << " ("
              << CuisineAt(neighbor.cuisine).code << "), distance "
              << TablePrinter::Num(neighbor.distance, 3) << "\n";
  }
  return 0;
}
