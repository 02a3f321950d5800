#ifndef CULEVO_CORPUS_CORPUS_STATS_H_
#define CULEVO_CORPUS_CORPUS_STATS_H_

#include <vector>

#include "corpus/recipe_corpus.h"

namespace culevo {

/// Descriptive statistics for one cuisine inside a corpus (the quantities
/// reported in Table I and Fig. 1 of the paper).
struct CuisineStats {
  CuisineId cuisine = 0;
  size_t num_recipes = 0;
  size_t num_unique_ingredients = 0;
  double mean_recipe_size = 0.0;
  int min_recipe_size = 0;
  int max_recipe_size = 0;
  /// size_histogram[s] = number of recipes with exactly s ingredients.
  std::vector<size_t> size_histogram;
};

/// Statistics of `cuisine`, read off the corpus's size histogram and
/// unique list: no recipe is read.
CuisineStats ComputeCuisineStats(const RecipeCorpus& corpus,
                                 CuisineId cuisine);

/// Per-cuisine statistics (one entry per cuisine id, including empty
/// cuisines with zero counts).
std::vector<CuisineStats> ComputeCuisineStats(const RecipeCorpus& corpus);

/// Aggregate recipe-size histogram over the whole corpus: the sum of the
/// cuisines' histograms.
std::vector<size_t> AggregateSizeHistogram(const RecipeCorpus& corpus);

}  // namespace culevo

#endif  // CULEVO_CORPUS_CORPUS_STATS_H_
