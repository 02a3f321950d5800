#include "corpus/corpus_stats.h"

#include <algorithm>

namespace culevo {

CuisineStats ComputeCuisineStats(const RecipeCorpus& corpus,
                                 CuisineId cuisine) {
  CuisineStats stats;
  stats.cuisine = cuisine;
  stats.num_recipes = corpus.num_recipes_in(cuisine);
  if (stats.num_recipes == 0) return stats;
  stats.num_unique_ingredients = corpus.UniqueIngredients(cuisine).size();
  const std::span<const uint32_t> sizes = corpus.size_histogram(cuisine);
  stats.size_histogram.assign(sizes.begin(), sizes.end());
  stats.mean_recipe_size = corpus.MeanRecipeSize(cuisine);
  // No recipe is empty, and the histogram ends at the largest recipe.
  stats.min_recipe_size = static_cast<int>(
      std::find_if(sizes.begin(), sizes.end(),
                   [](uint32_t count) { return count != 0; }) -
      sizes.begin());
  stats.max_recipe_size = static_cast<int>(sizes.size()) - 1;
  return stats;
}

std::vector<CuisineStats> ComputeCuisineStats(const RecipeCorpus& corpus) {
  std::vector<CuisineStats> out;
  out.reserve(kNumCuisines);
  for (int c = 0; c < kNumCuisines; ++c) {
    out.push_back(ComputeCuisineStats(corpus, static_cast<CuisineId>(c)));
  }
  return out;
}

std::vector<size_t> AggregateSizeHistogram(const RecipeCorpus& corpus) {
  std::vector<size_t> histogram;
  for (int c = 0; c < kNumCuisines; ++c) {
    const std::span<const uint32_t> sizes =
        corpus.size_histogram(static_cast<CuisineId>(c));
    if (sizes.size() > histogram.size()) histogram.resize(sizes.size(), 0);
    for (size_t size = 0; size < sizes.size(); ++size) {
      histogram[size] += sizes[size];
    }
  }
  return histogram;
}

}  // namespace culevo
