#include "testing/corpus_stats_reference.h"

#include <algorithm>

namespace culevo {

std::vector<uint32_t> RecipesOf(const RecipeCorpus& corpus,
                                CuisineId cuisine) {
  std::vector<uint32_t> indices;
  for (uint32_t index = 0; index < corpus.num_recipes(); ++index) {
    if (corpus.cuisine_of(index) == cuisine) indices.push_back(index);
  }
  return indices;
}

std::vector<CuisineStats> ReferenceCuisineStats(const RecipeCorpus& corpus) {
  std::vector<CuisineStats> out(kNumCuisines);
  for (int c = 0; c < kNumCuisines; ++c) {
    const CuisineId cuisine = static_cast<CuisineId>(c);
    CuisineStats& stats = out[static_cast<size_t>(c)];
    stats.cuisine = cuisine;
    const std::vector<uint32_t> indices = RecipesOf(corpus, cuisine);
    stats.num_recipes = indices.size();
    if (indices.empty()) continue;

    stats.num_unique_ingredients = corpus.UniqueIngredients(cuisine).size();
    size_t total = 0;
    int min_size = static_cast<int>(corpus.ingredients_of(indices[0]).size());
    int max_size = min_size;
    for (uint32_t index : indices) {
      const int size = static_cast<int>(corpus.ingredients_of(index).size());
      total += static_cast<size_t>(size);
      min_size = std::min(min_size, size);
      max_size = std::max(max_size, size);
      if (static_cast<size_t>(size) >= stats.size_histogram.size()) {
        stats.size_histogram.resize(static_cast<size_t>(size) + 1, 0);
      }
      ++stats.size_histogram[static_cast<size_t>(size)];
    }
    stats.mean_recipe_size =
        static_cast<double>(total) / static_cast<double>(indices.size());
    stats.min_recipe_size = min_size;
    stats.max_recipe_size = max_size;
  }
  return out;
}

std::vector<size_t> ReferenceSizeHistogram(const RecipeCorpus& corpus) {
  std::vector<size_t> histogram;
  for (uint32_t i = 0; i < corpus.num_recipes(); ++i) {
    const size_t size = corpus.ingredients_of(i).size();
    if (size >= histogram.size()) histogram.resize(size + 1, 0);
    ++histogram[size];
  }
  return histogram;
}

}  // namespace culevo
