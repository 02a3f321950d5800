#include "analysis/category_usage.h"

namespace culevo {

std::vector<std::array<double, kNumCategories>> CategoryUsageMatrix(
    const RecipeCorpus& corpus, const Lexicon& lexicon) {
  std::vector<std::array<double, kNumCategories>> matrix(
      kNumCuisines, std::array<double, kNumCategories>{});
  for (int c = 0; c < kNumCuisines; ++c) {
    const CuisineId cuisine = static_cast<CuisineId>(c);
    const std::span<const uint32_t> indices = corpus.recipes_of(cuisine);
    if (indices.empty()) continue;
    std::array<size_t, kNumCategories> totals{};
    for (uint32_t index : indices) {
      for (IngredientId id : corpus.ingredients_of(index)) {
        ++totals[static_cast<int>(lexicon.category(id))];
      }
    }
    for (int k = 0; k < kNumCategories; ++k) {
      matrix[static_cast<size_t>(c)][static_cast<size_t>(k)] =
          static_cast<double>(totals[static_cast<size_t>(k)]) /
          static_cast<double>(indices.size());
    }
  }
  return matrix;
}

}  // namespace culevo
