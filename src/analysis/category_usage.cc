#include "analysis/category_usage.h"

namespace culevo {

std::vector<std::array<double, kNumCategories>> CategoryUsageMatrix(
    const RecipeCorpus& corpus, const Lexicon& lexicon) {
  // One pass over the recipes counts every cuisine's category mentions.
  std::vector<std::array<size_t, kNumCategories>> totals(kNumCuisines);
  for (uint32_t index = 0; index < corpus.num_recipes(); ++index) {
    std::array<size_t, kNumCategories>& row = totals[corpus.cuisine_of(index)];
    for (IngredientId id : corpus.ingredients_of(index)) {
      ++row[static_cast<size_t>(lexicon.category(id))];
    }
  }
  std::vector<std::array<double, kNumCategories>> matrix(
      kNumCuisines, std::array<double, kNumCategories>{});
  for (size_t c = 0; c < kNumCuisines; ++c) {
    const size_t recipes = corpus.num_recipes_in(static_cast<CuisineId>(c));
    if (recipes == 0) continue;
    for (size_t k = 0; k < kNumCategories; ++k) {
      matrix[c][k] =
          static_cast<double>(totals[c][k]) / static_cast<double>(recipes);
    }
  }
  return matrix;
}

}  // namespace culevo
