#include "analysis/presence_counts.h"

namespace culevo {

PresenceCounts::PresenceCounts(const RecipeCorpus& corpus)
    : num_recipes_(corpus.num_recipes()) {
  const std::span<const IngredientId> unique = corpus.UniqueIngredients();
  universe_ = unique.empty() ? 0 : static_cast<size_t>(unique.back()) + 1;
  counts_.assign(kNumCuisines * universe_, 0);
  world_.assign(universe_, 0);

  // Straight over the CSR columns: a recipe stores each id once, so one
  // increment per mention is exactly recipe presence.
  const std::span<const IngredientId> flat = corpus.flat();
  const std::span<const uint32_t> offsets = corpus.offsets();
  const std::span<const CuisineId> cuisines = corpus.cuisines();
  for (size_t r = 0; r < cuisines.size(); ++r) {
    uint32_t* row = counts_.data() + cuisines[r] * universe_;
    for (uint32_t m = offsets[r]; m < offsets[r + 1]; ++m) ++row[flat[m]];
  }

  for (int c = 0; c < kNumCuisines; ++c) {
    recipes_[static_cast<size_t>(c)] =
        corpus.num_recipes_in(static_cast<CuisineId>(c));
    const std::span<const uint32_t> row = cuisine(static_cast<CuisineId>(c));
    for (size_t id = 0; id < universe_; ++id) world_[id] += row[id];
  }
}

}  // namespace culevo
