#include "corpus/corpus_filter.h"

#include <algorithm>

#include "util/check.h"

namespace culevo {
namespace {

void AddRecipe(const RecipeCorpus& corpus, uint32_t index,
               RecipeCorpus::Builder* builder) {
  CULEVO_CHECK_OK(
      builder->Add(corpus.cuisine_of(index), corpus.ingredients_of(index)));
}

}  // namespace

RecipeCorpus FilterCorpus(
    const RecipeCorpus& corpus,
    const std::function<bool(const RecipeView&)>& keep) {
  RecipeCorpus::Builder builder;
  for (uint32_t i = 0; i < corpus.num_recipes(); ++i) {
    if (keep(corpus.recipe(i))) AddRecipe(corpus, i, &builder);
  }
  return builder.Build();
}

RecipeCorpus SelectCuisines(const RecipeCorpus& corpus,
                            const std::vector<CuisineId>& cuisines) {
  bool wanted[kNumCuisines] = {};
  for (CuisineId cuisine : cuisines) {
    CULEVO_CHECK(cuisine < kNumCuisines);
    wanted[cuisine] = true;
  }
  return FilterCorpus(corpus, [&wanted](const RecipeView& recipe) {
    return wanted[recipe.cuisine];
  });
}

RecipeCorpus RecipesContaining(const RecipeCorpus& corpus,
                               IngredientId ingredient) {
  return FilterCorpus(corpus, [ingredient](const RecipeView& recipe) {
    return std::binary_search(recipe.ingredients.begin(),
                              recipe.ingredients.end(), ingredient);
  });
}

RecipeCorpus SampleCorpus(const RecipeCorpus& corpus, double fraction,
                          uint64_t seed) {
  CULEVO_CHECK(fraction > 0.0 && fraction <= 1.0);
  Rng rng(DeriveSeed(seed, 0x5A4D));
  RecipeCorpus::Builder builder;
  for (int c = 0; c < kNumCuisines; ++c) {
    for (uint32_t index : corpus.recipes_of(static_cast<CuisineId>(c))) {
      if (rng.NextDouble() < fraction) AddRecipe(corpus, index, &builder);
    }
  }
  return builder.Build();
}

CorpusSplit SplitHalves(const RecipeCorpus& corpus, uint64_t seed) {
  Rng rng(DeriveSeed(seed, 0x117F));
  RecipeCorpus::Builder first;
  RecipeCorpus::Builder second;
  for (int c = 0; c < kNumCuisines; ++c) {
    const std::span<const uint32_t> shard =
        corpus.recipes_of(static_cast<CuisineId>(c));
    std::vector<uint32_t> indices(shard.begin(), shard.end());
    for (size_t i = indices.size(); i > 1; --i) {
      std::swap(indices[i - 1], indices[rng.NextBounded(i)]);
    }
    for (size_t i = 0; i < indices.size(); ++i) {
      AddRecipe(corpus, indices[i], i % 2 == 0 ? &first : &second);
    }
  }
  return CorpusSplit{first.Build(), second.Build()};
}

}  // namespace culevo
