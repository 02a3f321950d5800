#include "corpus/corpus_filter.h"

#include "util/check.h"

namespace culevo {
namespace {

void AddRecipe(const RecipeCorpus& corpus, uint32_t index,
               RecipeCorpus::Builder* builder) {
  CULEVO_CHECK_OK(
      builder->Add(corpus.cuisine_of(index), corpus.ingredients_of(index)));
}

}  // namespace

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
