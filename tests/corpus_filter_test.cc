#include "corpus/corpus_filter.h"

#include <gtest/gtest.h>

namespace culevo {
namespace {

TEST(SplitHalvesTest, PartitionsEveryCuisine) {
  RecipeCorpus::Builder builder;
  for (int i = 0; i < 101; ++i) {
    ASSERT_TRUE(builder.Add(i % 3, {static_cast<IngredientId>(i), 200}).ok());
  }
  const RecipeCorpus corpus = builder.Build();
  const CorpusSplit split = SplitHalves(corpus, 11);
  EXPECT_EQ(split.first.num_recipes() + split.second.num_recipes(),
            corpus.num_recipes());
  for (int c = 0; c < 3; ++c) {
    const CuisineId cuisine = static_cast<CuisineId>(c);
    const size_t total = corpus.num_recipes_in(cuisine);
    const size_t first = split.first.num_recipes_in(cuisine);
    EXPECT_NEAR(static_cast<double>(first),
                static_cast<double>(total) / 2.0, 1.0);
  }
}

TEST(SplitHalvesTest, HalvesAreDisjointByMentions) {
  // Give every recipe a unique marker ingredient, then verify no marker
  // appears in both halves.
  RecipeCorpus::Builder builder;
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(
        builder.Add(0, {static_cast<IngredientId>(i), 100, 101}).ok());
  }
  const CorpusSplit split = SplitHalves(builder.Build(), 5);
  std::vector<bool> in_first(60, false);
  for (uint32_t r = 0; r < split.first.num_recipes(); ++r) {
    in_first[split.first.ingredients_of(r)[0]] = true;
  }
  for (uint32_t r = 0; r < split.second.num_recipes(); ++r) {
    EXPECT_FALSE(in_first[split.second.ingredients_of(r)[0]]);
  }
}

}  // namespace
}  // namespace culevo
