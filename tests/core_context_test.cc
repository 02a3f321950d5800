#include "core/evolution_model.h"

#include <gtest/gtest.h>

namespace culevo {
namespace {

TEST(ContextFromCorpusTest, DerivesAlgorithmOneInputs) {
  RecipeCorpus::Builder builder;
  ASSERT_TRUE(builder.Add(0, {1, 2, 3}).ok());
  ASSERT_TRUE(builder.Add(0, {1, 4, 5}).ok());
  ASSERT_TRUE(builder.Add(0, {1, 2, 6, 7}).ok());
  ASSERT_TRUE(builder.Add(1, {9}).ok());
  const RecipeCorpus corpus = builder.Build();

  Result<CuisineContext> context = ContextFromCorpus(corpus, 0);
  ASSERT_TRUE(context.ok());
  EXPECT_EQ(context->cuisine, 0);
  EXPECT_EQ(context->ingredients,
            (std::vector<IngredientId>{1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(context->target_recipes, 3u);
  EXPECT_DOUBLE_EQ(context->phi, 7.0 / 3.0);
  EXPECT_EQ(context->mean_recipe_size, 3);  // round(10/3).

  // Popularity aligned with the ingredient list: ingredient 1 in 3/3.
  ASSERT_EQ(context->popularity.size(), 7u);
  EXPECT_DOUBLE_EQ(context->popularity[0], 1.0);
  EXPECT_DOUBLE_EQ(context->popularity[1], 2.0 / 3.0);  // Ingredient 2.
  EXPECT_DOUBLE_EQ(context->popularity[2], 1.0 / 3.0);  // Ingredient 3.
}

TEST(ContextFromCorpusTest, EmptyCuisineFails) {
  RecipeCorpus::Builder builder;
  ASSERT_TRUE(builder.Add(0, {1}).ok());
  const RecipeCorpus corpus = builder.Build();
  Result<CuisineContext> context = ContextFromCorpus(corpus, 3);
  EXPECT_FALSE(context.ok());
  EXPECT_EQ(context.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ContextFromCorpusTest, BadCuisineIdFails) {
  const RecipeCorpus corpus;
  EXPECT_FALSE(ContextFromCorpus(corpus, kNumCuisines).ok());
}

}  // namespace
}  // namespace culevo
