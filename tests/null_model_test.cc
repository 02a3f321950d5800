#include "core/null_model.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <span>
#include <vector>

#include "model_test_util.h"

namespace culevo {
namespace {

CuisineContext MakeContext(size_t num_ingredients, size_t target,
                           int mean_size) {
  CuisineContext context;
  context.cuisine = 0;
  for (size_t i = 0; i < num_ingredients; ++i) {
    context.ingredients.push_back(static_cast<IngredientId>(i));
  }
  context.popularity.assign(num_ingredients, 0.5);
  context.mean_recipe_size = mean_size;
  context.target_recipes = target;
  context.phi = static_cast<double>(num_ingredients) /
                static_cast<double>(target);
  return context;
}

TEST(NullModelTest, GeneratesTargetCount) {
  const NullModel model;
  const Result<TransactionSet> recipes =
      GenerateRecipes(model, MakeContext(100, 300, 6), 1);
  ASSERT_TRUE(recipes.ok());
  EXPECT_EQ(recipes->size(), 300u);
}

TEST(NullModelTest, RecipesAreValidSets) {
  const NullModel model;
  const Result<TransactionSet> recipes =
      GenerateRecipes(model, MakeContext(80, 200, 7), 2);
  ASSERT_TRUE(recipes.ok());
  for (size_t r = 0; r < recipes->size(); ++r) {
    const std::span<const Item> recipe = recipes->transaction(r);
    EXPECT_EQ(recipe.size(), 7u);
    EXPECT_TRUE(std::is_sorted(recipe.begin(), recipe.end()));
    std::set<IngredientId> unique(recipe.begin(), recipe.end());
    EXPECT_EQ(unique.size(), recipe.size());
    for (IngredientId id : recipe) EXPECT_LT(id, 80);
  }
}

TEST(NullModelTest, Deterministic) {
  const NullModel model;
  const CuisineContext context = MakeContext(60, 150, 5);
  const Result<TransactionSet> a = GenerateRecipes(model, context, 7);
  const Result<TransactionSet> b = GenerateRecipes(model, context, 7);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(NullModelTest, NoDuplicationPressure) {
  // Without copying, exact duplicate recipes should be rare for a large
  // pool (unlike copy-mutate, which duplicates by construction when M
  // mutations all fail the fitness gate).
  const NullModel model;
  const Result<TransactionSet> recipes =
      GenerateRecipes(model, MakeContext(200, 500, 8), 3);
  ASSERT_TRUE(recipes.ok());
  std::set<std::vector<IngredientId>> unique;
  for (size_t r = 0; r < recipes->size(); ++r) {
    const std::span<const Item> recipe = recipes->transaction(r);
    unique.emplace(recipe.begin(), recipe.end());
  }
  EXPECT_GT(unique.size(), recipes->size() * 9 / 10);
}

TEST(NullModelTest, EarlyPoolMembersAreOverused) {
  // The growing-pool dynamic means the initial 20 pool ingredients appear
  // in far more recipes than late arrivals — the source of the null
  // model's abrupt rank-frequency collapse.
  const NullModel model(20);
  const CuisineContext context = MakeContext(200, 1000, 8);
  const Result<TransactionSet> recipes = GenerateRecipes(model, context, 4);
  ASSERT_TRUE(recipes.ok());
  std::map<IngredientId, size_t> counts;
  for (IngredientId id : recipes->items()) ++counts[id];
  size_t max_count = 0;
  size_t min_count = recipes->size();
  for (const auto& [id, count] : counts) {
    max_count = std::max(max_count, count);
    min_count = std::min(min_count, count);
  }
  EXPECT_GT(max_count, 4 * std::max<size_t>(min_count, 1));
}

TEST(NullModelTest, InvalidContextsRejected) {
  const NullModel model;
  CuisineContext context = MakeContext(10, 20, 4);
  context.target_recipes = 0;
  EXPECT_FALSE(GenerateRecipes(model, context, 1).ok());
  context = MakeContext(10, 20, 4);
  context.ingredients.clear();
  EXPECT_FALSE(GenerateRecipes(model, context, 1).ok());
  context = MakeContext(10, 20, 4);
  context.phi = -1.0;
  EXPECT_FALSE(GenerateRecipes(model, context, 1).ok());
}

TEST(NullModelTest, NameIsNM) {
  EXPECT_EQ(NullModel().name(), "NM");
}

}  // namespace
}  // namespace culevo
