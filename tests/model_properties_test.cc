// Parameterized property tests: invariants that must hold for every
// culinary-evolution model configuration (policy × mutation count), swept
// with TEST_P.

#include <gtest/gtest.h>

#include <set>
#include <span>
#include <tuple>

#include "core/copy_mutate.h"
#include "core/null_model.h"
#include "lexicon/world_lexicon.h"
#include "model_test_util.h"

namespace culevo {
namespace {

CuisineContext WorldContext(size_t num_ingredients, size_t target,
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

using ModelParamTuple = std::tuple<ReplacementPolicy, int>;

class CopyMutatePropertyTest
    : public ::testing::TestWithParam<ModelParamTuple> {};

TEST_P(CopyMutatePropertyTest, GeneratedPoolSatisfiesAllInvariants) {
  const auto [policy, mutations] = GetParam();
  ModelParams params;
  params.policy = policy;
  params.mutations = mutations;
  const CopyMutateModel model(&WorldLexicon(), params);

  const CuisineContext context = WorldContext(150, 450, 8);
  const Result<TransactionSet> recipes = GenerateRecipes(model, context, 97);
  ASSERT_TRUE(recipes.ok());

  // Invariant 1: exactly N recipes.
  ASSERT_EQ(recipes->size(), context.target_recipes);

  std::set<IngredientId> used;
  for (size_t r = 0; r < recipes->size(); ++r) {
    const std::span<const Item> recipe = recipes->transaction(r);
    // Invariant 2: constant size s̄ (no insert/delete configured).
    EXPECT_EQ(recipe.size(), 8u);
    // Invariant 3: sorted unique ingredient sets.
    EXPECT_TRUE(std::is_sorted(recipe.begin(), recipe.end()));
    EXPECT_EQ(std::adjacent_find(recipe.begin(), recipe.end()),
              recipe.end());
    // Invariant 4: only cuisine ingredients.
    for (IngredientId id : recipe) {
      EXPECT_LT(id, 150);
      used.insert(id);
    }
  }

  // Invariant 5: pool growth happened — with phi = 1/3 and m0 = 20, the
  // evolved corpus must draw on far more than the initial pool.
  EXPECT_GT(used.size(), 40u);

  // Invariant 6: determinism.
  const Result<TransactionSet> again = GenerateRecipes(model, context, 97);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*recipes, *again);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigurations, CopyMutatePropertyTest,
    ::testing::Combine(
        ::testing::Values(ReplacementPolicy::kRandom,
                          ReplacementPolicy::kSameCategory,
                          ReplacementPolicy::kMixture),
        ::testing::Values(1, 4, 6)));

class VariableSizePropertyTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(VariableSizePropertyTest, SizesStayInPaperEnvelope) {
  const auto [insert_prob, delete_prob] = GetParam();
  ModelParams params;
  params.policy = ReplacementPolicy::kMixture;
  params.insert_prob = insert_prob;
  params.delete_prob = delete_prob;
  const CopyMutateModel model(&WorldLexicon(), params);
  const CuisineContext context = WorldContext(120, 400, 9);
  const Result<TransactionSet> recipes = GenerateRecipes(model, context, 31);
  ASSERT_TRUE(recipes.ok());
  for (size_t r = 0; r < recipes->size(); ++r) {
    const std::span<const Item> recipe = recipes->transaction(r);
    EXPECT_GE(recipe.size(), 2u);
    EXPECT_LE(recipe.size(), 38u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rates, VariableSizePropertyTest,
    ::testing::Values(std::make_tuple(0.0, 0.0), std::make_tuple(0.5, 0.0),
                      std::make_tuple(0.0, 0.5), std::make_tuple(0.5, 0.5),
                      std::make_tuple(1.0, 1.0)));

class NullModelPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(NullModelPropertyTest, ValidForVaryingPoolSizes) {
  const NullModel model(GetParam());
  const CuisineContext context = WorldContext(100, 250, 7);
  const Result<TransactionSet> recipes = GenerateRecipes(model, context, 13);
  ASSERT_TRUE(recipes.ok());
  ASSERT_EQ(recipes->size(), 250u);
  for (size_t r = 0; r < recipes->size(); ++r) {
    const std::span<const Item> recipe = recipes->transaction(r);
    EXPECT_LE(recipe.size(), 7u);
    EXPECT_TRUE(std::is_sorted(recipe.begin(), recipe.end()));
  }
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, NullModelPropertyTest,
                         ::testing::Values(1, 5, 20, 100, 500));

}  // namespace
}  // namespace culevo
