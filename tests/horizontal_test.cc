#include "core/horizontal.h"

#include <gtest/gtest.h>

#include <set>
#include <span>

#include "lexicon/world_lexicon.h"

namespace culevo {
namespace {

/// Two cuisines with disjoint ingredient ranges so cross-cuisine leakage
/// is directly observable.
std::vector<CuisineContext> DisjointContexts() {
  std::vector<CuisineContext> contexts(2);
  for (int k = 0; k < 2; ++k) {
    CuisineContext& context = contexts[static_cast<size_t>(k)];
    context.cuisine = static_cast<CuisineId>(k);
    for (int i = 0; i < 80; ++i) {
      context.ingredients.push_back(static_cast<IngredientId>(k * 80 + i));
    }
    context.popularity.assign(80, 0.5);
    context.mean_recipe_size = 6;
    context.target_recipes = 200;
    context.phi = 80.0 / 200.0;
  }
  return contexts;
}

bool AnyForeignIngredient(const TransactionSet& recipes, IngredientId lo,
                          IngredientId hi) {
  for (IngredientId id : recipes.items()) {
    if (id < lo || id >= hi) return true;
  }
  return false;
}

TEST(HorizontalTest, ZeroMigrationKeepsCuisinesIsolated) {
  HorizontalConfig config;
  config.migration_prob = 0.0;
  config.seed = 3;
  Result<std::vector<TransactionSet>> world =
      EvolveHorizontalWorld(DisjointContexts(), WorldLexicon(), config);
  ASSERT_TRUE(world.ok());
  ASSERT_EQ(world->size(), 2u);
  EXPECT_EQ((*world)[0].size(), 200u);
  EXPECT_EQ((*world)[1].size(), 200u);
  EXPECT_FALSE(AnyForeignIngredient((*world)[0], 0, 80));
  EXPECT_FALSE(AnyForeignIngredient((*world)[1], 80, 160));
}

TEST(HorizontalTest, MigrationLeaksForeignIngredients) {
  HorizontalConfig config;
  config.migration_prob = 0.5;
  config.seed = 3;
  Result<std::vector<TransactionSet>> world =
      EvolveHorizontalWorld(DisjointContexts(), WorldLexicon(), config);
  ASSERT_TRUE(world.ok());
  // With heavy migration, imported mother recipes carry the donor's
  // ingredients into the other cuisine's pool output.
  EXPECT_TRUE(AnyForeignIngredient((*world)[0], 0, 80) ||
              AnyForeignIngredient((*world)[1], 80, 160));
}

TEST(HorizontalTest, RecipesAreSortedSets) {
  HorizontalConfig config;
  config.migration_prob = 0.1;
  Result<std::vector<TransactionSet>> world =
      EvolveHorizontalWorld(DisjointContexts(), WorldLexicon(), config);
  ASSERT_TRUE(world.ok());
  for (const TransactionSet& recipes : *world) {
    for (size_t r = 0; r < recipes.size(); ++r) {
      const std::span<const Item> recipe = recipes.transaction(r);
      EXPECT_TRUE(std::is_sorted(recipe.begin(), recipe.end()));
      std::set<IngredientId> unique(recipe.begin(), recipe.end());
      EXPECT_EQ(unique.size(), recipe.size());
    }
  }
}

TEST(HorizontalTest, Deterministic) {
  HorizontalConfig config;
  config.migration_prob = 0.2;
  config.seed = 5;
  Result<std::vector<TransactionSet>> a =
      EvolveHorizontalWorld(DisjointContexts(), WorldLexicon(), config);
  Result<std::vector<TransactionSet>> b =
      EvolveHorizontalWorld(DisjointContexts(), WorldLexicon(), config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(HorizontalTest, SingleCuisineWorks) {
  std::vector<CuisineContext> contexts = {DisjointContexts()[0]};
  HorizontalConfig config;
  config.migration_prob = 0.5;  // No donors available; stays local.
  Result<std::vector<TransactionSet>> world =
      EvolveHorizontalWorld(contexts, WorldLexicon(), config);
  ASSERT_TRUE(world.ok());
  EXPECT_EQ((*world)[0].size(), 200u);
}

TEST(HorizontalTest, InvalidInputsRejected) {
  HorizontalConfig config;
  EXPECT_FALSE(EvolveHorizontalWorld({}, WorldLexicon(), config).ok());

  config.migration_prob = 1.5;
  EXPECT_FALSE(
      EvolveHorizontalWorld(DisjointContexts(), WorldLexicon(), config)
          .ok());

  config.migration_prob = 0.1;
  std::vector<CuisineContext> bad = DisjointContexts();
  bad[0].target_recipes = 0;
  EXPECT_FALSE(EvolveHorizontalWorld(bad, WorldLexicon(), config).ok());
}

}  // namespace
}  // namespace culevo
