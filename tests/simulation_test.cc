#include "core/simulation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "core/copy_mutate.h"
#include "core/null_model.h"
#include "lexicon/world_lexicon.h"
#include "synth/generator.h"

namespace culevo {
namespace {

CuisineContext SmallContext() {
  CuisineContext context;
  context.cuisine = 0;
  const Lexicon& lexicon = WorldLexicon();
  for (IngredientId id = 0; id < 120; ++id) {
    context.ingredients.push_back(id);
  }
  context.popularity.assign(120, 0.5);
  context.mean_recipe_size = 7;
  context.target_recipes = 240;
  context.phi = 0.5;
  (void)lexicon;
  return context;
}

/// A store holding `recipes` as context positions, in draw order.
RecipeStore StoreOf(const std::vector<std::vector<PoolPos>>& recipes) {
  RecipeStore store;
  store.Reset(recipes.size(), 0);
  for (const std::vector<PoolPos>& recipe : recipes) {
    store.BeginRecipe();
    for (PoolPos pos : recipe) store.AppendToOpen(pos);
    store.Commit();
  }
  return store;
}

std::vector<Item> ToVector(std::span<const Item> items) {
  return {items.begin(), items.end()};
}

TEST(StoreTransactionsTest, PreservesRecipes) {
  const std::vector<IngredientId> ingredients = {1, 2, 3, 5};
  const TransactionSet transactions =
      StoreTransactions(StoreOf({{2, 0, 1}, {3, 1}}), ingredients);
  ASSERT_EQ(transactions.size(), 2u);
  EXPECT_EQ(ToVector(transactions.transaction(0)),
            (std::vector<Item>{1, 2, 3}));
  EXPECT_EQ(ToVector(transactions.transaction(1)), (std::vector<Item>{2, 5}));
}

TEST(StoreCategoryTransactionsTest, ProjectsViaLexicon) {
  const Lexicon& lexicon = WorldLexicon();
  const IngredientId basil = *lexicon.Find("Basil");    // Herb.
  const IngredientId mint = *lexicon.Find("Mint");      // Herb.
  const IngredientId salt = *lexicon.Find("Salt");      // Additive.
  std::vector<IngredientId> ingredients = {basil, mint, salt};
  std::sort(ingredients.begin(), ingredients.end());
  const TransactionSet transactions =
      StoreCategoryTransactions(StoreOf({{0, 1, 2}}), ingredients, lexicon);
  ASSERT_EQ(transactions.size(), 1u);
  EXPECT_EQ(transactions.transaction(0).size(), 2u);  // Herb + Additive.
}

TEST(RunSimulationTest, AggregatesReplicas) {
  const Lexicon& lexicon = WorldLexicon();
  const NullModel model;
  SimulationConfig config;
  config.replicas = 4;
  config.seed = 9;
  Result<SimulationResult> result =
      RunSimulation(model, SmallContext(), lexicon, config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->replica_ingredient_curves.size(), 4u);
  EXPECT_FALSE(result->ingredient_curve.empty());
  EXPECT_FALSE(result->category_curve.empty());
}

TEST(RunSimulationTest, DeterministicAcrossRuns) {
  const Lexicon& lexicon = WorldLexicon();
  const auto model = MakeCmR(&lexicon);
  SimulationConfig config;
  config.replicas = 3;
  config.seed = 5;
  Result<SimulationResult> a =
      RunSimulation(*model, SmallContext(), lexicon, config);
  Result<SimulationResult> b =
      RunSimulation(*model, SmallContext(), lexicon, config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->ingredient_curve.values(), b->ingredient_curve.values());
}

TEST(RunSimulationTest, ParallelEqualsSerial) {
  const Lexicon& lexicon = WorldLexicon();
  const auto model = MakeCmM(&lexicon);
  SimulationConfig config;
  config.replicas = 6;
  config.seed = 11;
  Result<SimulationResult> serial =
      RunSimulation(*model, SmallContext(), lexicon, config, nullptr);
  ThreadPool pool(4);
  Result<SimulationResult> parallel =
      RunSimulation(*model, SmallContext(), lexicon, config, &pool);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(serial->ingredient_curve.values(),
            parallel->ingredient_curve.values());
  EXPECT_EQ(serial->category_curve.values(),
            parallel->category_curve.values());
}

TEST(RunSimulationTest, ReplicasDiffer) {
  const Lexicon& lexicon = WorldLexicon();
  const auto model = MakeCmR(&lexicon);
  SimulationConfig config;
  config.replicas = 2;
  Result<SimulationResult> result =
      RunSimulation(*model, SmallContext(), lexicon, config);
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result->replica_ingredient_curves[0].values(),
            result->replica_ingredient_curves[1].values());
}

TEST(RunSimulationTest, InvalidConfigRejected) {
  const Lexicon& lexicon = WorldLexicon();
  const NullModel model;
  SimulationConfig config;
  config.replicas = 0;
  EXPECT_FALSE(
      RunSimulation(model, SmallContext(), lexicon, config).ok());
}

// Every run manifest carries this hash, so a changed value would make
// every existing journal refuse to resume.
TEST(HashMiningConfigTest, PinnedValues) {
  EXPECT_EQ(HashMiningConfig(CombinationConfig{}), 0x6cff1387e3605d73ull);
  CombinationConfig ten_percent;
  ten_percent.min_relative_support = 0.1;
  EXPECT_EQ(HashMiningConfig(ten_percent), 0x6c321387e3605d73ull);
  // A cancel token is execution detail, not part of the identity.
  CancelToken token;
  CombinationConfig cancellable;
  cancellable.cancel = &token;
  EXPECT_EQ(HashMiningConfig(cancellable), 0x6cff1387e3605d73ull);
}

TEST(RunSimulationTest, PropagatesModelErrors) {
  const Lexicon& lexicon = WorldLexicon();
  const NullModel model;
  CuisineContext bad = SmallContext();
  bad.phi = 0.0;
  SimulationConfig config;
  config.replicas = 2;
  EXPECT_FALSE(RunSimulation(model, bad, lexicon, config).ok());
}

}  // namespace
}  // namespace culevo
