#include "core/simulation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/rank_frequency.h"
#include "core/copy_mutate.h"
#include "core/null_model.h"
#include "lexicon/world_lexicon.h"
#include "synth/generator.h"
#include "util/rng.h"

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

/// 300 ingredients (ids 0, stride, 2 x stride, ...) with s̄ 9 and `recipes`
/// target recipes: with stride 1, the shape of model_engine_test's golden
/// context.
CuisineContext WideContext(size_t recipes, IngredientId stride) {
  CuisineContext context;
  context.cuisine = 0;
  for (IngredientId p = 0; p < 300; ++p) {
    context.ingredients.push_back(static_cast<IngredientId>(p * stride));
  }
  context.popularity.assign(300, 0.5);
  context.mean_recipe_size = 9;
  context.target_recipes = recipes;
  context.phi = 300.0 / static_cast<double>(recipes);
  return context;
}

// RunSimulation mines each replica's store over pool positions; the
// reference projection (StoreTransactions, StoreCategoryTransactions) mines
// sorted ingredient ids. Both must give the same curves bit for bit, on the
// golden shape (2,000 recipes: 32 words x 300 items, inside Eclat's direct
// root grid) and on 8,000 recipes (125 words x 300 items, past the grid's
// 2^15 words, so the ingredient side takes the count-then-fill build). On
// the golden ids a position equals its id; stride 2 makes them differ.
TEST(RunSimulationTest, StoreMiningMatchesReferenceProjection) {
  const Lexicon& lexicon = WorldLexicon();
  const auto cmr = MakeCmR(&lexicon);
  const auto cmc = MakeCmC(&lexicon);
  const auto cmm = MakeCmM(&lexicon);
  const NullModel nm;
  SimulationConfig config;
  config.replicas = 3;
  config.seed = 42;
  for (const auto& [recipes, stride] :
       {std::pair<size_t, IngredientId>{2000, 1}, {8000, 1}, {8000, 2}}) {
    const CuisineContext context = WideContext(recipes, stride);
    for (const EvolutionModel* model :
         {static_cast<const EvolutionModel*>(cmr.get()),
          static_cast<const EvolutionModel*>(cmc.get()),
          static_cast<const EvolutionModel*>(cmm.get()),
          static_cast<const EvolutionModel*>(&nm)}) {
      const std::string label = model->name() + " on " +
                                std::to_string(recipes) + " recipes, stride " +
                                std::to_string(stride);
      Result<SimulationResult> result =
          RunSimulation(*model, context, lexicon, config);
      ASSERT_TRUE(result.ok()) << label;
      ASSERT_EQ(result->replica_ingredient_curves.size(), 3u) << label;
      std::vector<RankFrequency> ingredient_curves;
      std::vector<RankFrequency> category_curves;
      for (int k = 0; k < config.replicas; ++k) {
        RecipeStore store;
        ASSERT_TRUE(model
                        ->GenerateInto(context, DeriveSeed(config.seed, k),
                                       &store)
                        .ok());
        ingredient_curves.push_back(CombinationCurve(
            StoreTransactions(store, context.ingredients), config.mining));
        category_curves.push_back(CombinationCurve(
            StoreCategoryTransactions(store, context.ingredients, lexicon),
            config.mining));
        EXPECT_FALSE(ingredient_curves.back().empty()) << label;
        EXPECT_EQ(result->replica_ingredient_curves[k].values(),
                  ingredient_curves.back().values())
            << label << ", replica " << k;
      }
      EXPECT_EQ(result->ingredient_curve.values(),
                AverageRankFrequencies(ingredient_curves).values())
          << label;
      EXPECT_EQ(result->category_curve.values(),
                AverageRankFrequencies(category_curves).values())
          << label;
    }
  }
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
