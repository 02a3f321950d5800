// Tests for the flat-arena model-simulation engine: RecipeStore semantics,
// fixed-seed goldens captured from the seed (pre-rebuild) engine, serial ==
// parallel determinism, and regressions for the three sampling/validation
// bugs fixed alongside the rebuild.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/copy_mutate.h"
#include "core/null_model.h"
#include "core/simulation.h"
#include "lexicon/world_lexicon.h"
#include "model_test_util.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace culevo {
namespace {

// ---------------------------------------------------------------------------
// RecipeStore unit tests.

TEST(RecipeStoreTest, BuildsRecipesThroughOpenProtocol) {
  RecipeStore store;
  store.Reset(2, 5);
  EXPECT_TRUE(store.empty());

  store.BeginRecipe();
  store.AppendToOpen(3);
  store.AppendToOpen(1);
  EXPECT_EQ(store.open_size(), 2u);
  store.Commit();

  store.BeginRecipe();
  store.AppendToOpen(7);
  store.Commit();

  ASSERT_EQ(store.num_recipes(), 2u);
  EXPECT_EQ(store.num_items(), 3u);
  EXPECT_EQ(std::vector<PoolPos>(store.recipe(0).begin(),
                                 store.recipe(0).end()),
            (std::vector<PoolPos>{3, 1}));
  EXPECT_EQ(std::vector<PoolPos>(store.recipe(1).begin(),
                                 store.recipe(1).end()),
            (std::vector<PoolPos>{7}));
}

TEST(RecipeStoreTest, BeginRecipeFromCopiesMother) {
  RecipeStore store;
  store.Reset(4, 16);
  store.BeginRecipe();
  for (PoolPos p : {5, 9, 2}) store.AppendToOpen(p);
  store.Commit();

  store.BeginRecipeFrom(0);
  ASSERT_EQ(store.open_size(), 3u);
  store.open()[1] = 11;  // Mutate the copy; the mother must not change.
  store.Commit();

  EXPECT_EQ(std::vector<PoolPos>(store.recipe(0).begin(),
                                 store.recipe(0).end()),
            (std::vector<PoolPos>{5, 9, 2}));
  EXPECT_EQ(std::vector<PoolPos>(store.recipe(1).begin(),
                                 store.recipe(1).end()),
            (std::vector<PoolPos>{5, 11, 2}));
}

TEST(RecipeStoreTest, BeginRecipeFromSurvivesReallocation) {
  // Start from a store with no spare capacity so the tail copy reallocates
  // mid-operation (the classic self-insertion hazard).
  RecipeStore store;
  store.Reset(1, 0);
  store.BeginRecipe();
  for (PoolPos p = 0; p < 64; ++p) store.AppendToOpen(p);
  store.Commit();
  for (int round = 0; round < 6; ++round) {
    store.BeginRecipeFrom(store.num_recipes() - 1);
    store.Commit();
  }
  for (size_t i = 0; i < store.num_recipes(); ++i) {
    ASSERT_EQ(store.recipe(i).size(), 64u);
    for (PoolPos p = 0; p < 64; ++p) EXPECT_EQ(store.recipe(i)[p], p);
  }
}

TEST(RecipeStoreTest, EraseFromOpenPreservesOrder) {
  RecipeStore store;
  store.Reset(1, 4);
  store.BeginRecipe();
  for (PoolPos p : {4, 8, 15, 16}) store.AppendToOpen(p);
  store.EraseFromOpen(1);
  store.Commit();
  EXPECT_EQ(std::vector<PoolPos>(store.recipe(0).begin(),
                                 store.recipe(0).end()),
            (std::vector<PoolPos>{4, 15, 16}));
}

TEST(RecipeStoreTest, ResetRewinds) {
  RecipeStore store;
  store.Reset(1, 3);
  store.BeginRecipe();
  store.AppendToOpen(2);
  store.Commit();
  store.Reset(2, 6);
  EXPECT_EQ(store.num_recipes(), 0u);
  EXPECT_EQ(store.num_items(), 0u);
}

// ---------------------------------------------------------------------------
// Fixed-seed goldens. Curves and recipe-pool hashes below were captured
// from the seed engine (pre-rebuild, commit 7f8afb5) on the same context;
// the flat engine must reproduce them bit-for-bit because it consumes the
// RNG stream draw-for-draw identically.

CuisineContext GoldenContext() {
  CuisineContext context;
  context.cuisine = 0;
  for (IngredientId id = 0; id < 300; ++id) context.ingredients.push_back(id);
  context.popularity.assign(300, 0.5);
  context.mean_recipe_size = 9;
  context.target_recipes = 2000;
  context.phi = 300.0 / 2000.0;
  return context;
}

uint64_t HashRecipes(const TransactionSet& recipes) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a 64.
  for (size_t i = 0; i < recipes.size(); ++i) {
    for (Item id : recipes.transaction(i)) {
      h ^= static_cast<uint64_t>(id) + 1;
      h *= 1099511628211ull;
    }
    h ^= 0xFFull;
    h *= 1099511628211ull;
  }
  return h;
}

struct ModelGolden {
  const char* name;
  uint64_t recipe_hash;  // GenerateInto() at seed 7 on GoldenContext.
  size_t ingredient_curve_size;
  size_t category_curve_size;
  std::vector<double> ingredient_head;
  std::vector<double> category_head;
};

const std::vector<ModelGolden>& Goldens() {
  static const std::vector<ModelGolden>* goldens = new std::vector<
      ModelGolden>{
      {"CM-R",
       0x2d6329305d0d0ad4ull,
       485,
       392,
       {0.515625, 0.47000000000000008, 0.45343749999999999,
        0.43125000000000002, 0.41350000000000003, 0.40062499999999995,
        0.38800000000000001, 0.36449999999999994},
       {0.93950000000000011, 0.88406249999999997, 0.86493750000000003,
        0.77524999999999999, 0.74800000000000011, 0.72818749999999999}},
      {"CM-C",
       0x33f727f483f70e34ull,
       410,
       423,
       {0.55693750000000009, 0.51056250000000003, 0.47462500000000002,
        0.44493749999999999, 0.41506250000000006, 0.40218749999999992,
        0.36925000000000002, 0.33700000000000002},
       {0.97368750000000004, 0.92799999999999994, 0.91143750000000001,
        0.83412500000000001, 0.82156249999999997, 0.78075000000000006}},
      {"CM-M",
       0x7fa90fa5f7841098ull,
       359,
       411,
       {0.53793750000000007, 0.49012500000000003, 0.46106249999999993,
        0.42587499999999995, 0.40562500000000001, 0.39537500000000003,
        0.36075000000000007, 0.33918749999999998},
       {0.94862500000000016, 0.90525000000000011, 0.87381249999999988,
        0.78306249999999999, 0.77268749999999997, 0.74275000000000002}},
      {"NM",
       0xabf9b9bf0ca8fdaeull,
       59,
       317,
       {0.12406249999999999, 0.12093749999999998, 0.11856250000000002,
        0.1166875, 0.11568750000000001, 0.11487499999999999, 0.1140625,
        0.1136875},
       {0.91062499999999991, 0.78443750000000001, 0.74956250000000002,
        0.71043749999999994, 0.69737500000000008, 0.66849999999999998}},
  };
  return *goldens;
}

class GoldenModels {
 public:
  GoldenModels()
      : lexicon_(WorldLexicon()),
        cmr_(MakeCmR(&lexicon_)),
        cmc_(MakeCmC(&lexicon_)),
        cmm_(MakeCmM(&lexicon_)) {}

  const Lexicon& lexicon() const { return lexicon_; }

  const EvolutionModel& by_name(const std::string& name) const {
    if (name == "CM-R") return *cmr_;
    if (name == "CM-C") return *cmc_;
    if (name == "CM-M") return *cmm_;
    return nm_;
  }

 private:
  const Lexicon& lexicon_;
  std::unique_ptr<CopyMutateModel> cmr_;
  std::unique_ptr<CopyMutateModel> cmc_;
  std::unique_ptr<CopyMutateModel> cmm_;
  NullModel nm_;
};

TEST(ModelEngineGoldenTest, ReproducesSeedEngineRecipePools) {
  const GoldenModels models;
  const CuisineContext context = GoldenContext();
  for (const ModelGolden& golden : Goldens()) {
    const Result<TransactionSet> recipes =
        GenerateRecipes(models.by_name(golden.name), context, 7);
    ASSERT_TRUE(recipes.ok());
    EXPECT_EQ(HashRecipes(*recipes), golden.recipe_hash) << golden.name;
  }
}

TEST(ModelEngineGoldenTest, ReproducesSeedEngineCurves) {
  const GoldenModels models;
  const CuisineContext context = GoldenContext();
  SimulationConfig config;
  config.replicas = 8;
  config.seed = 42;
  for (const ModelGolden& golden : Goldens()) {
    Result<SimulationResult> result = RunSimulation(
        models.by_name(golden.name), context, models.lexicon(), config);
    ASSERT_TRUE(result.ok()) << golden.name;
    ASSERT_EQ(result->ingredient_curve.size(), golden.ingredient_curve_size)
        << golden.name;
    ASSERT_EQ(result->category_curve.size(), golden.category_curve_size)
        << golden.name;
    for (size_t i = 0; i < golden.ingredient_head.size(); ++i) {
      EXPECT_EQ(result->ingredient_curve.values()[i],
                golden.ingredient_head[i])
          << golden.name << " ingredient rank " << i;
    }
    for (size_t i = 0; i < golden.category_head.size(); ++i) {
      EXPECT_EQ(result->category_curve.values()[i], golden.category_head[i])
          << golden.name << " category rank " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Seeded determinism: serial and thread-pool runs must agree bit-for-bit
// for every model (replica k is seeded via DeriveSeed regardless of which
// worker runs it).

TEST(ModelEngineTest, SerialEqualsParallelForAllModels) {
  const GoldenModels models;
  CuisineContext context = GoldenContext();
  context.target_recipes = 400;  // Keep the 4-model sweep fast.
  context.phi = 300.0 / 400.0;
  SimulationConfig config;
  config.replicas = 6;
  config.seed = 11;
  ThreadPool pool(4);
  for (const char* name : {"CM-R", "CM-C", "CM-M", "NM"}) {
    const EvolutionModel& model = models.by_name(name);
    Result<SimulationResult> serial =
        RunSimulation(model, context, models.lexicon(), config, nullptr);
    Result<SimulationResult> parallel =
        RunSimulation(model, context, models.lexicon(), config, &pool);
    ASSERT_TRUE(serial.ok()) << name;
    ASSERT_TRUE(parallel.ok()) << name;
    EXPECT_EQ(serial->ingredient_curve.values(),
              parallel->ingredient_curve.values())
        << name;
    EXPECT_EQ(serial->category_curve.values(),
              parallel->category_curve.values())
        << name;
    ASSERT_EQ(serial->replica_ingredient_curves.size(),
              parallel->replica_ingredient_curves.size());
    for (size_t k = 0; k < serial->replica_ingredient_curves.size(); ++k) {
      EXPECT_EQ(serial->replica_ingredient_curves[k].values(),
                parallel->replica_ingredient_curves[k].values())
          << name << " replica " << k;
    }
  }
}

TEST(ModelEngineTest, GenerateEmitsMetrics) {
  const GoldenModels models;
  CuisineContext context = GoldenContext();
  context.target_recipes = 100;
  context.phi = 3.0;
  obs::Counter* recipes_c =
      obs::MetricsRegistry::Get().counter("sim.generate.recipes");
  const int64_t before = recipes_c->Value();
  RecipeStore store;
  ASSERT_TRUE(
      models.by_name("CM-R").GenerateInto(context, 3, &store).ok());
  EXPECT_EQ(recipes_c->Value(), before + 100);
}

// ---------------------------------------------------------------------------
// Bugfix regressions.

// The seed engine fed mean_recipe_size == 0 straight into the mutation
// loop, where an empty recipe meant NextBounded(0) and an out-of-bounds
// read in release builds.
TEST(ModelEngineRegressionTest, ZeroMeanRecipeSizeIsInvalidArgument) {
  const GoldenModels models;
  CuisineContext context = GoldenContext();
  context.mean_recipe_size = 0;
  for (const char* name : {"CM-R", "NM"}) {
    const Status status =
        GenerateRecipes(models.by_name(name), context, 1).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << name;
  }
}

// The seed engine stored pool positions as uint16_t behind an unchecked
// narrowing cast: on a context of more than 65,535 ingredients, positions
// past 65,535 silently wrapped to the low positions. PoolPos is 16 bits
// again, so no position may be narrowed: the widest context a position
// indexes (65,535 distinct ids, every valid IngredientId) still reaches its
// top positions, and a longer one is refused before any position is drawn.
TEST(ModelEngineRegressionTest, WideContextsKeepHighPositions) {
  constexpr size_t kTotal = 65535;
  CuisineContext context;
  context.cuisine = 0;
  context.ingredients.resize(kTotal);
  for (size_t p = 0; p < kTotal; ++p) {
    context.ingredients[p] = static_cast<IngredientId>(p);
  }
  context.popularity.assign(kTotal, 0.5);
  context.mean_recipe_size = 40;
  context.target_recipes = 100;
  context.phi = 0.5;

  const NullModel model(static_cast<int>(kTotal));
  RecipeStore store;
  ASSERT_TRUE(model.GenerateInto(context, 21, &store).ok());
  ASSERT_EQ(store.num_recipes(), 100u);
  bool saw_high_position = false;
  for (size_t i = 0; i < store.num_recipes(); ++i) {
    for (PoolPos pos : store.recipe(i)) {
      ASSERT_LT(pos, kTotal);
      saw_high_position |= (pos >= 65000);
    }
  }
  // 100 recipes x 40 draws over 65,535 positions, 535 of them high:
  // P(no high draw) < 1e-13.
  EXPECT_TRUE(saw_high_position);

  // Longer contexts must repeat ids (here in the seed engine's wrap layout:
  // entries past the first 65,536 hold another id), and the models refuse
  // them before touching the store.
  const GoldenModels models;
  for (const size_t wide : {size_t{65536}, size_t{66000}}) {
    context.ingredients.resize(wide);
    for (size_t p = 0; p < wide; ++p) {
      context.ingredients[p] = (p < 65536) ? 7 : 9;
    }
    context.popularity.assign(wide, 0.5);
    for (const char* name : {"CM-R", "NM"}) {
      RecipeStore refused;
      const Status status =
          models.by_name(name).GenerateInto(context, 21, &refused);
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << name << " on " << wide << " entries";
      EXPECT_TRUE(refused.empty()) << name << " on " << wide << " entries";
      EXPECT_EQ(refused.num_items(), 0u) << name << " on " << wide;
    }
  }
}

}  // namespace
}  // namespace culevo
