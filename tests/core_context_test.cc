#include "core/evolution_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/copy_mutate.h"
#include "core/null_model.h"
#include "corpus/corpus_snapshot.h"
#include "corpus/ingestion.h"
#include "lexicon/world_lexicon.h"
#include "synth/generator.h"
#include "util/rng.h"

namespace culevo {
namespace {

/// Algorithm 1's inputs for `cuisine`, counted by brute force: each id of
/// every recipe of the corpus goes into an ordered map, without the
/// cuisine shards or the cached unique lists.
CuisineContext ReferenceContext(const RecipeCorpus& corpus,
                                CuisineId cuisine) {
  std::map<IngredientId, size_t> counts;
  size_t recipes = 0;
  size_t mentions = 0;
  for (uint32_t i = 0; i < corpus.num_recipes(); ++i) {
    const RecipeView recipe = corpus.recipe(i);
    if (recipe.cuisine != cuisine) continue;
    ++recipes;
    mentions += recipe.size();
    for (IngredientId id : recipe.ingredients) ++counts[id];
  }
  CuisineContext context;
  context.cuisine = cuisine;
  context.target_recipes = recipes;
  for (const auto& [id, count] : counts) {
    context.ingredients.push_back(id);
    context.popularity.push_back(static_cast<double>(count) /
                                 static_cast<double>(recipes));
  }
  context.phi =
      static_cast<double>(counts.size()) / static_cast<double>(recipes);
  context.mean_recipe_size = std::max(
      1, static_cast<int>(std::lround(static_cast<double>(mentions) /
                                      static_cast<double>(recipes))));
  return context;
}

std::vector<uint64_t> Bits(const std::vector<double>& values) {
  std::vector<uint64_t> bits;
  for (double v : values) bits.push_back(std::bit_cast<uint64_t>(v));
  return bits;
}

/// Every cuisine's context equals the reference bit for bit; an empty
/// cuisine is refused.
void ExpectContextsMatchReference(const RecipeCorpus& corpus) {
  for (int c = 0; c < kNumCuisines; ++c) {
    const CuisineId cuisine = static_cast<CuisineId>(c);
    SCOPED_TRACE("cuisine " + std::string(CuisineAt(cuisine).code));
    const CuisineContext want = ReferenceContext(corpus, cuisine);
    const Result<CuisineContext> got = ContextFromCorpus(corpus, cuisine);
    if (want.target_recipes == 0) {
      EXPECT_EQ(got.status().code(), StatusCode::kFailedPrecondition);
      continue;
    }
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->cuisine, cuisine);
    EXPECT_EQ(got->ingredients, want.ingredients);
    EXPECT_EQ(got->target_recipes, want.target_recipes);
    EXPECT_EQ(got->mean_recipe_size, want.mean_recipe_size);
    EXPECT_EQ(std::bit_cast<uint64_t>(got->phi),
              std::bit_cast<uint64_t>(want.phi));
    EXPECT_EQ(Bits(got->popularity), Bits(want.popularity));
  }
}

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

class ContextReferenceTest : public testing::Test {
 protected:
  void SetUp() override {
    SynthConfig config;
    config.scale = 0.05;
    config.seed = 42;
    Result<RecipeCorpus> world = SynthesizeWorldCorpus(WorldLexicon(), config);
    ASSERT_TRUE(world.ok()) << world.status();
    world_ = std::move(world).value();
  }
  void TearDown() override { std::remove(path_.c_str()); }

  RecipeCorpus world_;
  std::string path_ = testing::TempDir() + "culevo_context_reference.bin";
};

TEST_F(ContextReferenceTest, BuiltWorldMatchesReference) {
  ExpectContextsMatchReference(world_);
}

TEST_F(ContextReferenceTest, LoadedSnapshotMatchesReference) {
  SnapshotWriteOptions write;
  write.sync = false;
  ASSERT_TRUE(WriteCorpusSnapshot(path_, world_, write).ok());
  Result<LoadedCorpusSnapshot> loaded = LoadCorpusSnapshot(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_TRUE(loaded->corpus.borrowed());
  ExpectContextsMatchReference(loaded->corpus);
}

// Appended recipes land at the end of their shards, and one brings an id
// past every id the world uses.
TEST_F(ContextReferenceTest, MaterializedIncrementalCorpusMatchesReference) {
  IncrementalCorpus incremental = IncrementalCorpus::FromCorpus(world_);
  const IngredientId beyond = world_.UniqueIngredients().back() + 40;
  const std::vector<std::pair<CuisineId, std::vector<IngredientId>>> added = {
      {0, {beyond, 3, 1}},
      {0, {world_.ingredients_of(5).begin(), world_.ingredients_of(5).end()}},
      {7, {2, 4, 6, 8}},
      {kNumCuisines - 1, {beyond, 2}},
  };
  for (const auto& [cuisine, ids] : added) {
    ASSERT_TRUE(incremental.Add(cuisine, ids).ok());
  }
  Result<RecipeCorpus> corpus = std::move(incremental).Materialize();
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  ASSERT_EQ(corpus->num_recipes(), world_.num_recipes() + added.size());
  ExpectContextsMatchReference(*corpus);
}

// Cuisine 0's row needs 4 counters; the corpus's largest id is 4000.
TEST(ContextFromCorpusTest, CuisineFarBelowCorpusLargestIdMatchesReference) {
  RecipeCorpus::Builder builder;
  ASSERT_TRUE(builder.Add(0, {1, 2, 3}).ok());
  ASSERT_TRUE(builder.Add(0, {2, 3}).ok());
  ASSERT_TRUE(builder.Add(1, {4000, 2}).ok());
  const RecipeCorpus corpus = builder.Build();
  ExpectContextsMatchReference(corpus);
  Result<CuisineContext> context = ContextFromCorpus(corpus, 0);
  ASSERT_TRUE(context.ok());
  EXPECT_EQ(context->popularity, (std::vector<double>{0.5, 1.0, 1.0}));
}

TEST(ContextFromCorpusTest, SingleRecipeCuisineMatchesReference) {
  RecipeCorpus::Builder builder;
  ASSERT_TRUE(builder.Add(2, {11, 7, 9}).ok());
  ASSERT_TRUE(builder.Add(3, {7, 12}).ok());
  const RecipeCorpus corpus = builder.Build();
  ExpectContextsMatchReference(corpus);
  Result<CuisineContext> context = ContextFromCorpus(corpus, 2);
  ASSERT_TRUE(context.ok());
  EXPECT_EQ(context->target_recipes, 1u);
  EXPECT_EQ(context->ingredients, (std::vector<IngredientId>{7, 9, 11}));
  EXPECT_EQ(context->popularity, (std::vector<double>{1.0, 1.0, 1.0}));
  EXPECT_EQ(context->phi, 3.0);
  EXPECT_EQ(context->mean_recipe_size, 3);
}

// Every context a corpus yields is one that every model generates from:
// the premise on which a replica runs once and any replica error fails
// the run. Forty seeded corpora of 25 cuisines, each with 0-30 recipes of
// 1-38 distinct lexicon ids, and in each two fixed edge cuisines: one
// recipe of one ingredient, and recipes that all hold the same 38 ids.
TEST(ContextFromCorpusTest, EveryCorpusContextValidatesAndGenerates) {
  const Lexicon& lexicon = WorldLexicon();
  const auto cm_r = MakeCmR(&lexicon);
  const auto cm_c = MakeCmC(&lexicon);
  const auto cm_m = MakeCmM(&lexicon);
  const NullModel nm;
  const std::vector<const EvolutionModel*> models = {cm_r.get(), cm_c.get(),
                                                     cm_m.get(), &nm};
  std::vector<IngredientId> ids(lexicon.size());
  std::iota(ids.begin(), ids.end(), IngredientId{0});
  const IngredientId last = ids.back();
  ASSERT_EQ(last, 720);
  std::vector<IngredientId> same(ids.begin(), ids.begin() + 37);
  same.push_back(last);

  for (uint64_t corpus_seed = 0; corpus_seed < 40; ++corpus_seed) {
    Rng rng(corpus_seed);
    const int single = static_cast<int>(corpus_seed % kNumCuisines);
    const int repeated = static_cast<int>((corpus_seed + 12) % kNumCuisines);
    RecipeCorpus::Builder builder;
    ASSERT_TRUE(
        builder.Add(single, {corpus_seed % 2 == 0 ? IngredientId{0} : last})
            .ok());
    for (int c = 0; c < kNumCuisines; ++c) {
      if (c == single) continue;
      const uint64_t recipes =
          c == repeated ? 1 + rng.NextBounded(30) : rng.NextBounded(31);
      for (uint64_t r = 0; r < recipes; ++r) {
        if (c == repeated) {
          ASSERT_TRUE(builder.Add(c, same).ok());
          continue;
        }
        // A uniform draw of `size` distinct ids: a partial shuffle.
        const size_t size = 1 + rng.NextBounded(38);
        for (size_t i = 0; i < size; ++i) {
          std::swap(ids[i], ids[i + rng.NextBounded(ids.size() - i)]);
        }
        ASSERT_TRUE(
            builder.Add(c, std::span<const IngredientId>(ids.data(), size))
                .ok());
      }
    }
    const RecipeCorpus corpus = builder.Build();

    for (int c = 0; c < kNumCuisines; ++c) {
      const CuisineId cuisine = static_cast<CuisineId>(c);
      if (corpus.num_recipes_in(cuisine) == 0) continue;
      const std::string where =
          "corpus " + std::to_string(corpus_seed) + ", cuisine " +
          std::to_string(c);
      const Result<CuisineContext> context =
          ContextFromCorpus(corpus, cuisine);
      ASSERT_TRUE(context.ok()) << where << ": " << context.status();
      ASSERT_TRUE(ValidateCuisineContext(*context).ok()) << where;
      for (const EvolutionModel* model : models) {
        for (uint64_t seed = 0; seed < 3; ++seed) {
          RecipeStore store;
          const Status generated = model->GenerateInto(*context, seed, &store);
          ASSERT_TRUE(generated.ok())
              << where << ", " << model->name() << ", seed " << seed << ": "
              << generated;
          EXPECT_EQ(store.num_recipes(), context->target_recipes) << where;
        }
      }
    }
  }
}

}  // namespace
}  // namespace culevo
