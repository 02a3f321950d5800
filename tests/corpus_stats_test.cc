#include "corpus/corpus_stats.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <string>
#include <vector>

#include "corpus/corpus_snapshot.h"
#include "corpus/ingestion.h"
#include "lexicon/world_lexicon.h"
#include "synth/generator.h"
#include "testing/corpus_stats_reference.h"
#include "util/rng.h"

namespace culevo {
namespace {

TEST(CorpusStatsTest, PerCuisineStatistics) {
  RecipeCorpus::Builder builder;
  ASSERT_TRUE(builder.Add(0, {1, 2}).ok());
  ASSERT_TRUE(builder.Add(0, {1, 2, 3, 4}).ok());
  ASSERT_TRUE(builder.Add(3, {9, 10, 11}).ok());
  const RecipeCorpus corpus = builder.Build();

  const std::vector<CuisineStats> stats = ComputeCuisineStats(corpus);
  ASSERT_EQ(stats.size(), static_cast<size_t>(kNumCuisines));

  EXPECT_EQ(stats[0].num_recipes, 2u);
  EXPECT_EQ(stats[0].num_unique_ingredients, 4u);
  EXPECT_DOUBLE_EQ(stats[0].mean_recipe_size, 3.0);
  EXPECT_EQ(stats[0].min_recipe_size, 2);
  EXPECT_EQ(stats[0].max_recipe_size, 4);
  ASSERT_GE(stats[0].size_histogram.size(), 5u);
  EXPECT_EQ(stats[0].size_histogram[2], 1u);
  EXPECT_EQ(stats[0].size_histogram[4], 1u);
  EXPECT_EQ(stats[0].size_histogram[3], 0u);

  EXPECT_EQ(stats[3].num_recipes, 1u);
  EXPECT_EQ(stats[1].num_recipes, 0u);
  EXPECT_TRUE(stats[1].size_histogram.empty());
}

TEST(CorpusStatsTest, AggregateHistogram) {
  RecipeCorpus::Builder builder;
  ASSERT_TRUE(builder.Add(0, {1, 2}).ok());
  ASSERT_TRUE(builder.Add(5, {1, 2}).ok());
  ASSERT_TRUE(builder.Add(7, {1, 2, 3}).ok());
  const RecipeCorpus corpus = builder.Build();

  const std::vector<size_t> histogram = AggregateSizeHistogram(corpus);
  ASSERT_EQ(histogram.size(), 4u);
  EXPECT_EQ(histogram[2], 2u);
  EXPECT_EQ(histogram[3], 1u);
  EXPECT_EQ(histogram[0], 0u);
}

TEST(CorpusStatsTest, EmptyCorpus) {
  const RecipeCorpus corpus;
  EXPECT_TRUE(AggregateSizeHistogram(corpus).empty());
  const std::vector<CuisineStats> stats = ComputeCuisineStats(corpus);
  for (const CuisineStats& s : stats) EXPECT_EQ(s.num_recipes, 0u);
}

// ---------------------------------------------------------------------------
// The statistics read off a corpus's size histograms against the
// recipe-walking reference, bit for bit, on every construction path.

/// ComputeCuisineStats (both forms), MeanRecipeSize and
/// AggregateSizeHistogram of `corpus` against the reference walk.
void ExpectStatsMatchReference(const RecipeCorpus& corpus) {
  const std::vector<CuisineStats> expected = ReferenceCuisineStats(corpus);
  const std::vector<CuisineStats> actual = ComputeCuisineStats(corpus);
  ASSERT_EQ(actual.size(), expected.size());
  for (int c = 0; c < kNumCuisines; ++c) {
    SCOPED_TRACE("cuisine " + std::to_string(c));
    const CuisineId cuisine = static_cast<CuisineId>(c);
    const CuisineStats& want = expected[static_cast<size_t>(c)];
    for (const CuisineStats& got : {actual[static_cast<size_t>(c)],
                                    ComputeCuisineStats(corpus, cuisine)}) {
      EXPECT_EQ(got.cuisine, want.cuisine);
      EXPECT_EQ(got.num_recipes, want.num_recipes);
      EXPECT_EQ(got.num_unique_ingredients, want.num_unique_ingredients);
      EXPECT_EQ(std::bit_cast<uint64_t>(got.mean_recipe_size),
                std::bit_cast<uint64_t>(want.mean_recipe_size));
      EXPECT_EQ(got.min_recipe_size, want.min_recipe_size);
      EXPECT_EQ(got.max_recipe_size, want.max_recipe_size);
      EXPECT_EQ(got.size_histogram, want.size_histogram);
    }
    EXPECT_EQ(std::bit_cast<uint64_t>(corpus.MeanRecipeSize(cuisine)),
              std::bit_cast<uint64_t>(want.mean_recipe_size));
  }
  EXPECT_EQ(AggregateSizeHistogram(corpus), ReferenceSizeHistogram(corpus));
}

/// `num_recipes` random recipes over `cuisines` cuisines (the others stay
/// empty), of 1 to `max_size` ids below `universe` before dedup.
RecipeCorpus RandomCorpus(uint64_t seed, int num_recipes, int cuisines,
                          int max_size, int universe) {
  Rng rng(seed);
  RecipeCorpus::Builder builder;
  for (int i = 0; i < num_recipes; ++i) {
    std::vector<IngredientId> ids;
    const size_t size = 1 + rng.NextBounded(static_cast<uint64_t>(max_size));
    for (size_t k = 0; k < size; ++k) {
      ids.push_back(static_cast<IngredientId>(
          rng.NextBounded(static_cast<uint64_t>(universe))));
    }
    EXPECT_TRUE(builder
                    .Add(static_cast<CuisineId>(rng.NextBounded(
                             static_cast<uint64_t>(cuisines))),
                         ids)
                    .ok());
  }
  return builder.Build();
}

/// Built corpora of every shape the tests use, from none to wide recipes.
std::vector<RecipeCorpus> BuiltCorpora() {
  std::vector<RecipeCorpus> corpora;
  corpora.push_back(RecipeCorpus());
  corpora.push_back(RecipeCorpus::Builder().Build());
  RecipeCorpus::Builder one;
  EXPECT_TRUE(one.Add(24, {700, 3, 3}).ok());
  corpora.push_back(one.Build());
  corpora.push_back(RandomCorpus(1, 300, 6, 9, 120));
  corpora.push_back(RandomCorpus(2, 500, kNumCuisines, 40, 721));
  corpora.push_back(RandomCorpus(3, 80, 2, 300, 400));
  return corpora;
}

TEST(CorpusStatsReferenceTest, BuiltCorporaMatchTheWalk) {
  for (const RecipeCorpus& corpus : BuiltCorpora()) {
    SCOPED_TRACE(std::to_string(corpus.num_recipes()) + " recipes");
    ExpectStatsMatchReference(corpus);
  }
}

TEST(CorpusStatsReferenceTest, LoadedCorporaMatchTheWalk) {
  const std::string path = testing::TempDir() + "culevo_stats_reference.bin";
  for (const RecipeCorpus& corpus : BuiltCorpora()) {
    SCOPED_TRACE(std::to_string(corpus.num_recipes()) + " recipes");
    ASSERT_TRUE(WriteCorpusSnapshot(path, corpus, {.sync = false}).ok());
    for (const bool mmap : {true, false}) {
      Result<LoadedCorpusSnapshot> loaded =
          LoadCorpusSnapshot(path, {.allow_mmap = mmap});
      ASSERT_TRUE(loaded.ok()) << loaded.status();
      EXPECT_EQ(loaded->memory_mapped, mmap);
      ExpectStatsMatchReference(loaded->corpus);
    }
  }
  std::remove(path.c_str());
}

// An extension starts from the prefix corpus's histograms and counts only
// the appended recipes into them; a second extension starts from the
// first one's.
TEST(CorpusStatsReferenceTest, ExtendedCorporaMatchTheWalk) {
  const RecipeCorpus all = RandomCorpus(4, 400, 7, 12, 200);
  const uint32_t n = static_cast<uint32_t>(all.num_recipes());
  const auto add = [&all](IncrementalCorpus& incremental, uint32_t from,
                          uint32_t to) {
    for (uint32_t r = from; r < to; ++r) {
      ASSERT_TRUE(
          incremental.Add(all.cuisine_of(r), all.ingredients_of(r)).ok());
    }
  };
  for (const uint32_t base_n : {0u, n / 2, n}) {
    SCOPED_TRACE("base of " + std::to_string(base_n) + " recipes");
    RecipeCorpus::Builder builder;
    for (uint32_t r = 0; r < base_n; ++r) {
      ASSERT_TRUE(builder.Add(all.cuisine_of(r), all.ingredients_of(r)).ok());
    }
    IncrementalCorpus incremental =
        IncrementalCorpus::FromCorpus(builder.Build());
    const uint32_t middle = base_n + (n - base_n) / 2;
    add(incremental, base_n, middle);
    Result<RecipeCorpus> once = incremental.Materialize();
    ASSERT_TRUE(once.ok()) << once.status();
    ExpectStatsMatchReference(*once);
    IncrementalCorpus again = IncrementalCorpus::FromCorpus(*once);
    add(again, middle, n);
    Result<RecipeCorpus> twice = std::move(again).Materialize();
    ASSERT_TRUE(twice.ok()) << twice.status();
    ExpectStatsMatchReference(*twice);
  }
}

// The scale-1.0 world, built and loaded: large enough for the load's
// validating pass to split into ranges whose histograms are added up.
TEST(CorpusStatsReferenceTest, WorldMatchesTheWalk) {
  Result<RecipeCorpus> world = SynthesizeWorldCorpus(WorldLexicon());
  ASSERT_TRUE(world.ok()) << world.status();
  ExpectStatsMatchReference(*world);
  const std::string path = testing::TempDir() + "culevo_stats_world.bin";
  ASSERT_TRUE(WriteCorpusSnapshot(path, *world, {.sync = false}).ok());
  Result<LoadedCorpusSnapshot> loaded = LoadCorpusSnapshot(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectStatsMatchReference(loaded->corpus);
}

}  // namespace
}  // namespace culevo
