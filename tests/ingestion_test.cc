#include "corpus/ingestion.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "corpus/corpus_stats.h"
#include "lexicon/world_lexicon.h"
#include "testing/corpus_stats_reference.h"
#include "util/csv.h"
#include "util/rng.h"

namespace culevo {
namespace {

TEST(ParseRawRecipeTextTest, BlocksSeparatedByBlankLines) {
  const std::vector<RawRecipe> raw = ParseRawRecipeText(
      "# scraped 2026-07-05\n"
      "ITA\n"
      "2 cups tomatoes\n"
      "1 tbsp olive oil\n"
      "\n"
      "JPN\n"
      "1/4 cup soy sauce\n"
      "\n"
      "\n");
  ASSERT_EQ(raw.size(), 2u);
  EXPECT_EQ(raw[0].cuisine_code, "ITA");
  ASSERT_EQ(raw[0].ingredient_lines.size(), 2u);
  EXPECT_EQ(raw[0].ingredient_lines[1], "1 tbsp olive oil");
  EXPECT_EQ(raw[1].cuisine_code, "JPN");
}

TEST(ParseRawRecipeTextTest, EmptyAndCommentOnlyInput) {
  EXPECT_TRUE(ParseRawRecipeText("").empty());
  EXPECT_TRUE(ParseRawRecipeText("# nothing\n\n# more\n").empty());
}

TEST(IngestTest, EndToEndResolution) {
  const std::vector<RawRecipe> raw = {
      {"ITA",
       {"2 cups chopped tomatoes", "1 tbsp olive oil", "3 cloves garlic",
        "a pinch of oregano"}},
      {"JPN", {"1/4 cup soy sauce", "2 tsp grated fresh ginger"}},
  };
  IngestionReport report;
  Result<RecipeCorpus> corpus =
      IngestRawRecipes(raw, WorldLexicon(), &report);
  ASSERT_TRUE(corpus.ok());
  EXPECT_EQ(corpus->num_recipes(), 2u);
  EXPECT_EQ(report.recipes_in, 2u);
  EXPECT_EQ(report.recipes_ingested, 2u);
  EXPECT_EQ(report.recipes_dropped, 0u);
  EXPECT_EQ(report.lines_in, 6u);
  EXPECT_EQ(report.lines_resolved, 6u);
  EXPECT_DOUBLE_EQ(report.line_resolution_rate(), 1.0);

  const Lexicon& lexicon = WorldLexicon();
  const CuisineId ita = CuisineFromCode("ITA").value();
  ASSERT_EQ(corpus->num_recipes_in(ita), 1u);
  const uint32_t index = RecipesOf(*corpus, ita)[0];
  std::vector<std::string> names;
  for (IngredientId id : corpus->ingredients_of(index)) {
    names.push_back(lexicon.name(id));
  }
  EXPECT_NE(std::find(names.begin(), names.end(), "Tomato"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "Olive Oil"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "Garlic"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "Oregano"), names.end());
}

TEST(IngestTest, UnknownCuisineAndUnresolvableRecipesDropped) {
  const std::vector<RawRecipe> raw = {
      {"ATLANTIS", {"1 cup ambrosia"}},
      {"ITA", {"2 scoops unobtainium"}},
      {"ITA", {"1 cup flour"}},
  };
  IngestionReport report;
  Result<RecipeCorpus> corpus =
      IngestRawRecipes(raw, WorldLexicon(), &report);
  ASSERT_TRUE(corpus.ok());
  EXPECT_EQ(corpus->num_recipes(), 1u);
  EXPECT_EQ(report.recipes_dropped, 2u);
  EXPECT_LT(report.line_resolution_rate(), 1.0);
}

TEST(IngestTest, UnresolvedMentionsRankedByFrequency) {
  const std::vector<RawRecipe> raw = {
      {"ITA", {"1 cup dragon scales", "2 cups flour"}},
      {"ITA", {"3 dragon scales", "1 cup sugar"}},
      {"ITA", {"1 moon rock", "1 cup sugar"}},
  };
  IngestionReport report;
  Result<RecipeCorpus> corpus =
      IngestRawRecipes(raw, WorldLexicon(), &report);
  ASSERT_TRUE(corpus.ok());
  ASSERT_GE(report.unresolved_mentions.size(), 2u);
  EXPECT_EQ(report.unresolved_mentions[0].first, "dragon scale");
  EXPECT_EQ(report.unresolved_mentions[0].second, 2u);
}

TEST(IngestTest, ReportIsOptional) {
  const std::vector<RawRecipe> raw = {{"ITA", {"1 cup flour"}}};
  Result<RecipeCorpus> corpus = IngestRawRecipes(raw, WorldLexicon());
  ASSERT_TRUE(corpus.ok());
  EXPECT_EQ(corpus->num_recipes(), 1u);
}

TEST(IngestTest, CompoundIngredientsSurviveParsing) {
  const std::vector<RawRecipe> raw = {
      {"INSC", {"2 tbsp ginger garlic paste", "1 tsp garam masala"}}};
  Result<RecipeCorpus> corpus = IngestRawRecipes(raw, WorldLexicon());
  ASSERT_TRUE(corpus.ok());
  const Lexicon& lexicon = WorldLexicon();
  std::vector<std::string> names;
  for (IngredientId id : corpus->ingredients_of(0)) {
    names.push_back(lexicon.name(id));
  }
  EXPECT_NE(std::find(names.begin(), names.end(), "Ginger Garlic Paste"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "Garam Masala"),
            names.end());
}

// --- IncrementalCorpus: appends must keep every derived structure exactly
// in sync with what a full rebuild would produce.

bool SameStats(const std::vector<CuisineStats>& a,
               const std::vector<CuisineStats>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].cuisine != b[i].cuisine ||
        a[i].num_recipes != b[i].num_recipes ||
        a[i].num_unique_ingredients != b[i].num_unique_ingredients ||
        a[i].mean_recipe_size != b[i].mean_recipe_size ||
        a[i].min_recipe_size != b[i].min_recipe_size ||
        a[i].max_recipe_size != b[i].max_recipe_size ||
        a[i].size_histogram != b[i].size_histogram) {
      return false;
    }
  }
  return true;
}

/// The whole CSR columns of a corpus, each its base segment's values
/// followed by its tail segment's.
struct WholeColumns {
  std::vector<IngredientId> flat;
  std::vector<uint32_t> offsets;
  std::vector<CuisineId> cuisines;
};

WholeColumns Whole(const RecipeCorpus& corpus) {
  WholeColumns whole;
  for (const RecipeCorpus::Segment& segment : corpus.segments()) {
    whole.flat.insert(whole.flat.end(), segment.flat.begin(),
                      segment.flat.end());
    whole.offsets.insert(whole.offsets.end(), segment.offsets.begin(),
                         segment.offsets.end());
    whole.cuisines.insert(whole.cuisines.end(), segment.cuisines.begin(),
                          segment.cuisines.end());
  }
  return whole;
}

/// Materialize hands its own columns and unique lists over instead of
/// rebuilding them, so each must equal what Builder::Build derives.
void ExpectSameCorpus(const RecipeCorpus& actual,
                      const RecipeCorpus& expected) {
  EXPECT_FALSE(actual.borrowed());
  const WholeColumns columns = Whole(actual);
  const WholeColumns expected_columns = Whole(expected);
  EXPECT_EQ(columns.flat, expected_columns.flat);
  EXPECT_EQ(columns.offsets, expected_columns.offsets);
  EXPECT_EQ(columns.cuisines, expected_columns.cuisines);
  for (int c = 0; c < kNumCuisines; ++c) {
    const CuisineId cuisine = static_cast<CuisineId>(c);
    EXPECT_TRUE(std::ranges::equal(actual.UniqueIngredients(cuisine),
                                   expected.UniqueIngredients(cuisine)))
        << "unique list " << c;
  }
  EXPECT_TRUE(std::ranges::equal(actual.UniqueIngredients(),
                                 expected.UniqueIngredients()));
  EXPECT_TRUE(
      SameStats(ComputeCuisineStats(actual), ComputeCuisineStats(expected)));
}

/// Checks both Materialize forms against `expected`; consumes `incremental`.
void ExpectMaterializesTo(IncrementalCorpus& incremental,
                          const RecipeCorpus& expected) {
  Result<RecipeCorpus> copied = incremental.Materialize();
  ASSERT_TRUE(copied.ok()) << copied.status();
  ExpectSameCorpus(*copied, expected);
  Result<RecipeCorpus> moved = std::move(incremental).Materialize();
  ASSERT_TRUE(moved.ok()) << moved.status();
  ExpectSameCorpus(*moved, expected);
  // A copy of the handed-off corpus shares its storage.
  ExpectSameCorpus(RecipeCorpus(*moved), expected);
}

TEST(IncrementalCorpusTest, MatchesFullRebuild) {
  Rng rng(3);
  IncrementalCorpus incremental;
  RecipeCorpus::Builder reference;
  for (int i = 0; i < 400; ++i) {
    const CuisineId cuisine = static_cast<CuisineId>(rng.NextBounded(5));
    std::vector<IngredientId> ids;
    const size_t size = 1 + rng.NextBounded(8);
    for (size_t k = 0; k < size; ++k) {
      ids.push_back(static_cast<IngredientId>(rng.NextBounded(120)));
    }
    ASSERT_TRUE(incremental
                    .Add(cuisine, std::span<const IngredientId>(ids))
                    .ok());
    ASSERT_TRUE(reference.Add(cuisine, std::move(ids)).ok());
  }
  const RecipeCorpus rebuilt = reference.Build();

  // The tables are the materialized corpus's; the columns are checked on
  // both Materialize forms, below.
  Result<RecipeCorpus> materialized = incremental.Materialize();
  ASSERT_TRUE(materialized.ok()) << materialized.status();
  EXPECT_EQ(incremental.num_recipes(), rebuilt.num_recipes());
  EXPECT_EQ(materialized->total_mentions(), rebuilt.total_mentions());
  EXPECT_TRUE(SameStats(ComputeCuisineStats(*materialized),
                        ComputeCuisineStats(rebuilt)));
  for (int c = 0; c < kNumCuisines; ++c) {
    const CuisineId cuisine = static_cast<CuisineId>(c);
    const auto unique = materialized->UniqueIngredients(cuisine);
    const auto expected_unique = rebuilt.UniqueIngredients(cuisine);
    EXPECT_TRUE(std::equal(unique.begin(), unique.end(),
                           expected_unique.begin(), expected_unique.end()));
  }
  const auto global = materialized->UniqueIngredients();
  const auto expected_global = rebuilt.UniqueIngredients();
  EXPECT_TRUE(std::equal(global.begin(), global.end(),
                         expected_global.begin(), expected_global.end()));

  ExpectMaterializesTo(incremental, rebuilt);
}

TEST(IncrementalCorpusTest, RejectsBadInput) {
  IncrementalCorpus incremental;
  EXPECT_FALSE(incremental.Add(kNumCuisines, std::vector<IngredientId>{1})
                   .ok());
  EXPECT_FALSE(incremental.Add(0, std::vector<IngredientId>{}).ok());
  EXPECT_EQ(incremental.num_recipes(), 0u);
}

TEST(IncrementalCorpusTest, SeedsFromCorpusAndExtends) {
  RecipeCorpus::Builder builder;
  ASSERT_TRUE(builder.Add(0, {1, 2, 3}).ok());
  ASSERT_TRUE(builder.Add(1, {2, 4}).ok());
  const RecipeCorpus base = builder.Build();

  // Statistics are read off the materialized corpus.
  const auto stats_of = [](const IncrementalCorpus& incremental) {
    return ComputeCuisineStats(incremental.Materialize().value());
  };
  IncrementalCorpus incremental = IncrementalCorpus::FromCorpus(base);
  EXPECT_EQ(incremental.num_recipes(), 2u);
  EXPECT_TRUE(SameStats(stats_of(incremental), ComputeCuisineStats(base)));

  ASSERT_TRUE(incremental.Add(0, std::vector<IngredientId>{5, 3}).ok());
  EXPECT_EQ(incremental.num_recipes(), 3u);
  EXPECT_EQ(stats_of(incremental)[0].num_recipes, 2u);
  EXPECT_EQ(stats_of(incremental)[0].num_unique_ingredients, 4u);

  // The derived structures must equal a from-scratch build of the same
  // recipe sequence.
  RecipeCorpus::Builder all;
  ASSERT_TRUE(all.Add(0, {1, 2, 3}).ok());
  ASSERT_TRUE(all.Add(1, {2, 4}).ok());
  ASSERT_TRUE(all.Add(0, {5, 3}).ok());
  const RecipeCorpus rebuilt = all.Build();
  EXPECT_TRUE(SameStats(stats_of(incremental), ComputeCuisineStats(rebuilt)));
  Result<RecipeCorpus> materialized = incremental.Materialize();
  ASSERT_TRUE(materialized.ok()) << materialized.status();
  const auto unique = materialized->UniqueIngredients();
  const auto expected = rebuilt.UniqueIngredients();
  EXPECT_TRUE(
      std::equal(unique.begin(), unique.end(), expected.begin(),
                 expected.end()));
  ExpectMaterializesTo(incremental, rebuilt);

  // Room reserved for the appends changes no content.
  IncrementalCorpus roomy = IncrementalCorpus::FromCorpus(
      base, ComputeCuisineStats(base), /*append_recipes=*/1,
      /*append_mentions=*/2);
  ASSERT_TRUE(roomy.Add(0, std::vector<IngredientId>{5, 3}).ok());
  EXPECT_TRUE(SameStats(stats_of(roomy), ComputeCuisineStats(rebuilt)));
  ExpectMaterializesTo(roomy, rebuilt);
}

/// The first `n` recipes of `corpus`, rebuilt by a Builder.
RecipeCorpus Prefix(const RecipeCorpus& corpus, uint32_t n) {
  RecipeCorpus::Builder builder;
  for (uint32_t r = 0; r < n; ++r) {
    EXPECT_TRUE(builder.Add(corpus.cuisine_of(r), corpus.ingredients_of(r))
                    .ok());
  }
  return builder.Build();
}

/// Appends recipes [from, to) of `corpus` to `incremental`.
void AddRecipes(IncrementalCorpus& incremental, const RecipeCorpus& corpus,
                uint32_t from, uint32_t to) {
  for (uint32_t r = from; r < to; ++r) {
    ASSERT_TRUE(
        incremental.Add(corpus.cuisine_of(r), corpus.ingredients_of(r)).ok());
  }
}

/// Every accessor of `actual`, a base-plus-tail corpus, against
/// `expected`, the same recipes built in one piece.
void ExpectSameAccessors(const RecipeCorpus& actual,
                         const RecipeCorpus& expected) {
  ASSERT_EQ(actual.num_recipes(), expected.num_recipes());
  EXPECT_EQ(actual.total_mentions(), expected.total_mentions());
  for (uint32_t r = 0; r < expected.num_recipes(); ++r) {
    const RecipeView view = actual.recipe(r);
    EXPECT_EQ(view.index, r);
    EXPECT_EQ(view.cuisine, expected.cuisine_of(r)) << "recipe " << r;
    EXPECT_EQ(actual.cuisine_of(r), expected.cuisine_of(r)) << "recipe " << r;
    EXPECT_TRUE(std::ranges::equal(view.ingredients, expected.ingredients_of(r)))
        << "recipe " << r;
    EXPECT_TRUE(
        std::ranges::equal(actual.ingredients_of(r), expected.ingredients_of(r)))
        << "recipe " << r;
  }
  for (int c = 0; c < kNumCuisines; ++c) {
    const CuisineId cuisine = static_cast<CuisineId>(c);
    EXPECT_EQ(actual.num_recipes_in(cuisine), expected.num_recipes_in(cuisine))
        << "recipes " << c;
    EXPECT_TRUE(std::ranges::equal(actual.UniqueIngredients(cuisine),
                                   expected.UniqueIngredients(cuisine)))
        << "unique list " << c;
    EXPECT_TRUE(std::ranges::equal(actual.presence(cuisine),
                                   expected.presence(cuisine)))
        << "presence " << c;
    EXPECT_EQ(actual.MeanRecipeSize(cuisine), expected.MeanRecipeSize(cuisine));
  }
  EXPECT_TRUE(std::ranges::equal(actual.UniqueIngredients(),
                                 expected.UniqueIngredients()));
  EXPECT_TRUE(std::ranges::equal(actual.presence(), expected.presence()));
  EXPECT_TRUE(
      SameStats(ComputeCuisineStats(actual), ComputeCuisineStats(expected)));
  const WholeColumns columns = Whole(actual);
  EXPECT_TRUE(std::ranges::equal(columns.flat, expected.flat()));
  EXPECT_TRUE(std::ranges::equal(columns.offsets, expected.offsets()));
  EXPECT_TRUE(std::ranges::equal(columns.cuisines, expected.cuisines()));
}

// A corpus extended from a base of the first 0, n/2 or n recipes shares
// that base and holds the rest in its tail; every accessor must read as
// a Builder rebuild of all n, also after a second extension copies the
// first one's tail.
TEST(IncrementalCorpusTest, ExtendedCorpusMatchesBuilderRebuildAtEveryBase) {
  Rng rng(29);
  RecipeCorpus::Builder builder;
  for (int i = 0; i < 300; ++i) {
    std::vector<IngredientId> ids;
    for (size_t k = 0, size = 1 + rng.NextBounded(7); k < size; ++k) {
      ids.push_back(static_cast<IngredientId>(rng.NextBounded(90)));
    }
    ASSERT_TRUE(
        builder.Add(static_cast<CuisineId>(rng.NextBounded(6)), ids).ok());
  }
  const RecipeCorpus rebuilt = builder.Build();
  const uint32_t n = static_cast<uint32_t>(rebuilt.num_recipes());
  for (const uint32_t base_n : {0u, n / 2, n}) {
    SCOPED_TRACE("base of " + std::to_string(base_n) + " recipes");
    const RecipeCorpus base = Prefix(rebuilt, base_n);
    const RecipeCorpus::Segment base_columns = base.segments()[0];
    IncrementalCorpus incremental = IncrementalCorpus::FromCorpus(base);
    const uint32_t middle = base_n + (n - base_n) / 2;
    AddRecipes(incremental, rebuilt, base_n, middle);
    Result<RecipeCorpus> once = std::move(incremental).Materialize();
    ASSERT_TRUE(once.ok()) << once.status();
    IncrementalCorpus again = IncrementalCorpus::FromCorpus(*once);
    AddRecipes(again, rebuilt, middle, n);
    Result<RecipeCorpus> twice = again.Materialize();
    ASSERT_TRUE(twice.ok()) << twice.status();

    for (const RecipeCorpus* extended : {&*once, &*twice}) {
      const auto [shared, tail] = extended->segments();
      EXPECT_EQ(shared.flat.data(), base_columns.flat.data());
      EXPECT_EQ(shared.offsets.data(), base_columns.offsets.data());
      EXPECT_EQ(shared.cuisines.data(), base_columns.cuisines.data());
      EXPECT_EQ(tail.cuisines.size(), extended->num_recipes() - base_n);
    }
    ExpectSameAccessors(*once, Prefix(rebuilt, middle));
    ExpectSameAccessors(*twice, rebuilt);
    Result<RecipeCorpus> materialized = again.Materialize();
    ASSERT_TRUE(materialized.ok()) << materialized.status();
    EXPECT_TRUE(SameStats(ComputeCuisineStats(*materialized),
                          ComputeCuisineStats(rebuilt)));
  }
}

TEST(IncrementalCorpusTest, SnapshotRoundTripsAfterAppends) {
  const std::string path =
      testing::TempDir() + "culevo_incremental_snapshot.bin";
  SnapshotWriteOptions write;
  write.sync = false;

  IncrementalCorpus incremental;
  Rng rng(13);
  const auto add_batch = [&](int count) {
    for (int i = 0; i < count; ++i) {
      std::vector<IngredientId> ids;
      const size_t size = 1 + rng.NextBounded(6);
      for (size_t k = 0; k < size; ++k) {
        ids.push_back(static_cast<IngredientId>(rng.NextBounded(80)));
      }
      ASSERT_TRUE(
          incremental
              .Add(static_cast<CuisineId>(rng.NextBounded(4)),
                   std::span<const IngredientId>(ids))
              .ok());
    }
  };

  add_batch(100);
  add_batch(40);
  // Written with the stats read off the materialized corpus's tables,
  // which the load checks against the columns.
  Result<RecipeCorpus> materialized = incremental.Materialize();
  ASSERT_TRUE(materialized.ok());
  ASSERT_TRUE(WriteCorpusSnapshot(path, *materialized, write).ok());

  Result<LoadedCorpusSnapshot> loaded = LoadCorpusSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->corpus.num_recipes(), materialized->num_recipes());
  EXPECT_TRUE(SameStats(loaded->stats,
                        ComputeCuisineStats(materialized.value())));
  EXPECT_EQ(Whole(loaded->corpus).flat, Whole(*materialized).flat);
  Result<RecipeCorpus> again = incremental.Materialize();
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(SameStats(loaded->stats, ComputeCuisineStats(*again)));
  std::remove(path.c_str());
}

TEST(IncrementalCorpusTest, DeltaSnapshotIdenticalToFreshSnapshot) {
  const std::string incremental_path =
      testing::TempDir() + "culevo_delta_snapshot.bin";
  const std::string fresh_path =
      testing::TempDir() + "culevo_fresh_snapshot.bin";
  SnapshotWriteOptions write;
  write.sync = false;

  IncrementalCorpus incremental;
  ASSERT_TRUE(incremental.Add(0, std::vector<IngredientId>{3, 1}).ok());
  ASSERT_TRUE(incremental.Add(4, std::vector<IngredientId>{2}).ok());
  ASSERT_TRUE(incremental.Add(0, std::vector<IngredientId>{8}).ok());
  Result<RecipeCorpus> materialized = incremental.Materialize();
  ASSERT_TRUE(materialized.ok());
  ASSERT_TRUE(
      WriteCorpusSnapshot(incremental_path, *materialized, write).ok());

  // A from-scratch snapshot of the same recipes must be byte-identical —
  // the tables the extension derives are not allowed to change the
  // bytes.
  RecipeCorpus::Builder fresh;
  ASSERT_TRUE(fresh.Add(0, {3, 1}).ok());
  ASSERT_TRUE(fresh.Add(4, {2}).ok());
  ASSERT_TRUE(fresh.Add(0, {8}).ok());
  ASSERT_TRUE(WriteCorpusSnapshot(fresh_path, fresh.Build(), write).ok());
  Result<std::string> delta_bytes = ReadFileToString(incremental_path);
  Result<std::string> fresh_bytes = ReadFileToString(fresh_path);
  ASSERT_TRUE(delta_bytes.ok());
  ASSERT_TRUE(fresh_bytes.ok());
  EXPECT_EQ(delta_bytes.value(), fresh_bytes.value());
  std::remove(incremental_path.c_str());
  std::remove(fresh_path.c_str());
}

}  // namespace
}  // namespace culevo
