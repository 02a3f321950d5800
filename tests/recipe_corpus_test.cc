#include "corpus/recipe_corpus.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <utility>

#include "lexicon/world_lexicon.h"
#include "synth/generator.h"
#include "testing/corpus_stats_reference.h"
#include "util/rng.h"

namespace culevo {
namespace {

template <typename T>
std::vector<T> ToVec(std::span<const T> view) {
  return std::vector<T>(view.begin(), view.end());
}

RecipeCorpus SmallCorpus() {
  RecipeCorpus::Builder builder;
  EXPECT_TRUE(builder.Add(0, {3, 1, 2}).ok());
  EXPECT_TRUE(builder.Add(0, {2, 2, 5}).ok());  // Duplicate collapses.
  EXPECT_TRUE(builder.Add(1, {7}).ok());
  return builder.Build();
}

TEST(RecipeCorpusTest, BuilderSortsAndDeduplicates) {
  const RecipeCorpus corpus = SmallCorpus();
  ASSERT_EQ(corpus.num_recipes(), 3u);
  EXPECT_EQ(ToVec(corpus.ingredients_of(0)),
            (std::vector<IngredientId>{1, 2, 3}));
  EXPECT_EQ(ToVec(corpus.ingredients_of(1)),
            (std::vector<IngredientId>{2, 5}));
}

TEST(RecipeCorpusTest, SpanAddMatchesVectorAdd) {
  const std::vector<IngredientId> ingredients = {9, 4, 4, 6};
  RecipeCorpus::Builder builder;
  builder.Reserve(2, 8);
  ASSERT_TRUE(
      builder.Add(3, std::span<const IngredientId>(ingredients)).ok());
  ASSERT_TRUE(builder.Add(3, std::vector<IngredientId>{9, 4, 4, 6}).ok());
  const RecipeCorpus corpus = builder.Build();
  ASSERT_EQ(corpus.num_recipes(), 2u);
  EXPECT_EQ(ToVec(corpus.ingredients_of(0)), ToVec(corpus.ingredients_of(1)));
  EXPECT_EQ(ToVec(corpus.ingredients_of(0)),
            (std::vector<IngredientId>{4, 6, 9}));
}

TEST(RecipeCorpusTest, RejectsEmptyAndBadCuisine) {
  RecipeCorpus::Builder builder;
  EXPECT_FALSE(builder.Add(0, std::vector<IngredientId>{}).ok());
  EXPECT_FALSE(builder.Add(kNumCuisines, {1}).ok());
  EXPECT_FALSE(
      builder.Add(0, std::span<const IngredientId>()).ok());
  EXPECT_EQ(builder.size(), 0u);
}

TEST(RecipeCorpusTest, RecipeViewFields) {
  const RecipeCorpus corpus = SmallCorpus();
  const RecipeView view = corpus.recipe(2);
  EXPECT_EQ(view.index, 2u);
  EXPECT_EQ(view.cuisine, 1);
  EXPECT_EQ(view.size(), 1u);
  EXPECT_EQ(view.ingredients[0], 7);
}

TEST(RecipeCorpusTest, RecipesOfGroupsByCuisine) {
  const RecipeCorpus corpus = SmallCorpus();
  EXPECT_EQ(RecipesOf(corpus, 0), (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(RecipesOf(corpus, 1), (std::vector<uint32_t>{2}));
  EXPECT_TRUE(RecipesOf(corpus, 2).empty());
  EXPECT_EQ(corpus.num_recipes_in(0), 2u);
  EXPECT_EQ(corpus.num_recipes_in(1), 1u);
  EXPECT_EQ(corpus.num_recipes_in(2), 0u);
}

TEST(RecipeCorpusTest, UniqueIngredients) {
  const RecipeCorpus corpus = SmallCorpus();
  EXPECT_EQ(ToVec(corpus.UniqueIngredients(0)),
            (std::vector<IngredientId>{1, 2, 3, 5}));
  EXPECT_EQ(ToVec(corpus.UniqueIngredients()),
            (std::vector<IngredientId>{1, 2, 3, 5, 7}));
  EXPECT_TRUE(corpus.UniqueIngredients(2).empty());
}

TEST(RecipeCorpusTest, MeanRecipeSize) {
  const RecipeCorpus corpus = SmallCorpus();
  EXPECT_DOUBLE_EQ(corpus.MeanRecipeSize(0), 2.5);  // Sizes 3 and 2.
  EXPECT_DOUBLE_EQ(corpus.MeanRecipeSize(1), 1.0);
  EXPECT_DOUBLE_EQ(corpus.MeanRecipeSize(2), 0.0);
}

TEST(RecipeCorpusTest, TotalMentions) {
  EXPECT_EQ(SmallCorpus().total_mentions(), 6u);
}

TEST(RecipeCorpusTest, EmptyCorpus) {
  RecipeCorpus corpus;
  EXPECT_EQ(corpus.num_recipes(), 0u);
  EXPECT_TRUE(corpus.UniqueIngredients().empty());
  EXPECT_FALSE(corpus.borrowed());
}

TEST(RecipeCorpusTest, BuilderIsReusableAfterBuild) {
  RecipeCorpus::Builder builder;
  ASSERT_TRUE(builder.Add(0, {1}).ok());
  const RecipeCorpus first = builder.Build();
  EXPECT_EQ(first.num_recipes(), 1u);
  ASSERT_TRUE(builder.Add(1, {2, 3}).ok());
  const RecipeCorpus second = builder.Build();
  EXPECT_EQ(second.num_recipes(), 1u);
  EXPECT_EQ(second.cuisine_of(0), 1);
}

// The span accessors must survive copies and moves: the views have to be
// re-pointed at the destination's own storage, never at the source's.
TEST(RecipeCorpusTest, CopyRebindsViews) {
  RecipeCorpus original = SmallCorpus();
  RecipeCorpus copy = original;
  original = RecipeCorpus();  // Destroy the source's storage.
  EXPECT_EQ(ToVec(copy.ingredients_of(0)),
            (std::vector<IngredientId>{1, 2, 3}));
  EXPECT_EQ(copy.num_recipes_in(0), 2u);
  EXPECT_EQ(ToVec(copy.UniqueIngredients()),
            (std::vector<IngredientId>{1, 2, 3, 5, 7}));
}

TEST(RecipeCorpusTest, MoveRebindsViews) {
  RecipeCorpus original = SmallCorpus();
  const RecipeCorpus moved = std::move(original);
  EXPECT_EQ(moved.num_recipes(), 3u);
  EXPECT_EQ(ToVec(moved.ingredients_of(1)), (std::vector<IngredientId>{2, 5}));
  EXPECT_EQ(ToVec(moved.UniqueIngredients(0)),
            (std::vector<IngredientId>{1, 2, 3, 5}));
}

// --- FromColumns: the borrowed-storage entry point must reject columns
// that are not a well-formed corpus (the loader relies on this as its last
// line of defense against crafted snapshots).

struct OwnedColumns {
  std::vector<IngredientId> flat;
  std::vector<uint32_t> offsets;
  std::vector<CuisineId> cuisines;
  std::array<std::vector<IngredientId>, kNumCuisines + 1> unique;

  RecipeCorpus::ColumnViews Views() const {
    RecipeCorpus::ColumnViews views;
    views.flat = flat;
    views.offsets = offsets;
    views.cuisines = cuisines;
    for (size_t c = 0; c <= kNumCuisines; ++c) views.unique[c] = unique[c];
    return views;
  }
};

OwnedColumns SmallColumns() {
  OwnedColumns columns;
  columns.flat = {1, 2, 3, 2, 5, 7};
  columns.offsets = {0, 3, 5, 6};
  columns.cuisines = {0, 0, 1};
  columns.unique[0] = {1, 2, 3, 5};
  columns.unique[1] = {7};
  columns.unique[kNumCuisines] = {1, 2, 3, 5, 7};
  return columns;
}

TEST(RecipeCorpusFromColumnsTest, AcceptsWellFormedColumns) {
  const OwnedColumns columns = SmallColumns();
  Result<RecipeCorpus> corpus =
      RecipeCorpus::FromColumns(columns.Views(), nullptr);
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  EXPECT_TRUE(corpus->borrowed() == false);  // Null backing: views only.
  EXPECT_EQ(corpus->num_recipes(), 3u);
  EXPECT_EQ(ToVec(corpus->ingredients_of(0)),
            (std::vector<IngredientId>{1, 2, 3}));
  EXPECT_EQ(RecipesOf(*corpus, 0), (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(corpus->num_recipes_in(0), 2u);
  EXPECT_EQ(ToVec(corpus->UniqueIngredients()),
            (std::vector<IngredientId>{1, 2, 3, 5, 7}));
}

TEST(RecipeCorpusFromColumnsTest, RejectsNonMonotonicOffsets) {
  OwnedColumns columns = SmallColumns();
  columns.offsets = {0, 5, 3, 6};
  EXPECT_FALSE(RecipeCorpus::FromColumns(columns.Views(), nullptr).ok());
}

TEST(RecipeCorpusFromColumnsTest, RejectsUnsortedRecipe) {
  OwnedColumns columns = SmallColumns();
  columns.flat = {3, 2, 1, 2, 5, 7};  // Recipe 0 descending.
  EXPECT_FALSE(RecipeCorpus::FromColumns(columns.Views(), nullptr).ok());
}

TEST(RecipeCorpusFromColumnsTest, RejectsIncompleteUniqueList) {
  OwnedColumns columns = SmallColumns();
  columns.unique[0] = {1, 2, 3};  // 5 missing: downstream code would index
                                  // out of bounds off this list.
  EXPECT_FALSE(RecipeCorpus::FromColumns(columns.Views(), nullptr).ok());
}

TEST(RecipeCorpusFromColumnsTest, RejectsOversizedUniqueList) {
  OwnedColumns columns = SmallColumns();
  columns.unique[kNumCuisines] = {1, 2, 3, 5, 7, 9};  // 9 never used.
  EXPECT_FALSE(RecipeCorpus::FromColumns(columns.Views(), nullptr).ok());
}

// Recipe 0 claims 100 ingredients of a 6-entry flat column. The offsets
// end at the column size, so only the bound on each offset keeps the
// order check from reading past the column before the next offset (5)
// shows the list is not increasing.
TEST(RecipeCorpusFromColumnsTest, RejectsOffsetPastFlatColumn) {
  OwnedColumns columns = SmallColumns();
  columns.flat = {1, 2, 3, 5, 6, 7};
  columns.offsets = {0, 100, 5, 6};
  columns.cuisines = {0, 0, 1};
  EXPECT_EQ(RecipeCorpus::FromColumns(columns.Views(), nullptr).status().code(),
            StatusCode::kInvalidArgument);
}

// --- FromColumns against the four-pass validator it replaced: both must
// accept and refuse exactly the same mutated columns.

/// The four-pass validator FromColumns used before it checked everything
/// in one pass over the recipes, kept as a reference: true when it
/// accepts `views`. One line is new, the bound on each offset before the
/// order check reads through it. Without it the validator read past the
/// flat column on such input, and refused it only afterwards, so the
/// bound changes nothing it accepts. Each cuisine's recipes are gathered
/// from the cuisine column, since the corpus keeps no list of them.
bool ReferenceAccepts(const RecipeCorpus::ColumnViews& views) {
  const size_t n = views.cuisines.size();
  if (views.offsets.size() != n + 1 || views.offsets.front() != 0 ||
      views.offsets.back() != views.flat.size()) {
    return false;
  }
  for (size_t i = 0; i < n; ++i) {
    if (views.offsets[i + 1] <= views.offsets[i]) return false;
    if (views.offsets[i + 1] > views.flat.size()) return false;  // New.
    if (views.cuisines[i] >= kNumCuisines) return false;
    for (size_t m = views.offsets[i] + 1; m < views.offsets[i + 1]; ++m) {
      if (views.flat[m - 1] >= views.flat[m]) return false;
    }
  }

  // Each unique list against its scope, gathered by cuisine (the
  // corpus-wide list against the whole flat column), with epoch marks:
  // epoch = listed, epoch + 1 = listed and seen.
  IngredientId max_id = 0;
  for (IngredientId id : views.flat) max_id = std::max(max_id, id);
  const size_t universe = static_cast<size_t>(max_id) + 1;
  std::vector<uint32_t> epoch_of(universe, 0);
  uint32_t epoch = 0;
  for (int c = 0; c <= kNumCuisines; ++c) {
    const std::span<const IngredientId> unique =
        views.unique[static_cast<size_t>(c)];
    ++epoch;
    for (size_t k = 0; k < unique.size(); ++k) {
      if (k > 0 && unique[k - 1] >= unique[k]) return false;
      if (static_cast<size_t>(unique[k]) >= universe) return false;
      epoch_of[unique[k]] = epoch;
    }
    size_t covered = 0;
    bool complete = true;
    const auto consume = [&](IngredientId id) {
      if (epoch_of[id] < epoch) {
        complete = false;
      } else if (epoch_of[id] == epoch) {
        epoch_of[id] = epoch + 1;
        ++covered;
      }
    };
    if (c < kNumCuisines) {
      for (size_t index = 0; index < n; ++index) {
        if (views.cuisines[index] != static_cast<CuisineId>(c)) continue;
        for (size_t m = views.offsets[index]; m < views.offsets[index + 1];
             ++m) {
          consume(views.flat[m]);
        }
      }
    } else {
      for (IngredientId id : views.flat) consume(id);
    }
    if (!complete || covered != unique.size()) return false;
    ++epoch;
  }
  return true;
}

/// The columns and unique lists of a built corpus.
OwnedColumns ColumnsOf(const RecipeCorpus& corpus) {
  OwnedColumns columns;
  columns.flat = ToVec(corpus.flat());
  columns.offsets = ToVec(corpus.offsets());
  columns.cuisines = ToVec(corpus.cuisines());
  for (int c = 0; c < kNumCuisines; ++c) {
    columns.unique[static_cast<size_t>(c)] =
        ToVec(corpus.UniqueIngredients(static_cast<CuisineId>(c)));
  }
  columns.unique[kNumCuisines] = ToVec(corpus.UniqueIngredients());
  return columns;
}

/// One element of `list` set to 0, to its type's maximum or to a
/// neighbour +-1, two elements swapped, or the list truncated.
template <typename T>
void MutateList(std::vector<T>* list, Rng& rng) {
  if (list == nullptr || list->empty()) return;
  T& value = (*list)[rng.NextBounded(list->size())];
  switch (rng.NextBounded(6)) {
    case 0:
      value = 0;
      break;
    case 1:
      value = std::numeric_limits<T>::max();
      break;
    case 2:
      value = static_cast<T>(value + 1);
      break;
    case 3:
      value = static_cast<T>(value - 1);
      break;
    case 4:
      std::swap(value, (*list)[rng.NextBounded(list->size())]);
      break;
    default:
      list->resize(rng.NextBounded(list->size()));
      break;
  }
}

/// A random non-empty list of `lists`, or null when all are empty.
template <typename T, size_t N>
std::vector<T>* NonEmptyList(std::array<std::vector<T>, N>* lists,
                             Rng& rng) {
  std::vector<std::vector<T>*> candidates;
  for (std::vector<T>& list : *lists) {
    if (!list.empty()) candidates.push_back(&list);
  }
  return candidates.empty() ? nullptr
                            : candidates[rng.NextBounded(candidates.size())];
}

/// One seeded mutation of `columns`: of the flat, offsets or cuisine
/// column, of a unique list, or a recipe moved to another cuisine.
void MutateColumns(OwnedColumns* columns, Rng& rng) {
  switch (rng.NextBounded(5)) {
    case 0:
      MutateList(&columns->flat, rng);
      break;
    case 1:
      MutateList(&columns->offsets, rng);
      break;
    case 2:
      MutateList(&columns->cuisines, rng);
      break;
    case 3:
      MutateList(NonEmptyList(&columns->unique, rng), rng);
      break;
    default:
      if (columns->cuisines.empty()) break;
      columns->cuisines[rng.NextBounded(columns->cuisines.size())] =
          static_cast<CuisineId>(rng.NextBounded(kNumCuisines));
      break;
  }
}

/// Runs FromColumns and the reference on seeded mutants of `columns`.
void ExpectSameVerdicts(const OwnedColumns& columns, uint64_t seed) {
  ASSERT_TRUE(ReferenceAccepts(columns.Views()));
  ASSERT_TRUE(RecipeCorpus::FromColumns(columns.Views(), nullptr).ok());
  Rng rng(seed);
  int accepted = 0;
  int refused = 0;
  for (int i = 0; i < 3000; ++i) {
    OwnedColumns mutant = columns;
    MutateColumns(&mutant, rng);
    const Result<RecipeCorpus> corpus =
        RecipeCorpus::FromColumns(mutant.Views(), nullptr);
    ASSERT_EQ(corpus.ok(), ReferenceAccepts(mutant.Views()))
        << "mutant " << i << ": " << corpus.status();
    if (corpus.ok()) {
      ++accepted;
    } else {
      ++refused;
      ASSERT_EQ(corpus.status().code(), StatusCode::kInvalidArgument);
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(refused, 0);
}

TEST(RecipeCorpusFromColumnsTest, MatchesReferenceOnSmallColumns) {
  ExpectSameVerdicts(SmallColumns(), 15);
}

// A synthesized world of ~2k recipes: all 25 cuisines over the world
// lexicon's ids.
TEST(RecipeCorpusFromColumnsTest, MatchesReferenceOnSynthesizedCorpus) {
  SynthConfig config;
  config.scale = 0.0125;
  config.seed = 1515;
  const Result<RecipeCorpus> world =
      SynthesizeWorldCorpus(WorldLexicon(), config);
  ASSERT_TRUE(world.ok()) << world.status();
  ASSERT_GT(world->num_recipes(), 1500u);
  ExpectSameVerdicts(ColumnsOf(*world), 17);
}

// Few cuisines over a small id range, so a recipe moved to another
// cuisine often leaves every unique list right, and both validators must
// accept it.
TEST(RecipeCorpusFromColumnsTest, MatchesReferenceOnFewCuisineCorpus) {
  Rng rng(1515);
  RecipeCorpus::Builder builder;
  for (int i = 0; i < 2000; ++i) {
    std::vector<IngredientId> ids;
    for (size_t k = 0, n = 2 + rng.NextBounded(9); k < n; ++k) {
      ids.push_back(static_cast<IngredientId>(rng.NextBounded(200)));
    }
    ASSERT_TRUE(
        builder.Add(static_cast<CuisineId>(rng.NextBounded(8)), std::move(ids))
            .ok());
  }
  ExpectSameVerdicts(ColumnsOf(builder.Build()), 16);
}

}  // namespace
}  // namespace culevo
