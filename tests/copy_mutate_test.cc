#include "core/copy_mutate.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "model_test_util.h"

namespace culevo {
namespace {

/// A lexicon with `categories` categories of `per_category` ingredients
/// each; ids are assigned in category-major order.
Lexicon GridLexicon(int categories, int per_category) {
  Lexicon lexicon;
  for (int c = 0; c < categories; ++c) {
    for (int i = 0; i < per_category; ++i) {
      EXPECT_TRUE(lexicon
                      .Add("ing_" + std::to_string(c) + "_" +
                               std::to_string(i),
                           CategoryFromIndex(c))
                      .ok());
    }
  }
  return lexicon;
}

CuisineContext GridContext(const Lexicon& lexicon, size_t target,
                           int mean_size) {
  CuisineContext context;
  context.cuisine = 0;
  context.ingredients = lexicon.AllIds();
  context.popularity.assign(context.ingredients.size(), 0.5);
  context.mean_recipe_size = mean_size;
  context.target_recipes = target;
  context.phi = static_cast<double>(context.ingredients.size()) /
                static_cast<double>(target);
  return context;
}

TEST(CopyMutateTest, GeneratesTargetCountOfValidRecipes) {
  const Lexicon lexicon = GridLexicon(4, 25);
  const CuisineContext context = GridContext(lexicon, 400, 8);
  const Result<TransactionSet> recipes =
      GenerateRecipes(*MakeCmR(&lexicon), context, 1);
  ASSERT_TRUE(recipes.ok());
  ASSERT_EQ(recipes->size(), 400u);
  for (size_t r = 0; r < recipes->size(); ++r) {
    const std::span<const Item> recipe = recipes->transaction(r);
    EXPECT_EQ(recipe.size(), 8u);  // Constant s̄ without insert/delete.
    EXPECT_TRUE(std::is_sorted(recipe.begin(), recipe.end()));
    std::set<IngredientId> unique(recipe.begin(), recipe.end());
    EXPECT_EQ(unique.size(), recipe.size());
    for (IngredientId id : recipe) {
      EXPECT_LT(id, lexicon.size());  // Only cuisine ingredients.
    }
  }
}

TEST(CopyMutateTest, DeterministicPerSeed) {
  const Lexicon lexicon = GridLexicon(3, 30);
  const CuisineContext context = GridContext(lexicon, 200, 7);
  const auto model = MakeCmM(&lexicon);
  const Result<TransactionSet> a = GenerateRecipes(*model, context, 42);
  const Result<TransactionSet> b = GenerateRecipes(*model, context, 42);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
  const Result<TransactionSet> c = GenerateRecipes(*model, context, 43);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(*a, *c);
}

TEST(CopyMutateTest, PaperFactoriesUsePaperParameters) {
  const Lexicon lexicon = GridLexicon(2, 10);
  EXPECT_EQ(MakeCmR(&lexicon)->params().mutations, 4);
  EXPECT_EQ(MakeCmC(&lexicon)->params().mutations, 6);
  EXPECT_EQ(MakeCmM(&lexicon)->params().mutations, 6);
  EXPECT_EQ(MakeCmR(&lexicon)->params().initial_pool, 20);
  EXPECT_DOUBLE_EQ(MakeCmM(&lexicon)->params().mixture_cross_prob, 0.5);
  EXPECT_EQ(MakeCmR(&lexicon)->name(), "CM-R");
  EXPECT_EQ(MakeCmC(&lexicon)->name(), "CM-C");
  EXPECT_EQ(MakeCmM(&lexicon)->name(), "CM-M");
}

TEST(CopyMutateTest, InvalidContextsRejected) {
  const Lexicon lexicon = GridLexicon(2, 10);
  const auto model = MakeCmR(&lexicon);

  CuisineContext empty_target = GridContext(lexicon, 10, 5);
  empty_target.target_recipes = 0;
  EXPECT_FALSE(GenerateRecipes(*model, empty_target, 1).ok());

  CuisineContext no_ingredients = GridContext(lexicon, 10, 5);
  no_ingredients.ingredients.clear();
  EXPECT_FALSE(GenerateRecipes(*model, no_ingredients, 1).ok());

  CuisineContext bad_phi = GridContext(lexicon, 10, 5);
  bad_phi.phi = 0.0;
  EXPECT_FALSE(GenerateRecipes(*model, bad_phi, 1).ok());
}

/// CM-C preserves every recipe's per-category ingredient counts along its
/// lineage (same-category point mutations), so the number of *distinct
/// category histograms* in the evolved pool stays near the initial pool's;
/// CM-R crosses categories freely and produces many more.
TEST(CopyMutateTest, SameCategoryPolicyPreservesCategoryHistograms) {
  const Lexicon lexicon = GridLexicon(4, 25);
  const CuisineContext context = GridContext(lexicon, 400, 8);

  const auto count_histograms = [&](const TransactionSet& recipes) {
    std::set<std::vector<int>> histograms;
    for (size_t r = 0; r < recipes.size(); ++r) {
      std::vector<int> histogram(4, 0);
      for (IngredientId id : recipes.transaction(r)) {
        ++histogram[static_cast<int>(lexicon.category(id))];
      }
      histograms.insert(histogram);
    }
    return histograms.size();
  };

  const Result<TransactionSet> cm_c =
      GenerateRecipes(*MakeCmC(&lexicon), context, 5);
  ASSERT_TRUE(cm_c.ok());
  const Result<TransactionSet> cm_r =
      GenerateRecipes(*MakeCmR(&lexicon), context, 5);
  ASSERT_TRUE(cm_r.ok());

  // n0 = m/phi = 20 / (100/400) = 80 initial recipes bound CM-C's
  // distinct-histogram count; CM-R keeps generating new histograms.
  EXPECT_LE(count_histograms(*cm_c), 80u + 4u);  // +slack for pool fallback.
  EXPECT_GT(count_histograms(*cm_r), count_histograms(*cm_c));
}

TEST(CopyMutateTest, MixtureProbabilityInterpolates) {
  const Lexicon lexicon = GridLexicon(4, 25);
  const CuisineContext context = GridContext(lexicon, 400, 8);

  const auto distinct_histograms = [&](double cross_prob) {
    ModelParams params;
    params.policy = ReplacementPolicy::kMixture;
    params.mutations = 6;
    params.mixture_cross_prob = cross_prob;
    const CopyMutateModel model(&lexicon, params);
    const Result<TransactionSet> recipes = GenerateRecipes(model, context, 5);
    EXPECT_TRUE(recipes.ok());
    std::set<std::vector<int>> histograms;
    for (size_t r = 0; recipes.ok() && r < recipes->size(); ++r) {
      std::vector<int> histogram(4, 0);
      for (IngredientId id : recipes->transaction(r)) {
        ++histogram[static_cast<int>(lexicon.category(id))];
      }
      histograms.insert(histogram);
    }
    return histograms.size();
  };

  const size_t at_zero = distinct_histograms(0.0);
  const size_t at_one = distinct_histograms(1.0);
  EXPECT_LT(at_zero, at_one);
}

TEST(CopyMutateTest, VariableSizeExtensionChangesSizes) {
  const Lexicon lexicon = GridLexicon(4, 25);
  const CuisineContext context = GridContext(lexicon, 500, 8);
  ModelParams params;
  params.insert_prob = 0.3;
  params.delete_prob = 0.3;
  const CopyMutateModel model(&lexicon, params);
  const Result<TransactionSet> recipes = GenerateRecipes(model, context, 3);
  ASSERT_TRUE(recipes.ok());
  std::set<size_t> sizes;
  for (size_t r = 0; r < recipes->size(); ++r) {
    const std::span<const Item> recipe = recipes->transaction(r);
    sizes.insert(recipe.size());
    EXPECT_GE(recipe.size(), 2u);
    EXPECT_LE(recipe.size(), 38u);
  }
  EXPECT_GT(sizes.size(), 1u);
}

TEST(CopyMutateTest, FitnessGatingEnrichesHighFitnessIngredients) {
  // Under uniform fitness, mutation only replaces lower-fitness ingredients
  // with higher-fitness ones, so late recipes should be enriched in the
  // top-fitness half relative to the initial pool average.
  const Lexicon lexicon = GridLexicon(1, 100);
  const CuisineContext context = GridContext(lexicon, 2000, 8);
  ModelParams params;
  params.mutations = 8;
  const CopyMutateModel model(&lexicon, params);
  const Result<TransactionSet> recipes = GenerateRecipes(model, context, 11);
  ASSERT_TRUE(recipes.ok());

  // Proxy: ingredient usage concentration. Fitness-gated evolution reuses
  // the fittest ingredients, so the most common ingredient should appear in
  // far more than the uniform share of recipes.
  std::map<IngredientId, size_t> counts;
  for (IngredientId id : recipes->items()) ++counts[id];
  size_t max_count = 0;
  for (const auto& [id, count] : counts) {
    max_count = std::max(max_count, count);
  }
  // Uniform share would be 2000 * 8 / 100 = 160; gating concentrates usage.
  EXPECT_GT(max_count, 480u);
}

TEST(CopyMutateTest, SmallIngredientListsStillWork) {
  // |I| smaller than the initial pool request.
  const Lexicon lexicon = GridLexicon(1, 12);
  const CuisineContext context = GridContext(lexicon, 60, 5);
  const Result<TransactionSet> recipes =
      GenerateRecipes(*MakeCmR(&lexicon), context, 2);
  ASSERT_TRUE(recipes.ok());
  EXPECT_EQ(recipes->size(), 60u);
}

TEST(ReplacementPolicyNameTest, Names) {
  EXPECT_STREQ(ReplacementPolicyName(ReplacementPolicy::kRandom), "CM-R");
  EXPECT_STREQ(ReplacementPolicyName(ReplacementPolicy::kSameCategory),
               "CM-C");
  EXPECT_STREQ(ReplacementPolicyName(ReplacementPolicy::kMixture), "CM-M");
}

}  // namespace
}  // namespace culevo
