#include "synth/generator.h"

#include <gtest/gtest.h>

#include <set>

#include "analysis/overrepresentation.h"
#include "analysis/summary.h"
#include "corpus/corpus_stats.h"
#include "lexicon/world_lexicon.h"
#include "testing/corpus_stats_reference.h"

namespace culevo {
namespace {

RecipeCorpus OneCuisine(CuisineId cuisine, int count, uint64_t seed = 7) {
  const Lexicon& lexicon = WorldLexicon();
  const CuisineProfile profile =
      BuildCuisineProfile(lexicon, cuisine, seed);
  SynthConfig config;
  config.seed = seed;
  RecipeCorpus::Builder builder;
  EXPECT_TRUE(
      SynthesizeCuisine(lexicon, profile, config, count, &builder).ok());
  return builder.Build();
}

TEST(SynthesizeCuisineTest, ProducesRequestedCount) {
  const RecipeCorpus corpus = OneCuisine(2, 500);
  EXPECT_EQ(corpus.num_recipes(), 500u);
  EXPECT_EQ(corpus.num_recipes_in(2), 500u);
}

TEST(SynthesizeCuisineTest, SizesWithinPaperBounds) {
  const RecipeCorpus corpus = OneCuisine(4, 800);
  for (uint32_t i = 0; i < corpus.num_recipes(); ++i) {
    const size_t size = corpus.ingredients_of(i).size();
    EXPECT_GE(size, 2u);
    EXPECT_LE(size, 38u);
  }
}

TEST(SynthesizeCuisineTest, MeanSizeNearCalibration) {
  const CuisineId cuisine = 11;  // ITA, mean 9.2.
  const RecipeCorpus corpus = OneCuisine(cuisine, 3000);
  EXPECT_NEAR(corpus.MeanRecipeSize(cuisine),
              CuisineAt(cuisine).mean_recipe_size, 0.5);
}

TEST(SynthesizeCuisineTest, SizeDistributionIsGaussianLike) {
  const RecipeCorpus corpus = OneCuisine(21, 4000);  // USA.
  const std::vector<CuisineStats> stats = ComputeCuisineStats(corpus);
  const GaussianFit fit = FitGaussianToHistogram(stats[21].size_histogram);
  EXPECT_LT(fit.tv_error, 0.15);
}

TEST(SynthesizeCuisineTest, DeterministicForSeed) {
  const RecipeCorpus a = OneCuisine(5, 300, 42);
  const RecipeCorpus b = OneCuisine(5, 300, 42);
  ASSERT_EQ(a.num_recipes(), b.num_recipes());
  for (uint32_t i = 0; i < a.num_recipes(); ++i) {
    EXPECT_EQ(std::vector<IngredientId>(a.ingredients_of(i).begin(),
                                        a.ingredients_of(i).end()),
              std::vector<IngredientId>(b.ingredients_of(i).begin(),
                                        b.ingredients_of(i).end()));
  }
}

TEST(SynthesizeCuisineTest, SeedsChangeOutput) {
  const RecipeCorpus a = OneCuisine(5, 300, 1);
  const RecipeCorpus b = OneCuisine(5, 300, 2);
  bool any_different = false;
  for (uint32_t i = 0; i < a.num_recipes() && !any_different; ++i) {
    any_different =
        std::vector<IngredientId>(a.ingredients_of(i).begin(),
                                  a.ingredients_of(i).end()) !=
        std::vector<IngredientId>(b.ingredients_of(i).begin(),
                                  b.ingredients_of(i).end());
  }
  EXPECT_TRUE(any_different);
}

TEST(SynthesizeCuisineTest, RejectsBadCount) {
  const Lexicon& lexicon = WorldLexicon();
  const CuisineProfile profile = BuildCuisineProfile(lexicon, 0, 7);
  RecipeCorpus::Builder builder;
  EXPECT_FALSE(
      SynthesizeCuisine(lexicon, profile, SynthConfig{}, 0, &builder).ok());
}

TEST(SynthesizeCuisineTest, TopFiveIngredientsDominate) {
  const CuisineId cuisine = 10;  // INSC.
  const RecipeCorpus corpus = OneCuisine(cuisine, 2500);
  const Lexicon& lexicon = WorldLexicon();
  // Each calibrated top ingredient appears in a sizable recipe fraction.
  for (std::string_view name : CuisineAt(cuisine).top_ingredients) {
    const IngredientId id = *lexicon.Find(name);
    size_t hits = 0;
    for (uint32_t r : RecipesOf(corpus, cuisine)) {
      for (IngredientId ing : corpus.ingredients_of(r)) {
        if (ing == id) {
          ++hits;
          break;
        }
      }
    }
    EXPECT_GT(static_cast<double>(hits) /
                  static_cast<double>(corpus.num_recipes_in(cuisine)),
              0.15)
        << name;
  }
}

TEST(SynthesizeWorldCorpusTest, ScaleValidation) {
  const Lexicon& lexicon = WorldLexicon();
  SynthConfig config;
  config.scale = 0.0;
  EXPECT_FALSE(SynthesizeWorldCorpus(lexicon, config).ok());
  config.scale = 1.5;
  EXPECT_FALSE(SynthesizeWorldCorpus(lexicon, config).ok());
}

TEST(SynthesizeWorldCorpusTest, AllCuisinesPopulatedWithFloor) {
  const Lexicon& lexicon = WorldLexicon();
  SynthConfig config;
  config.scale = 0.001;  // Tiny: every cuisine floors at 30 recipes.
  Result<RecipeCorpus> corpus = SynthesizeWorldCorpus(lexicon, config);
  ASSERT_TRUE(corpus.ok());
  for (int c = 0; c < kNumCuisines; ++c) {
    EXPECT_GE(corpus->num_recipes_in(static_cast<CuisineId>(c)), 30u);
  }
}

TEST(SynthesizeWorldCorpusTest, ScaledCountsTrackTableOne) {
  const Lexicon& lexicon = WorldLexicon();
  SynthConfig config;
  config.scale = 0.02;
  Result<RecipeCorpus> corpus = SynthesizeWorldCorpus(lexicon, config);
  ASSERT_TRUE(corpus.ok());
  const CuisineId ita = CuisineFromCode("ITA").value();
  EXPECT_NEAR(static_cast<double>(corpus->num_recipes_in(ita)),
              23179 * 0.02, 2.0);
}

TEST(SynthesizeWorldCorpusTest, OverrepresentationRecoversCalibration) {
  const Lexicon& lexicon = WorldLexicon();
  SynthConfig config;
  config.scale = 0.05;
  Result<RecipeCorpus> corpus = SynthesizeWorldCorpus(lexicon, config);
  ASSERT_TRUE(corpus.ok());

  const CuisineId ita = CuisineFromCode("ITA").value();
  const auto top = TopOverrepresented(*corpus, ita, 5);
  std::set<std::string> computed;
  for (const OverrepresentationScore& s : top) {
    computed.insert(lexicon.name(s.ingredient));
  }
  int hits = 0;
  for (std::string_view name : CuisineAt(ita).top_ingredients) {
    if (computed.count(std::string(name)) != 0) ++hits;
  }
  EXPECT_GE(hits, 3) << "Table-I calibration should mostly be recovered";
}

}  // namespace
}  // namespace culevo
