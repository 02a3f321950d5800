#include "core/sweeps.h"

#include <gtest/gtest.h>

#include "lexicon/world_lexicon.h"
#include "synth/generator.h"
#include "util/check.h"

namespace culevo {
namespace {

const RecipeCorpus& FitCorpus() {
  static const RecipeCorpus& corpus = []() -> const RecipeCorpus& {
    const Lexicon& lexicon = WorldLexicon();
    const CuisineId grc = CuisineFromCode("GRC").value();
    const CuisineProfile profile = BuildCuisineProfile(lexicon, grc, 9);
    SynthConfig config;
    RecipeCorpus::Builder builder;
    CULEVO_CHECK_OK(
        SynthesizeCuisine(lexicon, profile, config, 500, &builder));
    return *new RecipeCorpus(builder.Build());
  }();
  return corpus;
}

TEST(FittingTest, EvaluatesWholeGridSortedByMae) {
  const CuisineId grc = CuisineFromCode("GRC").value();
  FitGrid grid;
  grid.initial_pools = {10, 20};
  grid.mutation_counts = {2, 6};
  grid.policies = {ReplacementPolicy::kRandom,
                   ReplacementPolicy::kMixture};
  SimulationConfig config;
  config.replicas = 2;

  Result<std::vector<FitResult>> fits = FitCopyMutateParameters(
      FitCorpus(), grc, WorldLexicon(), grid, config);
  ASSERT_TRUE(fits.ok());
  ASSERT_EQ(fits->size(), 8u);  // 2 x 2 x 2.
  for (size_t i = 1; i < fits->size(); ++i) {
    EXPECT_LE((*fits)[i - 1].mae_ingredient, (*fits)[i].mae_ingredient);
  }
}

TEST(FittingTest, ExtremeMutationCountsFitWorseThanModerate) {
  // The U-shape: M=1 and M=24 should both lose to the paper range.
  const CuisineId grc = CuisineFromCode("GRC").value();
  FitGrid grid;
  grid.initial_pools = {20};
  grid.mutation_counts = {1, 5, 24};
  grid.policies = {ReplacementPolicy::kMixture};
  SimulationConfig config;
  config.replicas = 3;
  Result<std::vector<FitResult>> fits = FitCopyMutateParameters(
      FitCorpus(), grc, WorldLexicon(), grid, config);
  ASSERT_TRUE(fits.ok());
  EXPECT_EQ(fits->front().params.mutations, 5);
}

TEST(FittingTest, EmptyGridRejected) {
  const CuisineId grc = CuisineFromCode("GRC").value();
  FitGrid grid;
  grid.policies.clear();
  SimulationConfig config;
  EXPECT_FALSE(FitCopyMutateParameters(FitCorpus(), grc, WorldLexicon(),
                                       grid, config)
                   .ok());
}

TEST(SweepInitialPoolTest, ProducesPointPerPoolSize) {
  const CuisineId grc = CuisineFromCode("GRC").value();
  ModelParams base;
  SimulationConfig config;
  config.replicas = 2;
  Result<std::vector<SweepPoint>> sweep = SweepInitialPool(
      FitCorpus(), grc, WorldLexicon(), {10, 20, 40}, base, config);
  ASSERT_TRUE(sweep.ok());
  ASSERT_EQ(sweep->size(), 3u);
  EXPECT_DOUBLE_EQ((*sweep)[1].value, 20.0);
}

}  // namespace
}  // namespace culevo
