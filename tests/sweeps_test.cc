#include "core/sweeps.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>

#include "lexicon/world_lexicon.h"
#include "synth/generator.h"
#include "util/check.h"

namespace culevo {
namespace {

const RecipeCorpus& SweepCorpus() {
  static const RecipeCorpus& corpus = []() -> const RecipeCorpus& {
    const Lexicon& lexicon = WorldLexicon();
    const CuisineId bn = CuisineFromCode("BN").value();
    const CuisineProfile profile = BuildCuisineProfile(lexicon, bn, 3);
    SynthConfig config;
    RecipeCorpus::Builder builder;
    CULEVO_CHECK_OK(
        SynthesizeCuisine(lexicon, profile, config, 400, &builder));
    return *new RecipeCorpus(builder.Build());
  }();
  return corpus;
}

SimulationConfig FastConfig() {
  SimulationConfig config;
  config.replicas = 2;
  return config;
}

TEST(SweepTest, MixtureProbProducesOnePointPerValue) {
  const CuisineId bn = CuisineFromCode("BN").value();
  ModelParams base;
  base.mutations = 6;
  Result<std::vector<SweepPoint>> sweep =
      SweepMixtureProb(SweepCorpus(), bn, WorldLexicon(), {0.0, 0.5, 1.0},
                       base, FastConfig());
  ASSERT_TRUE(sweep.ok());
  ASSERT_EQ(sweep->size(), 3u);
  EXPECT_DOUBLE_EQ((*sweep)[0].value, 0.0);
  EXPECT_DOUBLE_EQ((*sweep)[2].value, 1.0);
  for (const SweepPoint& point : sweep.value()) {
    EXPECT_GE(point.mae_ingredient, 0.0);
    EXPECT_GE(point.mae_category, 0.0);
  }
}

TEST(SweepTest, MutationCountPassesValuesThrough) {
  const CuisineId bn = CuisineFromCode("BN").value();
  ModelParams base;
  Result<std::vector<SweepPoint>> sweep = SweepMutationCount(
      SweepCorpus(), bn, WorldLexicon(), {1, 4, 8}, base, FastConfig());
  ASSERT_TRUE(sweep.ok());
  ASSERT_EQ(sweep->size(), 3u);
  EXPECT_DOUBLE_EQ((*sweep)[1].value, 4.0);
}

TEST(SweepTest, SizeMutationRateSweep) {
  const CuisineId bn = CuisineFromCode("BN").value();
  ModelParams base;
  Result<std::vector<SweepPoint>> sweep = SweepSizeMutationRate(
      SweepCorpus(), bn, WorldLexicon(), {0.0, 0.2}, base, FastConfig());
  ASSERT_TRUE(sweep.ok());
  ASSERT_EQ(sweep->size(), 2u);
}

TEST(SweepTest, EmptySweepIsEmpty) {
  const CuisineId bn = CuisineFromCode("BN").value();
  ModelParams base;
  Result<std::vector<SweepPoint>> sweep = SweepMutationCount(
      SweepCorpus(), bn, WorldLexicon(), {}, base, FastConfig());
  ASSERT_TRUE(sweep.ok());
  EXPECT_TRUE(sweep->empty());
}

TEST(SweepTest, BadCuisinePropagatesError) {
  ModelParams base;
  Result<std::vector<SweepPoint>> sweep =
      SweepMutationCount(SweepCorpus(), CuisineFromCode("ITA").value(),
                         WorldLexicon(), {4}, base, FastConfig());
  EXPECT_FALSE(sweep.ok());
}

/// MAEs of `params` scored alone, by a one-model EvaluateCuisine call.
std::pair<double, double> EvaluateAlone(const ModelParams& params,
                                        const SimulationConfig& config) {
  const CopyMutateModel model(&WorldLexicon(), params);
  Result<CuisineEvaluation> evaluation =
      EvaluateCuisine(SweepCorpus(), CuisineFromCode("BN").value(),
                      WorldLexicon(), {&model}, config);
  CULEVO_CHECK_OK(evaluation.status());
  return {evaluation->scores[0].mae_ingredient,
          evaluation->scores[0].mae_category};
}

// A sweep scores all its models in one EvaluateCuisine call, and each
// point is bit-identical to that model scored alone: every model's
// replicas use config.seed.
TEST(SweepTest, PointsMatchOneModelEvaluations) {
  const CuisineId bn = CuisineFromCode("BN").value();
  const Lexicon& lexicon = WorldLexicon();
  ModelParams base;
  base.mutations = 6;
  const SimulationConfig config = FastConfig();
  const auto expect_alone =
      [&](const char* sweep, const Result<std::vector<SweepPoint>>& points,
          const std::function<void(ModelParams&, double)>& apply) {
        ASSERT_TRUE(points.ok()) << sweep << ": " << points.status();
        for (const SweepPoint& point : *points) {
          ModelParams params = base;
          apply(params, point.value);
          const auto [ingredient, category] = EvaluateAlone(params, config);
          EXPECT_EQ(point.mae_ingredient, ingredient)
              << sweep << " at " << point.value;
          EXPECT_EQ(point.mae_category, category)
              << sweep << " at " << point.value;
        }
      };
  expect_alone("mixture",
               SweepMixtureProb(SweepCorpus(), bn, lexicon, {0.0, 0.5, 1.0},
                                base, config),
               [](ModelParams& params, double p) {
                 params.policy = ReplacementPolicy::kMixture;
                 params.mixture_cross_prob = p;
               });
  expect_alone("mutations",
               SweepMutationCount(SweepCorpus(), bn, lexicon, {1, 4, 8},
                                  base, config),
               [](ModelParams& params, double m) {
                 params.mutations = static_cast<int>(m);
               });
  expect_alone("pool",
               SweepInitialPool(SweepCorpus(), bn, lexicon, {10, 20, 40},
                                base, config),
               [](ModelParams& params, double m) {
                 params.initial_pool = static_cast<int>(m);
               });
  expect_alone("size rate",
               SweepSizeMutationRate(SweepCorpus(), bn, lexicon, {0.0, 0.2},
                                     base, config),
               [](ModelParams& params, double rate) {
                 params.insert_prob = rate;
                 params.delete_prob = rate;
               });

  FitGrid grid;
  grid.initial_pools = {10, 20};
  grid.mutation_counts = {2, 6};
  grid.policies = {ReplacementPolicy::kRandom, ReplacementPolicy::kMixture};
  Result<std::vector<FitResult>> fits =
      FitCopyMutateParameters(SweepCorpus(), bn, lexicon, grid, config);
  ASSERT_TRUE(fits.ok()) << fits.status();
  ASSERT_EQ(fits->size(), 8u);
  for (const FitResult& fit : *fits) {
    const auto [ingredient, category] = EvaluateAlone(fit.params, config);
    EXPECT_EQ(fit.mae_ingredient, ingredient);
    EXPECT_EQ(fit.mae_category, category);
  }
}

// A sweep's models share a policy name and so a journal file: the sweeps
// and the grid search refuse to checkpoint or shard, before any work.
TEST(SweepTest, CheckpointingOrShardedConfigIsRefused) {
  const CuisineId bn = CuisineFromCode("BN").value();
  const Lexicon& lexicon = WorldLexicon();
  const ModelParams base;
  const std::string dir =
      testing::TempDir() + "culevo_sweeps_refused_checkpoint";
  std::filesystem::remove_all(dir);

  SimulationConfig checkpointed = FastConfig();
  checkpointed.checkpoint.directory = dir;
  SimulationConfig sharded = FastConfig();
  sharded.shard.index = 0;
  sharded.shard.count = 2;
  SimulationConfig sharded_checkpointed = checkpointed;
  sharded_checkpointed.shard = sharded.shard;

  for (const SimulationConfig* config :
       {&checkpointed, &sharded, &sharded_checkpointed}) {
    const auto expect_refused = [](const Status& status) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
    };
    expect_refused(
        SweepMixtureProb(SweepCorpus(), bn, lexicon, {0.5}, base, *config)
            .status());
    expect_refused(
        SweepMutationCount(SweepCorpus(), bn, lexicon, {4}, base, *config)
            .status());
    expect_refused(
        SweepInitialPool(SweepCorpus(), bn, lexicon, {20}, base, *config)
            .status());
    expect_refused(SweepSizeMutationRate(SweepCorpus(), bn, lexicon, {0.1},
                                         base, *config)
                       .status());
    // Refused even with no point to run.
    expect_refused(
        SweepMutationCount(SweepCorpus(), bn, lexicon, {}, base, *config)
            .status());
    expect_refused(FitCopyMutateParameters(SweepCorpus(), bn, lexicon,
                                           FitGrid{}, *config)
                       .status());
  }
  // No journal, not even the checkpoint directory, was written.
  EXPECT_FALSE(std::filesystem::exists(dir));
}

}  // namespace
}  // namespace culevo
