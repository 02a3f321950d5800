// End-to-end integration tests: synthesize a world, run the full analysis
// and model-fitting pipeline, and assert the paper's qualitative results.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "analysis/combinations.h"
#include "analysis/distance.h"
#include "analysis/overrepresentation.h"
#include "analysis/summary.h"
#include "core/copy_mutate.h"
#include "core/evaluator.h"
#include "core/null_model.h"
#include "corpus/corpus_io.h"
#include "corpus/corpus_stats.h"
#include "lexicon/world_lexicon.h"
#include "synth/generator.h"
#include "testing/apriori.h"
#include "testing/corpus_stats_reference.h"
#include "util/check.h"

namespace culevo {
namespace {

/// A shared small world corpus (scale 0.02: ~3.2k recipes).
const RecipeCorpus& World() {
  static const RecipeCorpus& corpus = []() -> const RecipeCorpus& {
    SynthConfig config;
    config.scale = 0.02;
    Result<RecipeCorpus> made =
        SynthesizeWorldCorpus(WorldLexicon(), config);
    CULEVO_CHECK_OK(made.status());
    return *new RecipeCorpus(std::move(made).value());
  }();
  return corpus;
}

TEST(IntegrationTest, WorldHasAllCuisines) {
  for (int c = 0; c < kNumCuisines; ++c) {
    EXPECT_GT(World().num_recipes_in(static_cast<CuisineId>(c)), 0u);
  }
}

TEST(IntegrationTest, Fig1SizesAreBoundedGaussian) {
  const std::vector<CuisineStats> stats = ComputeCuisineStats(World());
  for (const CuisineStats& s : stats) {
    ASSERT_GT(s.num_recipes, 0u);
    EXPECT_GE(s.min_recipe_size, 2);
    EXPECT_LE(s.max_recipe_size, 38);
  }
  const GaussianFit fit =
      FitGaussianToHistogram(AggregateSizeHistogram(World()));
  EXPECT_NEAR(fit.mean, 9.0, 1.0);
  EXPECT_LT(fit.tv_error, 0.1);
}

TEST(IntegrationTest, Fig3CurvesAreHomogeneous) {
  std::vector<RankFrequency> curves;
  for (int c = 0; c < kNumCuisines; ++c) {
    curves.push_back(
        IngredientCombinationCurve(World(), static_cast<CuisineId>(c)));
    EXPECT_FALSE(curves.back().empty());
  }
  const double mae = MeanOffDiagonal(PairwiseMae(curves));
  // Paper: 0.035 at full scale. Same order of magnitude here.
  EXPECT_LT(mae, 0.1);
  EXPECT_GT(mae, 0.001);
}

TEST(IntegrationTest, TableOneTopIngredientsRecovered) {
  const Lexicon& lexicon = WorldLexicon();
  int hits = 0;
  int total = 0;
  for (const char* code : {"ITA", "INSC", "FRA"}) {
    const CuisineId cuisine = CuisineFromCode(code).value();
    const auto top = TopOverrepresented(World(), cuisine, 5);
    for (std::string_view target :
         CuisineAt(cuisine).top_ingredients) {
      ++total;
      for (const OverrepresentationScore& s : top) {
        if (lexicon.name(s.ingredient) == target) {
          ++hits;
          break;
        }
      }
    }
  }
  EXPECT_GE(hits, total * 2 / 3);
}

TEST(IntegrationTest, CopyMutateBeatsNullAcrossCuisines) {
  const Lexicon& lexicon = WorldLexicon();
  const auto cm_r = MakeCmR(&lexicon);
  const auto cm_c = MakeCmC(&lexicon);
  const auto cm_m = MakeCmM(&lexicon);
  const NullModel nm;
  const std::vector<const EvolutionModel*> models = {cm_r.get(), cm_c.get(),
                                                     cm_m.get(), &nm};
  SimulationConfig config;
  config.replicas = 4;

  // Cuisines floored to ~30 recipes at this scale are a degenerate regime
  // (the paper's smallest cuisine has 470); test the mid-sized ones.
  for (const char* code : {"ITA", "MEX", "USA"}) {
    const CuisineId cuisine = CuisineFromCode(code).value();
    Result<CuisineEvaluation> evaluation =
        EvaluateCuisine(World(), cuisine, lexicon, models, config);
    ASSERT_TRUE(evaluation.ok()) << code;
    const double nm_mae = evaluation->scores[3].mae_ingredient;
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_LT(evaluation->scores[i].mae_ingredient, nm_mae)
          << code << " model " << evaluation->scores[i].model;
    }
    // The winner is one of the copy-mutate models, never the null model.
    EXPECT_LT(evaluation->BestByIngredientMae(), 3u) << code;
  }
}

// Section VI's second claim: category combinations do not tell the models
// apart. Pooled over the same three cuisines, the null model's category
// MAE exceeds the best copy-mutate model's by a far smaller factor than its
// ingredient MAE does. Measured on this world (replicas 4, best CM taken
// per cuisine) for simulation seeds 42, 1, 7, 11, 2024, 99, 3, 5, 13 and
// 17: ingredient gap x5.29-x8.25, category gap x1.86-x2.78, ingredient gap
// / category gap 1.90-3.65 (x5.65, x2.76 and 2.05 at the default seed 42).
// Per cuisine the gaps are noisier (USA's ingredient gap falls to x2.6 and
// once sits below its category gap), hence the pooling.
TEST(IntegrationTest, CategoryCombinationsBarelySeparateModels) {
  const Lexicon& lexicon = WorldLexicon();
  const auto cm_r = MakeCmR(&lexicon);
  const auto cm_c = MakeCmC(&lexicon);
  const auto cm_m = MakeCmM(&lexicon);
  const NullModel nm;
  const std::vector<const EvolutionModel*> models = {cm_r.get(), cm_c.get(),
                                                     cm_m.get(), &nm};
  SimulationConfig config;
  config.replicas = 4;

  double nm_ingredient = 0.0;
  double cm_ingredient = 0.0;
  double nm_category = 0.0;
  double cm_category = 0.0;
  for (const char* code : {"ITA", "MEX", "USA"}) {
    const CuisineId cuisine = CuisineFromCode(code).value();
    Result<CuisineEvaluation> evaluation =
        EvaluateCuisine(World(), cuisine, lexicon, models, config);
    ASSERT_TRUE(evaluation.ok()) << code;
    const std::vector<ModelScore>& scores = evaluation->scores;
    nm_ingredient += scores[3].mae_ingredient;
    nm_category += scores[3].mae_category;
    cm_ingredient += std::min({scores[0].mae_ingredient,
                               scores[1].mae_ingredient,
                               scores[2].mae_ingredient});
    cm_category += std::min({scores[0].mae_category, scores[1].mae_category,
                             scores[2].mae_category});
  }
  const double ingredient_gap = nm_ingredient / cm_ingredient;
  const double category_gap = nm_category / cm_category;
  EXPECT_LT(1.5 * category_gap, ingredient_gap)
      << "category gap x" << category_gap << ", ingredient gap x"
      << ingredient_gap;
}

TEST(IntegrationTest, CorpusSurvivesSerializationPipeline) {
  const Lexicon& lexicon = WorldLexicon();
  // Serialize a slice of the world (one cuisine) and re-analyze it.
  const CuisineId kor = CuisineFromCode("KOR").value();
  RecipeCorpus::Builder builder;
  for (uint32_t index : RecipesOf(World(), kor)) {
    const auto span = World().ingredients_of(index);
    ASSERT_TRUE(
        builder.Add(kor, std::vector<IngredientId>(span.begin(), span.end()))
            .ok());
  }
  const RecipeCorpus slice = builder.Build();

  const std::string serialized = FormatCorpusTsv(slice, lexicon);
  Result<RecipeCorpus> reloaded = ParseCorpusTsv(serialized, lexicon);
  ASSERT_TRUE(reloaded.ok());
  ASSERT_EQ(reloaded->num_recipes(), slice.num_recipes());

  // The reloaded corpus yields the identical combination curve.
  const RankFrequency before = IngredientCombinationCurve(slice, kor);
  const RankFrequency after =
      IngredientCombinationCurve(reloaded.value(), kor);
  EXPECT_EQ(before.values(), after.values());
}

TEST(IntegrationTest, MinersAgreeOnRealCuisine) {
  const CuisineId scnd = CuisineFromCode("SCND").value();
  const TransactionSet transactions = IngredientTransactions(World(), scnd);
  const CombinationConfig config;
  std::vector<size_t> apriori_counts;
  for (const Itemset& itemset : MineApriori(
           transactions, AbsoluteSupport(transactions.size(),
                                         config.min_relative_support))) {
    apriori_counts.push_back(itemset.support);
  }
  const RankFrequency a = IngredientCombinationCurve(World(), scnd, config);
  const RankFrequency b =
      RankFrequency::FromCounts(apriori_counts, transactions.size());
  EXPECT_EQ(a.values(), b.values());
}

}  // namespace
}  // namespace culevo
