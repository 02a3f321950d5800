#ifndef CULEVO_CORE_EVALUATOR_H_
#define CULEVO_CORE_EVALUATOR_H_

#include <string>
#include <vector>

#include "analysis/combinations.h"
#include "analysis/rank_frequency.h"
#include "core/evolution_model.h"
#include "core/simulation.h"
#include "corpus/recipe_corpus.h"
#include "lexicon/lexicon.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace culevo {

/// One model's fit against a cuisine's empirical distributions (Fig. 4's
/// legend values, plus the category-combination check of Section VI).
struct ModelScore {
  std::string model;
  double mae_ingredient = 0.0;      ///< MAE vs empirical ingredient curve.
  double mae_category = 0.0;        ///< MAE vs empirical category curve.
  double paper_eq2_ingredient = 0.0;///< Eq. 2 as printed (squared form).
  RankFrequency ingredient_curve;   ///< Aggregated model curve.
  RankFrequency category_curve;
  /// Replica counts of the model's RunSimulation call.
  RunReport report;
};

/// All models evaluated on one cuisine.
struct CuisineEvaluation {
  CuisineId cuisine = 0;
  RankFrequency empirical_ingredient;
  RankFrequency empirical_category;
  std::vector<ModelScore> scores;

  /// Index into `scores` of the lowest ingredient-combination MAE.
  /// Precondition: !scores.empty().
  size_t BestByIngredientMae() const;
};

/// Evaluates `models` on one cuisine of the empirical corpus: derives the
/// cuisine context, computes the empirical rank-frequency curves, runs each
/// model for config.replicas replicas and scores the aggregated curves.
/// `pool` is passed to RunSimulation: each model's replicas run as one
/// RunTasks loop on its thread count (on the calling thread when null).
Result<CuisineEvaluation> EvaluateCuisine(
    const RecipeCorpus& corpus, CuisineId cuisine, const Lexicon& lexicon,
    const std::vector<const EvolutionModel*>& models,
    const SimulationConfig& config, ThreadPool* pool = nullptr);

}  // namespace culevo

#endif  // CULEVO_CORE_EVALUATOR_H_
