#include "core/fitting.h"

#include <algorithm>
#include <memory>

namespace culevo {

Result<std::vector<FitResult>> FitCopyMutateParameters(
    const RecipeCorpus& corpus, CuisineId cuisine, const Lexicon& lexicon,
    const FitGrid& grid, const SimulationConfig& config, ThreadPool* pool) {
  if (grid.initial_pools.empty() || grid.mutation_counts.empty() ||
      grid.policies.empty()) {
    return Status::InvalidArgument("empty fit grid");
  }
  std::vector<std::unique_ptr<CopyMutateModel>> grid_models;
  std::vector<const EvolutionModel*> models;
  for (int m : grid.initial_pools) {
    for (int mutations : grid.mutation_counts) {
      for (ReplacementPolicy policy : grid.policies) {
        ModelParams params;
        params.initial_pool = m;
        params.mutations = mutations;
        params.policy = policy;
        grid_models.push_back(
            std::make_unique<CopyMutateModel>(&lexicon, params));
        models.push_back(grid_models.back().get());
      }
    }
  }
  Result<CuisineEvaluation> evaluation =
      EvaluateCuisine(corpus, cuisine, lexicon, models, config, pool);
  if (!evaluation.ok()) return evaluation.status();

  std::vector<FitResult> results;
  results.reserve(grid_models.size());
  for (size_t i = 0; i < grid_models.size(); ++i) {
    FitResult result;
    result.params = grid_models[i]->params();
    result.mae_ingredient = evaluation->scores[i].mae_ingredient;
    result.mae_category = evaluation->scores[i].mae_category;
    results.push_back(result);
  }
  std::sort(results.begin(), results.end(),
            [](const FitResult& a, const FitResult& b) {
              return a.mae_ingredient < b.mae_ingredient;
            });
  return results;
}

}  // namespace culevo
