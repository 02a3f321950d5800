#include "core/fitting.h"

#include <algorithm>

#include "analysis/distance.h"

namespace culevo {

Result<std::vector<FitResult>> FitCopyMutateParameters(
    const RecipeCorpus& corpus, CuisineId cuisine, const Lexicon& lexicon,
    const FitGrid& grid, const SimulationConfig& config, ThreadPool* pool) {
  if (grid.initial_pools.empty() || grid.mutation_counts.empty() ||
      grid.policies.empty()) {
    return Status::InvalidArgument("empty fit grid");
  }
  Result<CuisineContext> context = ContextFromCorpus(corpus, cuisine);
  if (!context.ok()) return context.status();
  const RankFrequency empirical_ingredient =
      IngredientCombinationCurve(corpus, cuisine, config.mining);
  const RankFrequency empirical_category =
      CategoryCombinationCurve(corpus, cuisine, lexicon, config.mining);

  std::vector<FitResult> results;
  for (int m : grid.initial_pools) {
    for (int mutations : grid.mutation_counts) {
      for (ReplacementPolicy policy : grid.policies) {
        ModelParams params;
        params.initial_pool = m;
        params.mutations = mutations;
        params.policy = policy;
        const CopyMutateModel model(&lexicon, params);
        Result<SimulationResult> sim =
            RunSimulation(model, context.value(), lexicon, config, pool);
        if (!sim.ok()) return sim.status();
        FitResult result;
        result.params = params;
        result.mae_ingredient =
            MeanAbsoluteError(empirical_ingredient, sim->ingredient_curve);
        result.mae_category =
            MeanAbsoluteError(empirical_category, sim->category_curve);
        results.push_back(result);
      }
    }
  }
  std::sort(results.begin(), results.end(),
            [](const FitResult& a, const FitResult& b) {
              return a.mae_ingredient < b.mae_ingredient;
            });
  return results;
}

}  // namespace culevo
