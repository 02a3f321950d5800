#ifndef CULEVO_CORE_FITTING_H_
#define CULEVO_CORE_FITTING_H_

#include <vector>

#include "core/copy_mutate.h"
#include "core/evaluator.h"

namespace culevo {

/// Grid search over copy-mutate parameters — the procedure behind the
/// paper's Section-VI statement "We found m=20, n=I0/∂, M=4 (for CM-R)
/// and 6 (for CM-C and CM-M) to consistently reproduce the empirical
/// rank-frequency distributions".

/// The search space. Defaults cover the paper's neighbourhood.
struct FitGrid {
  std::vector<int> initial_pools = {10, 20, 40};
  std::vector<int> mutation_counts = {2, 4, 6, 8};
  std::vector<ReplacementPolicy> policies = {
      ReplacementPolicy::kRandom, ReplacementPolicy::kSameCategory,
      ReplacementPolicy::kMixture};
};

/// One evaluated grid point.
struct FitResult {
  ModelParams params;
  double mae_ingredient = 0.0;
  double mae_category = 0.0;
};

/// Evaluates every grid point on one cuisine and returns the results
/// sorted by ascending ingredient-combination MAE (best first).
Result<std::vector<FitResult>> FitCopyMutateParameters(
    const RecipeCorpus& corpus, CuisineId cuisine, const Lexicon& lexicon,
    const FitGrid& grid, const SimulationConfig& config,
    ThreadPool* pool = nullptr);

}  // namespace culevo

#endif  // CULEVO_CORE_FITTING_H_
