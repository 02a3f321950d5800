#ifndef CULEVO_CORE_SWEEPS_H_
#define CULEVO_CORE_SWEEPS_H_

#include <vector>

#include "core/copy_mutate.h"
#include "core/evaluator.h"

namespace culevo {

/// Parameter sweeps and the parameter grid search. Each scores a list of
/// copy-mutate parameter sets against one cuisine's empirical curves with
/// one EvaluateCuisine call: the curves are mined once, and every model's
/// replicas use `config.seed`, so a point is bit-identical to a one-model
/// EvaluateCuisine run of the same parameters.
///
/// The models of one sweep share a policy name, and with it the journal
/// file `sim_<name>_c<cuisine>.journal`, so a sweep neither checkpoints nor
/// shards: a `config` with a checkpoint directory or an active shard is
/// refused with InvalidArgument before any work.

/// One point of a parameter sweep: the parameter value and the resulting
/// ingredient-combination MAE against the empirical distribution.
struct SweepPoint {
  double value = 0.0;
  double mae_ingredient = 0.0;
  double mae_category = 0.0;
};

/// Ablation A: sweeps the CM-M cross-category probability p over `probs`.
/// p=0 degenerates to CM-C behaviour, p=1 to CM-R ("creative liberty"
/// spectrum, Section VI discussion).
Result<std::vector<SweepPoint>> SweepMixtureProb(
    const RecipeCorpus& corpus, CuisineId cuisine, const Lexicon& lexicon,
    const std::vector<double>& probs, const ModelParams& base,
    const SimulationConfig& config);

/// Ablation B: sweeps the per-copy mutation count M over `mutation_counts`.
Result<std::vector<SweepPoint>> SweepMutationCount(
    const RecipeCorpus& corpus, CuisineId cuisine, const Lexicon& lexicon,
    const std::vector<int>& mutation_counts, const ModelParams& base,
    const SimulationConfig& config);

/// Sweeps the initial ingredient-pool size m (the paper fixes m=20).
Result<std::vector<SweepPoint>> SweepInitialPool(
    const RecipeCorpus& corpus, CuisineId cuisine, const Lexicon& lexicon,
    const std::vector<int>& pool_sizes, const ModelParams& base,
    const SimulationConfig& config);

/// Ablation B': sweeps the insert/delete probability of the variable-size
/// extension (both set to each value of `rates`).
Result<std::vector<SweepPoint>> SweepSizeMutationRate(
    const RecipeCorpus& corpus, CuisineId cuisine, const Lexicon& lexicon,
    const std::vector<double>& rates, const ModelParams& base,
    const SimulationConfig& config);

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
    const FitGrid& grid, const SimulationConfig& config);

}  // namespace culevo

#endif  // CULEVO_CORE_SWEEPS_H_
