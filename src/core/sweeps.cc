#include "core/sweeps.h"

#include <algorithm>
#include <functional>

namespace culevo {
namespace {

/// Scores one CopyMutateModel per entry of `params`, in order, with one
/// EvaluateCuisine call; no entries, no scores. A checkpointing or sharded
/// `config` is refused first (see sweeps.h).
Result<std::vector<ModelScore>> ScoreParams(
    const RecipeCorpus& corpus, CuisineId cuisine, const Lexicon& lexicon,
    const std::vector<ModelParams>& params, const SimulationConfig& config) {
  if (config.checkpoint.enabled() || config.shard.active()) {
    return Status::InvalidArgument(
        "parameter sweeps neither checkpoint nor shard: their models "
        "share a policy name, and with it a journal file");
  }
  if (params.empty()) return std::vector<ModelScore>{};
  std::vector<CopyMutateModel> owned;
  owned.reserve(params.size());
  std::vector<const EvolutionModel*> models;
  for (const ModelParams& p : params) {
    models.push_back(&owned.emplace_back(&lexicon, p));
  }
  Result<CuisineEvaluation> evaluation =
      EvaluateCuisine(corpus, cuisine, lexicon, models, config);
  if (!evaluation.ok()) return evaluation.status();
  return std::move(evaluation->scores);
}

/// The four parameter sweeps: `apply(params, v)` sets the swept value `v`
/// on a copy of `base`.
Result<std::vector<SweepPoint>> RunSweep(
    const RecipeCorpus& corpus, CuisineId cuisine, const Lexicon& lexicon,
    const std::vector<double>& values, const ModelParams& base,
    const SimulationConfig& config,
    const std::function<void(ModelParams&, double)>& apply) {
  std::vector<ModelParams> params(values.size(), base);
  for (size_t i = 0; i < values.size(); ++i) apply(params[i], values[i]);
  Result<std::vector<ModelScore>> scores =
      ScoreParams(corpus, cuisine, lexicon, params, config);
  if (!scores.ok()) return scores.status();

  std::vector<SweepPoint> points;
  points.reserve(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    points.push_back({values[i], (*scores)[i].mae_ingredient,
                      (*scores)[i].mae_category});
  }
  return points;
}

std::vector<double> ToDoubles(const std::vector<int>& values) {
  return std::vector<double>(values.begin(), values.end());
}

}  // namespace

Result<std::vector<SweepPoint>> SweepMixtureProb(
    const RecipeCorpus& corpus, CuisineId cuisine, const Lexicon& lexicon,
    const std::vector<double>& probs, const ModelParams& base,
    const SimulationConfig& config) {
  return RunSweep(corpus, cuisine, lexicon, probs, base, config,
                  [](ModelParams& params, double p) {
                    params.policy = ReplacementPolicy::kMixture;
                    params.mixture_cross_prob = p;
                  });
}

Result<std::vector<SweepPoint>> SweepMutationCount(
    const RecipeCorpus& corpus, CuisineId cuisine, const Lexicon& lexicon,
    const std::vector<int>& mutation_counts, const ModelParams& base,
    const SimulationConfig& config) {
  return RunSweep(corpus, cuisine, lexicon, ToDoubles(mutation_counts), base,
                  config, [](ModelParams& params, double m) {
                    params.mutations = static_cast<int>(m);
                  });
}

Result<std::vector<SweepPoint>> SweepInitialPool(
    const RecipeCorpus& corpus, CuisineId cuisine, const Lexicon& lexicon,
    const std::vector<int>& pool_sizes, const ModelParams& base,
    const SimulationConfig& config) {
  return RunSweep(corpus, cuisine, lexicon, ToDoubles(pool_sizes), base,
                  config, [](ModelParams& params, double m) {
                    params.initial_pool = static_cast<int>(m);
                  });
}

Result<std::vector<SweepPoint>> SweepSizeMutationRate(
    const RecipeCorpus& corpus, CuisineId cuisine, const Lexicon& lexicon,
    const std::vector<double>& rates, const ModelParams& base,
    const SimulationConfig& config) {
  return RunSweep(corpus, cuisine, lexicon, rates, base, config,
                  [](ModelParams& params, double rate) {
                    params.insert_prob = rate;
                    params.delete_prob = rate;
                  });
}

Result<std::vector<FitResult>> FitCopyMutateParameters(
    const RecipeCorpus& corpus, CuisineId cuisine, const Lexicon& lexicon,
    const FitGrid& grid, const SimulationConfig& config) {
  if (grid.initial_pools.empty() || grid.mutation_counts.empty() ||
      grid.policies.empty()) {
    return Status::InvalidArgument("empty fit grid");
  }
  std::vector<ModelParams> params;
  for (int m : grid.initial_pools) {
    for (int mutations : grid.mutation_counts) {
      for (ReplacementPolicy policy : grid.policies) {
        ModelParams& p = params.emplace_back();
        p.initial_pool = m;
        p.mutations = mutations;
        p.policy = policy;
      }
    }
  }
  Result<std::vector<ModelScore>> scores =
      ScoreParams(corpus, cuisine, lexicon, params, config);
  if (!scores.ok()) return scores.status();

  std::vector<FitResult> results;
  results.reserve(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    results.push_back({params[i], (*scores)[i].mae_ingredient,
                       (*scores)[i].mae_category});
  }
  std::sort(results.begin(), results.end(),
            [](const FitResult& a, const FitResult& b) {
              return a.mae_ingredient < b.mae_ingredient;
            });
  return results;
}

}  // namespace culevo
