#include "core/null_model.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/distributions.h"
#include "util/rng.h"

namespace culevo {

NullModel::NullModel(int initial_pool) : initial_pool_(initial_pool) {
  CULEVO_CHECK(initial_pool_ > 0);
}

Status NullModel::GenerateInto(const CuisineContext& context, uint64_t seed,
                               RecipeStore* store) const {
  CULEVO_RETURN_IF_ERROR(ValidateCuisineContext(context));

  Rng rng(seed);
  const uint32_t total = static_cast<uint32_t>(context.ingredients.size());

  // Pool membership bookkeeping (same growth rule as Algorithm 1). NM has
  // no category draws, so a plain member list suffices.
  std::vector<PoolPos> pool;
  std::vector<PoolPos> reserve;
  SampleScratch scratch;
  std::vector<uint32_t> sample_buf;
  {
    const uint32_t m0 =
        std::min<uint32_t>(static_cast<uint32_t>(initial_pool_), total);
    pool.reserve(total);
    SampleWithoutReplacementInto(&rng, total, m0, &scratch, &sample_buf);
    for (uint32_t pick : sample_buf) {
      pool.push_back(pick);
      scratch.Set(pick);
    }
    reserve.reserve(total - m0);
    for (uint32_t p = 0; p < total; ++p) {
      if (!scratch.Test(p)) reserve.push_back(p);
    }
    for (uint32_t pick : sample_buf) scratch.Clear(pick);
  }

  store->Reset(context.target_recipes,
               context.target_recipes *
                   static_cast<size_t>(context.mean_recipe_size));
  const auto fresh_recipe = [&]() {
    const uint32_t k = std::min<uint32_t>(
        static_cast<uint32_t>(context.mean_recipe_size),
        static_cast<uint32_t>(pool.size()));
    sample_buf.clear();
    SampleWithoutReplacementInto(&rng, static_cast<uint32_t>(pool.size()), k,
                                 &scratch, &sample_buf);
    store->BeginRecipe();
    for (uint32_t idx : sample_buf) store->AppendToOpen(pool[idx]);
    store->Commit();
  };

  const size_t n0 = std::min(
      context.target_recipes,
      std::max<size_t>(1, static_cast<size_t>(std::lround(
                              static_cast<double>(pool.size()) /
                              context.phi))));
  for (size_t i = 0; i < n0; ++i) fresh_recipe();

  while (store->num_recipes() < context.target_recipes) {
    const double ratio = static_cast<double>(pool.size()) /
                         static_cast<double>(store->num_recipes());
    if (ratio >= context.phi || reserve.empty()) {
      fresh_recipe();
    } else {
      const size_t k = rng.NextBounded(reserve.size());
      pool.push_back(reserve[k]);
      reserve[k] = reserve.back();
      reserve.pop_back();
    }
  }

  static obs::Counter* recipes_c =
      obs::MetricsRegistry::Get().counter("sim.generate.recipes");
  static obs::Counter* items_c =
      obs::MetricsRegistry::Get().counter("sim.generate.items");
  recipes_c->Increment(static_cast<int64_t>(store->num_recipes()));
  items_c->Increment(static_cast<int64_t>(store->num_items()));
  return Status::Ok();
}

}  // namespace culevo
