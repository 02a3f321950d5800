#include "core/horizontal.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/distributions.h"
#include "util/rng.h"

namespace culevo {
namespace {

/// CM-R's parameters (Section VI): the initial pool size m per cuisine
/// and the mutations M per copied recipe.
constexpr int kInitialPool = 20;
constexpr int kMutations = 4;

/// Per-cuisine evolving state (pools hold global IngredientIds here, unlike
/// the position-indexed single-cuisine model, because recipes migrate).
struct CuisineState {
  const CuisineContext* context = nullptr;
  std::vector<IngredientId> pool;
  std::vector<IngredientId> reserve;
  std::vector<std::vector<IngredientId>> recipes;

  bool done() const { return recipes.size() >= context->target_recipes; }
};

bool Contains(const std::vector<IngredientId>& recipe, IngredientId id) {
  return std::find(recipe.begin(), recipe.end(), id) != recipe.end();
}

std::vector<IngredientId> FreshRecipe(const CuisineState& state, int size,
                                      Rng* rng) {
  const uint32_t k = std::min<uint32_t>(
      static_cast<uint32_t>(size), static_cast<uint32_t>(state.pool.size()));
  std::vector<IngredientId> out;
  out.reserve(k);
  for (uint32_t idx : SampleWithoutReplacement(
           rng, static_cast<uint32_t>(state.pool.size()), k)) {
    out.push_back(state.pool[idx]);
  }
  return out;
}

}  // namespace

Result<std::vector<TransactionSet>> EvolveHorizontalWorld(
    const std::vector<CuisineContext>& contexts, const Lexicon& lexicon,
    const HorizontalConfig& config) {
  if (contexts.empty()) {
    return Status::InvalidArgument("no cuisine contexts");
  }
  if (config.migration_prob < 0.0 || config.migration_prob > 1.0) {
    return Status::InvalidArgument("migration_prob must be in [0, 1]");
  }

  Rng rng(DeriveSeed(config.seed, 0xB0B0));

  // World-wide fitness: one U(0,1) value per lexicon entity.
  std::vector<double> fitness(lexicon.size());
  for (double& f : fitness) f = rng.NextDouble();

  std::vector<CuisineState> states(contexts.size());
  for (size_t k = 0; k < contexts.size(); ++k) {
    const CuisineContext& context = contexts[k];
    if (context.target_recipes == 0 || context.ingredients.empty() ||
        context.phi <= 0.0) {
      return Status::InvalidArgument("invalid cuisine context");
    }
    CuisineState& state = states[k];
    state.context = &context;
    const uint32_t total =
        static_cast<uint32_t>(context.ingredients.size());
    const uint32_t m0 = std::min<uint32_t>(kInitialPool, total);
    std::vector<bool> chosen(total, false);
    for (uint32_t pick : SampleWithoutReplacement(&rng, total, m0)) {
      chosen[pick] = true;
      state.pool.push_back(context.ingredients[pick]);
    }
    for (uint32_t p = 0; p < total; ++p) {
      if (!chosen[p]) state.reserve.push_back(context.ingredients[p]);
    }
    const size_t n0 = std::min(
        context.target_recipes,
        std::max<size_t>(1, static_cast<size_t>(std::lround(
                                static_cast<double>(state.pool.size()) /
                                context.phi))));
    for (size_t i = 0; i < n0; ++i) {
      state.recipes.push_back(
          FreshRecipe(state, context.mean_recipe_size, &rng));
    }
  }

  // Interleave single steps round-robin until every cuisine reaches its
  // target, so that all pools grow on comparable timescales.
  bool any_incomplete = true;
  while (any_incomplete) {
    any_incomplete = false;
    for (size_t k = 0; k < states.size(); ++k) {
      CuisineState& state = states[k];
      if (state.done()) continue;
      any_incomplete = true;

      const double ratio = static_cast<double>(state.pool.size()) /
                           static_cast<double>(state.recipes.size());
      if (ratio < state.context->phi && !state.reserve.empty()) {
        const size_t r = rng.NextBounded(state.reserve.size());
        state.pool.push_back(state.reserve[r]);
        state.reserve[r] = state.reserve.back();
        state.reserve.pop_back();
        continue;
      }

      // Mother selection: local, or horizontal from another cuisine.
      const std::vector<IngredientId>* mother = nullptr;
      if (states.size() > 1 && rng.NextBool(config.migration_prob)) {
        size_t donor = rng.NextBounded(states.size() - 1);
        if (donor >= k) ++donor;
        const auto& donor_recipes = states[donor].recipes;
        if (!donor_recipes.empty()) {
          mother = &donor_recipes[rng.NextBounded(donor_recipes.size())];
        }
      }
      if (mother == nullptr) {
        mother = &state.recipes[rng.NextBounded(state.recipes.size())];
      }

      std::vector<IngredientId> recipe = *mother;
      for (int g = 0; g < kMutations; ++g) {
        const size_t slot = rng.NextBounded(recipe.size());
        const IngredientId i = recipe[slot];
        const IngredientId j =
            state.pool[rng.NextBounded(state.pool.size())];
        if (fitness[j] > fitness[i] && !Contains(recipe, j)) {
          recipe[slot] = j;
        }
      }
      state.recipes.push_back(std::move(recipe));
    }
  }

  std::vector<TransactionSet> world(states.size());
  for (size_t k = 0; k < states.size(); ++k) {
    world[k].Reserve(states[k].recipes.size());
    for (const std::vector<IngredientId>& recipe : states[k].recipes) {
      world[k].AddIngredientSet(recipe);
    }
  }
  return world;
}

}  // namespace culevo
