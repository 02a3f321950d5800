// Shared helper of the model suites: a model's recipe pool in the form
// every production caller mines it, GenerateInto + StoreTransactions.
#ifndef CULEVO_TESTS_MODEL_TEST_UTIL_H_
#define CULEVO_TESTS_MODEL_TEST_UTIL_H_

#include <cstdint>

#include "core/evolution_model.h"
#include "core/simulation.h"

namespace culevo {

/// Runs `model` at (context, seed) and returns its recipe pool, one sorted
/// ingredient-id transaction per recipe.
inline Result<TransactionSet> GenerateRecipes(const EvolutionModel& model,
                                              const CuisineContext& context,
                                              uint64_t seed) {
  RecipeStore store;
  CULEVO_RETURN_IF_ERROR(model.GenerateInto(context, seed, &store));
  return StoreTransactions(store, context.ingredients);
}

}  // namespace culevo

#endif  // CULEVO_TESTS_MODEL_TEST_UTIL_H_
