#include "core/evolution_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/hash.h"
#include "util/strings.h"

namespace culevo {

uint64_t EvolutionModel::ConfigFingerprint() const {
  uint64_t hash = 0xA0761D6478BD642Full;
  for (unsigned char c : name()) {
    hash = HashCombine(hash, static_cast<uint64_t>(c));
  }
  return hash;
}

Result<CuisineContext> ContextFromCorpus(const RecipeCorpus& corpus,
                                         CuisineId cuisine) {
  if (cuisine >= kNumCuisines) {
    return Status::InvalidArgument("cuisine id out of range");
  }
  const size_t n = corpus.num_recipes_in(cuisine);
  if (n == 0) {
    return Status::FailedPrecondition(
        StrFormat("cuisine %s has no recipes",
                  std::string(CuisineAt(cuisine).code).c_str()));
  }
  CuisineContext context;
  context.cuisine = cuisine;
  const std::span<const IngredientId> unique =
      corpus.UniqueIngredients(cuisine);
  context.ingredients.assign(unique.begin(), unique.end());
  context.target_recipes = n;
  context.phi = static_cast<double>(context.ingredients.size()) /
                static_cast<double>(n);
  context.mean_recipe_size = std::max(
      1, static_cast<int>(std::lround(corpus.MeanRecipeSize(cuisine))));
  if (static_cast<size_t>(context.mean_recipe_size) >
      context.ingredients.size()) {
    return Status::FailedPrecondition(
        "mean recipe size exceeds the cuisine's ingredient count");
  }

  // Presence fraction per ingredient, aligned with context.ingredients,
  // read off the corpus's presence counts at the list's ids.
  const std::span<const uint32_t> counts = corpus.presence(cuisine);
  context.popularity.resize(unique.size());
  for (size_t i = 0; i < unique.size(); ++i) {
    context.popularity[i] =
        static_cast<double>(counts[unique[i]]) / static_cast<double>(n);
  }
  return context;
}

Status ValidateCuisineContext(const CuisineContext& context) {
  if (context.target_recipes == 0) {
    return Status::InvalidArgument("target_recipes must be positive");
  }
  if (context.ingredients.empty()) {
    return Status::InvalidArgument("cuisine has no ingredients");
  }
  // Valid ids are 0..65,534 (0xFFFF is kInvalidIngredient), so a list of
  // distinct ids, as ContextFromCorpus makes, always fits; only one that
  // repeats ids can be longer.
  constexpr size_t kMaxIngredients = std::numeric_limits<PoolPos>::max();
  if (context.ingredients.size() > kMaxIngredients) {
    return Status::InvalidArgument(StrFormat(
        "ingredient list of %zu entries exceeds the %zu a pool position "
        "indexes",
        context.ingredients.size(), kMaxIngredients));
  }
  if (context.phi <= 0.0) {
    return Status::InvalidArgument("phi must be positive");
  }
  if (context.mean_recipe_size <= 0) {
    return Status::InvalidArgument("mean_recipe_size must be positive");
  }
  return Status::Ok();
}

}  // namespace culevo
