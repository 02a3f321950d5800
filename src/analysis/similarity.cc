#include "analysis/similarity.h"

#include <algorithm>
#include <cmath>


namespace culevo {

CuisineUsageProfile BuildUsageProfile(const RecipeCorpus& corpus,
                                      CuisineId cuisine) {
  CuisineUsageProfile profile;
  const size_t recipes = corpus.num_recipes_in(cuisine);
  if (recipes == 0) return profile;

  // The nonzero counts, in ascending id order, are the profile's key
  // column; the norm accumulates in the same order.
  const std::span<const uint32_t> row = corpus.presence(cuisine);
  const size_t used = static_cast<size_t>(
      std::count_if(row.begin(), row.end(), [](uint32_t n) { return n != 0; }));
  profile.ingredients.reserve(used);
  profile.fractions.reserve(used);
  const double n = static_cast<double>(recipes);
  double norm_sq = 0.0;
  for (size_t id = 0; id < row.size(); ++id) {
    if (row[id] == 0) continue;
    const double fraction = static_cast<double>(row[id]) / n;
    profile.ingredients.push_back(static_cast<IngredientId>(id));
    profile.fractions.push_back(fraction);
    norm_sq += fraction * fraction;
  }
  profile.norm = std::sqrt(norm_sq);
  return profile;
}

double UsageProfileDistance(const CuisineUsageProfile& a,
                            const CuisineUsageProfile& b) {
  if (a.norm <= 0.0 || b.norm <= 0.0) {
    return (a.norm <= 0.0 && b.norm <= 0.0) ? 0.0 : 1.0;
  }
  // Merge the two sorted id columns; only common ingredients contribute
  // to the dot product, accumulated in ascending id order (the same order
  // the dense vector loop used, so the sum is bit-identical).
  double dot = 0.0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.ingredients.size() && j < b.ingredients.size()) {
    const IngredientId ia = a.ingredients[i];
    const IngredientId ib = b.ingredients[j];
    if (ia < ib) {
      ++i;
    } else if (ib < ia) {
      ++j;
    } else {
      dot += a.fractions[i] * b.fractions[j];
      ++i;
      ++j;
    }
  }
  const double cosine = dot / (a.norm * b.norm);
  return std::clamp(1.0 - cosine, 0.0, 1.0);
}

UsageProfileCache::UsageProfileCache(const RecipeCorpus& corpus) {
  profiles_.reserve(kNumCuisines);
  for (int c = 0; c < kNumCuisines; ++c) {
    profiles_.push_back(
        BuildUsageProfile(corpus, static_cast<CuisineId>(c)));
  }
}

std::vector<CuisineNeighbor> NearestCuisines(const UsageProfileCache& cache,
                                             CuisineId cuisine, size_t k) {
  std::vector<CuisineNeighbor> neighbors;
  for (int c = 0; c < kNumCuisines; ++c) {
    const CuisineId other = static_cast<CuisineId>(c);
    if (other == cuisine || cache.profile(other).empty()) continue;
    neighbors.push_back(CuisineNeighbor{other, cache.Distance(cuisine,
                                                              other)});
  }
  std::sort(neighbors.begin(), neighbors.end(),
            [](const CuisineNeighbor& a, const CuisineNeighbor& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              return a.cuisine < b.cuisine;
            });
  if (neighbors.size() > k) neighbors.resize(k);
  return neighbors;
}

std::vector<CuisineNeighbor> NearestCuisines(const RecipeCorpus& corpus,
                                             CuisineId cuisine, size_t k) {
  return NearestCuisines(UsageProfileCache(corpus), cuisine, k);
}

}  // namespace culevo
