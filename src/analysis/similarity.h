#ifndef CULEVO_ANALYSIS_SIMILARITY_H_
#define CULEVO_ANALYSIS_SIMILARITY_H_

#include <string>
#include <vector>

#include "analysis/rank_frequency.h"
#include "corpus/recipe_corpus.h"
#include "lexicon/lexicon.h"

namespace culevo {

/// Cuisine-to-cuisine ingredient-usage distances — tooling for the
/// Section-III/IV discussion of how distinct or homogeneous world cuisines
/// are.

/// Sparse ingredient-usage profile of one cuisine: the presence fraction
/// of every ingredient the cuisine actually uses (parallel arrays, sorted
/// by ingredient id) plus the precomputed L2 norm of the fraction vector.
/// Equivalent to the dense presence-fraction vector over the full
/// ingredient id space with the zeros elided — cosine arithmetic over a
/// profile is bit-identical to the dense computation, because zero terms
/// contribute exactly 0.0 to sums of non-negative products.
struct CuisineUsageProfile {
  std::vector<IngredientId> ingredients;  ///< Sorted ascending.
  std::vector<double> fractions;          ///< Parallel to `ingredients`.
  double norm = 0.0;                      ///< sqrt(sum of fraction^2).

  bool empty() const { return ingredients.empty(); }
};

/// Builds the sparse usage profile of one cuisine: its row of the
/// corpus's recipe-presence counts, zeros dropped, divided by N^c.
CuisineUsageProfile BuildUsageProfile(const RecipeCorpus& corpus,
                                      CuisineId cuisine);

/// 1 - cosine similarity of two profiles. 0 = identical usage profile,
/// 1 = orthogonal; two empty profiles are at distance 0, an empty profile
/// is at distance 1 from any non-empty one.
double UsageProfileDistance(const CuisineUsageProfile& a,
                            const CuisineUsageProfile& b);

/// All kNumCuisines sparse usage profiles, built once. This is the
/// serving-path cache: a single-pair distance or nearest-cuisines query
/// against the cache never rescans a cuisine's recipes.
class UsageProfileCache {
 public:
  explicit UsageProfileCache(const RecipeCorpus& corpus);

  /// Precondition: cuisine < kNumCuisines.
  const CuisineUsageProfile& profile(CuisineId cuisine) const {
    return profiles_[cuisine];
  }

  /// 1 - cosine similarity of the two cuisines' ingredient-usage vectors
  /// (presence fraction per ingredient), from the cached profiles.
  double Distance(CuisineId a, CuisineId b) const {
    return UsageProfileDistance(profiles_[a], profiles_[b]);
  }

 private:
  std::vector<CuisineUsageProfile> profiles_;
};

/// The `k` nearest cuisines to `cuisine` under ingredient-usage distance,
/// closest first (excluding itself and empty cuisines).
struct CuisineNeighbor {
  CuisineId cuisine = 0;
  double distance = 0.0;
};
std::vector<CuisineNeighbor> NearestCuisines(const RecipeCorpus& corpus,
                                             CuisineId cuisine, size_t k);

/// NearestCuisines served from cached profiles (identical ordering:
/// ascending distance, then ascending cuisine id; self and empty cuisines
/// excluded).
std::vector<CuisineNeighbor> NearestCuisines(const UsageProfileCache& cache,
                                             CuisineId cuisine, size_t k);

}  // namespace culevo

#endif  // CULEVO_ANALYSIS_SIMILARITY_H_
