#include "analysis/similarity.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace culevo {

CuisineUsageProfile BuildUsageProfile(const PresenceCounts& counts,
                                      CuisineId cuisine) {
  CuisineUsageProfile profile;
  const size_t recipes = counts.recipes_in(cuisine);
  if (recipes == 0) return profile;

  // The nonzero counts, in ascending id order, are the profile's key
  // column; the norm accumulates in the same order.
  const std::span<const uint32_t> row = counts.cuisine(cuisine);
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

CuisineUsageProfile BuildUsageProfile(const RecipeCorpus& corpus,
                                      CuisineId cuisine) {
  return BuildUsageProfile(PresenceCounts(corpus), cuisine);
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

UsageProfileCache::UsageProfileCache(const RecipeCorpus& corpus)
    : UsageProfileCache(PresenceCounts(corpus)) {}

UsageProfileCache::UsageProfileCache(const PresenceCounts& counts) {
  profiles_.reserve(kNumCuisines);
  for (int c = 0; c < kNumCuisines; ++c) {
    profiles_.push_back(
        BuildUsageProfile(counts, static_cast<CuisineId>(c)));
  }
}

double IngredientUsageDistance(const RecipeCorpus& corpus, CuisineId a,
                               CuisineId b) {
  const PresenceCounts counts(corpus);
  return UsageProfileDistance(BuildUsageProfile(counts, a),
                              BuildUsageProfile(counts, b));
}

std::vector<std::vector<double>> IngredientUsageDistanceMatrix(
    const RecipeCorpus& corpus) {
  const UsageProfileCache cache(corpus);
  std::vector<std::vector<double>> matrix(
      kNumCuisines, std::vector<double>(kNumCuisines, 0.0));
  for (int i = 0; i < kNumCuisines; ++i) {
    for (int j = i + 1; j < kNumCuisines; ++j) {
      const double d = cache.Distance(static_cast<CuisineId>(i),
                                      static_cast<CuisineId>(j));
      matrix[static_cast<size_t>(i)][static_cast<size_t>(j)] = d;
      matrix[static_cast<size_t>(j)][static_cast<size_t>(i)] = d;
    }
  }
  return matrix;
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

std::vector<ClusterMerge> AgglomerativeCluster(
    const std::vector<std::vector<double>>& matrix) {
  const size_t n = matrix.size();
  for (const std::vector<double>& row : matrix) {
    CULEVO_CHECK(row.size() == n);
  }
  if (n <= 1) return {};

  // Active clusters as member lists; average linkage computed from the
  // original matrix (O(n^3) overall — trivial at n = 25).
  std::vector<std::vector<CuisineId>> clusters;
  clusters.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    clusters.push_back({static_cast<CuisineId>(i)});
  }

  const auto linkage = [&matrix](const std::vector<CuisineId>& a,
                                 const std::vector<CuisineId>& b) {
    double total = 0.0;
    for (CuisineId x : a) {
      for (CuisineId y : b) total += matrix[x][y];
    }
    return total / static_cast<double>(a.size() * b.size());
  };

  std::vector<ClusterMerge> merges;
  while (clusters.size() > 1) {
    size_t best_i = 0;
    size_t best_j = 1;
    double best = linkage(clusters[0], clusters[1]);
    for (size_t i = 0; i < clusters.size(); ++i) {
      for (size_t j = i + 1; j < clusters.size(); ++j) {
        const double d = linkage(clusters[i], clusters[j]);
        if (d < best) {
          best = d;
          best_i = i;
          best_j = j;
        }
      }
    }
    std::vector<CuisineId> merged = clusters[best_i];
    merged.insert(merged.end(), clusters[best_j].begin(),
                  clusters[best_j].end());
    std::sort(merged.begin(), merged.end());
    clusters.erase(clusters.begin() + static_cast<long>(best_j));
    clusters.erase(clusters.begin() + static_cast<long>(best_i));
    clusters.push_back(merged);
    merges.push_back(ClusterMerge{std::move(merged), best});
  }
  return merges;
}

std::vector<std::vector<CuisineId>> CutClusters(
    const std::vector<std::vector<double>>& matrix, size_t k) {
  const size_t n = matrix.size();
  CULEVO_CHECK(k >= 1 && k <= n);
  std::vector<std::vector<CuisineId>> clusters;
  for (size_t i = 0; i < n; ++i) {
    clusters.push_back({static_cast<CuisineId>(i)});
  }
  // Replay the merge sequence until k clusters remain.
  const std::vector<ClusterMerge> merges = AgglomerativeCluster(matrix);
  size_t remaining = n;
  for (const ClusterMerge& merge : merges) {
    if (remaining == k) break;
    // Remove the two clusters whose union is `merge.members`, insert it.
    std::vector<std::vector<CuisineId>> next;
    for (std::vector<CuisineId>& cluster : clusters) {
      const bool subsumed = std::includes(
          merge.members.begin(), merge.members.end(), cluster.begin(),
          cluster.end());
      if (!subsumed) next.push_back(std::move(cluster));
    }
    next.push_back(merge.members);
    clusters = std::move(next);
    --remaining;
  }
  std::sort(clusters.begin(), clusters.end());
  return clusters;
}

}  // namespace culevo
