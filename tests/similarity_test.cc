#include "analysis/similarity.h"

#include <cmath>

#include <gtest/gtest.h>

namespace culevo {
namespace {

RecipeCorpus ThreeCuisines() {
  RecipeCorpus::Builder builder;
  // Cuisines 0 and 1 share ingredients; cuisine 2 is disjoint.
  EXPECT_TRUE(builder.Add(0, {1, 2, 3}).ok());
  EXPECT_TRUE(builder.Add(0, {1, 2}).ok());
  EXPECT_TRUE(builder.Add(1, {1, 2, 4}).ok());
  EXPECT_TRUE(builder.Add(1, {2, 3}).ok());
  EXPECT_TRUE(builder.Add(2, {10, 11, 12}).ok());
  return builder.Build();
}

TEST(UsageDistanceTest, SelfIsZeroDisjointIsOne) {
  const UsageProfileCache cache(ThreeCuisines());
  EXPECT_NEAR(cache.Distance(0, 0), 0.0, 1e-12);
  EXPECT_NEAR(cache.Distance(0, 2), 1.0, 1e-12);
  const double near = cache.Distance(0, 1);
  EXPECT_GT(near, 0.0);
  EXPECT_LT(near, 0.5);
}

TEST(UsageDistanceTest, SymmetricMatrix) {
  const UsageProfileCache cache(ThreeCuisines());
  for (CuisineId i = 0; i < kNumCuisines; ++i) {
    // Self-distance is 1 - cosine, zero up to rounding.
    EXPECT_NEAR(cache.Distance(i, i), 0.0, 1e-12);
    for (CuisineId j = 0; j < kNumCuisines; ++j) {
      EXPECT_DOUBLE_EQ(cache.Distance(i, j), cache.Distance(j, i));
    }
  }
}

TEST(UsageDistanceTest, EmptyCuisinesAreFar) {
  const UsageProfileCache cache(ThreeCuisines());
  // Cuisine 5 has no recipes: distance 1 to populated cuisines.
  EXPECT_DOUBLE_EQ(cache.Distance(5, 0), 1.0);
  // Two empty cuisines: both zero vectors -> distance 0.
  EXPECT_DOUBLE_EQ(cache.Distance(5, 6), 0.0);
}

TEST(NearestCuisinesTest, OrdersByDistance) {
  const RecipeCorpus corpus = ThreeCuisines();
  const std::vector<CuisineNeighbor> neighbors =
      NearestCuisines(corpus, 0, 5);
  ASSERT_EQ(neighbors.size(), 2u);  // Only cuisines 1 and 2 are populated.
  EXPECT_EQ(neighbors[0].cuisine, 1);
  EXPECT_EQ(neighbors[1].cuisine, 2);
  EXPECT_LT(neighbors[0].distance, neighbors[1].distance);
}

TEST(UsageProfileTest, SparseProfileMatchesDenseDefinition) {
  const RecipeCorpus corpus = ThreeCuisines();
  const CuisineUsageProfile profile = BuildUsageProfile(corpus, 0);
  // Cuisine 0: ingredient 1 in 2/2 recipes, 2 in 2/2, 3 in 1/2.
  ASSERT_EQ(profile.ingredients, (std::vector<IngredientId>{1, 2, 3}));
  ASSERT_EQ(profile.fractions.size(), 3u);
  EXPECT_DOUBLE_EQ(profile.fractions[0], 1.0);
  EXPECT_DOUBLE_EQ(profile.fractions[1], 1.0);
  EXPECT_DOUBLE_EQ(profile.fractions[2], 0.5);
  EXPECT_DOUBLE_EQ(profile.norm, std::sqrt(1.0 + 1.0 + 0.25));
  EXPECT_TRUE(BuildUsageProfile(corpus, 5).empty());
}

// The cached-profile distance must be bit-identical to the distance of
// two freshly built profiles (same accumulation order, zero terms
// contribute exactly 0.0), so downstream rankings cannot shift.
TEST(UsageProfileTest, CacheDistanceBitIdenticalToDirect) {
  const RecipeCorpus corpus = ThreeCuisines();
  const UsageProfileCache cache(corpus);
  for (int a = 0; a < kNumCuisines; ++a) {
    for (int b = 0; b < kNumCuisines; ++b) {
      EXPECT_EQ(cache.Distance(static_cast<CuisineId>(a),
                               static_cast<CuisineId>(b)),
                UsageProfileDistance(
                    BuildUsageProfile(corpus, static_cast<CuisineId>(a)),
                    BuildUsageProfile(corpus, static_cast<CuisineId>(b))))
          << a << " vs " << b;
    }
  }
}

TEST(UsageProfileTest, CachedNearestMatchesCorpusOverload) {
  const RecipeCorpus corpus = ThreeCuisines();
  const UsageProfileCache cache(corpus);
  const auto direct = NearestCuisines(corpus, 0, 5);
  const auto cached = NearestCuisines(cache, 0, 5);
  ASSERT_EQ(cached.size(), direct.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(cached[i].cuisine, direct[i].cuisine);
    EXPECT_EQ(cached[i].distance, direct[i].distance);
  }
}

}  // namespace
}  // namespace culevo
