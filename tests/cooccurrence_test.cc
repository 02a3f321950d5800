#include "analysis/cooccurrence.h"

#include <gtest/gtest.h>

#include <cmath>

namespace culevo {
namespace {

RecipeCorpus PairingCorpus() {
  RecipeCorpus::Builder builder;
  // Ingredients 1 and 2 always together (4/4); ingredient 3 independent.
  EXPECT_TRUE(builder.Add(0, {1, 2}).ok());
  EXPECT_TRUE(builder.Add(0, {1, 2, 3}).ok());
  EXPECT_TRUE(builder.Add(0, {1, 2}).ok());
  EXPECT_TRUE(builder.Add(0, {3, 4}).ok());
  return builder.Build();
}

TEST(PairingNetworkTest, CountsAndPmi) {
  const std::vector<PairingEdge> edges =
      BuildPairingNetwork(PairingCorpus(), 0, 1);
  // Pairs: (1,2):3, (1,3):1, (2,3):1, (3,4):1.
  ASSERT_EQ(edges.size(), 4u);

  const PairingEdge* pair_12 = nullptr;
  for (const PairingEdge& edge : edges) {
    EXPECT_LT(edge.a, edge.b);  // Canonical orientation.
    if (edge.a == 1 && edge.b == 2) pair_12 = &edge;
  }
  ASSERT_NE(pair_12, nullptr);
  EXPECT_EQ(pair_12->cooccurrences, 3u);
  // p(1,2)=3/4, p(1)=3/4, p(2)=3/4 -> PMI = log2((3/4)/(9/16)) = log2(4/3).
  EXPECT_NEAR(pair_12->pmi, std::log2(4.0 / 3.0), 1e-12);
}

TEST(PairingNetworkTest, MinCooccurrenceFilters) {
  const std::vector<PairingEdge> edges =
      BuildPairingNetwork(PairingCorpus(), 0, 2);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].a, 1);
  EXPECT_EQ(edges[0].b, 2);
}

TEST(PairingNetworkTest, SortedByPmiDescending) {
  const std::vector<PairingEdge> edges =
      BuildPairingNetwork(PairingCorpus(), 0, 1);
  for (size_t i = 1; i < edges.size(); ++i) {
    EXPECT_GE(edges[i - 1].pmi, edges[i].pmi);
  }
  // (3,4): p=1/4, p(3)=2/4, p(4)=1/4 -> PMI = log2((1/4)/(1/8)) = 1: top.
  EXPECT_EQ(edges[0].a, 3);
  EXPECT_EQ(edges[0].b, 4);
}

TEST(PairingNetworkTest, EmptyCuisine) {
  EXPECT_TRUE(BuildPairingNetwork(PairingCorpus(), 7, 1).empty());
}

}  // namespace
}  // namespace culevo
