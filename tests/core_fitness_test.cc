#include "core/fitness.h"

#include <gtest/gtest.h>

#include <numeric>

namespace culevo {
namespace {

Lexicon TwoCategoryLexicon(int num_spice, int num_flower) {
  Lexicon lexicon;
  for (int i = 0; i < num_spice; ++i) {
    EXPECT_TRUE(
        lexicon.Add("spice" + std::to_string(i), Category::kSpice).ok());
  }
  for (int i = 0; i < num_flower; ++i) {
    EXPECT_TRUE(
        lexicon.Add("flower" + std::to_string(i), Category::kFlower).ok());
  }
  return lexicon;
}

TEST(FitnessTableTest, UniformValuesInUnitInterval) {
  const Lexicon lexicon = TwoCategoryLexicon(50, 0);
  Rng rng(1);
  const FitnessTable table = FitnessTable::Make(
      FitnessKind::kUniform, lexicon.AllIds(), {}, lexicon, &rng);
  ASSERT_EQ(table.size(), 50u);
  for (size_t i = 0; i < table.size(); ++i) {
    EXPECT_GE(table.at(i), 0.0);
    EXPECT_LT(table.at(i), 1.0);
  }
}

TEST(FitnessTableTest, UniformMeanNearHalf) {
  Lexicon lexicon = TwoCategoryLexicon(400, 0);
  Rng rng(2);
  double total = 0.0;
  for (int round = 0; round < 50; ++round) {
    const FitnessTable table = FitnessTable::Make(
        FitnessKind::kUniform, lexicon.AllIds(), {}, lexicon, &rng);
    total += std::accumulate(table.values().begin(), table.values().end(),
                             0.0);
  }
  EXPECT_NEAR(total / (50.0 * 400.0), 0.5, 0.02);
}

TEST(FitnessTableTest, DeterministicGivenRngState) {
  const Lexicon lexicon = TwoCategoryLexicon(20, 0);
  Rng a(9);
  Rng b(9);
  const FitnessTable ta = FitnessTable::Make(
      FitnessKind::kUniform, lexicon.AllIds(), {}, lexicon, &a);
  const FitnessTable tb = FitnessTable::Make(
      FitnessKind::kUniform, lexicon.AllIds(), {}, lexicon, &b);
  EXPECT_EQ(ta.values(), tb.values());
}

TEST(FitnessTableTest, CategoryBiasRaisesFavoredCategories) {
  // Spice carries the bias weight; Flower does not.
  const Lexicon lexicon = TwoCategoryLexicon(300, 300);
  Rng rng(3);
  double spice_total = 0.0;
  double flower_total = 0.0;
  for (int round = 0; round < 30; ++round) {
    const FitnessTable table = FitnessTable::Make(
        FitnessKind::kCategoryBiased, lexicon.AllIds(), {}, lexicon, &rng);
    for (size_t i = 0; i < 300; ++i) spice_total += table.at(i);
    for (size_t i = 300; i < 600; ++i) flower_total += table.at(i);
  }
  EXPECT_GT(spice_total, flower_total * 1.1);
}

TEST(FitnessTableTest, PopularityRankIsMonotoneInExpectation) {
  const Lexicon lexicon = TwoCategoryLexicon(100, 0);
  std::vector<double> popularity(100);
  for (size_t i = 0; i < popularity.size(); ++i) {
    popularity[i] = static_cast<double>(i) / 100.0;  // Increasing.
  }
  Rng rng(4);
  double low_total = 0.0;
  double high_total = 0.0;
  for (int round = 0; round < 30; ++round) {
    const FitnessTable table =
        FitnessTable::Make(FitnessKind::kPopularityRank, lexicon.AllIds(),
                           popularity, lexicon, &rng);
    for (size_t i = 0; i < 20; ++i) low_total += table.at(i);
    for (size_t i = 80; i < 100; ++i) high_total += table.at(i);
  }
  EXPECT_GT(high_total, low_total * 2.0);
}

TEST(FitnessTableTest, ValuesAlwaysInUnitIntervalForAllKinds) {
  const Lexicon lexicon = TwoCategoryLexicon(64, 64);
  std::vector<double> popularity(128, 0.5);
  Rng rng(5);
  for (FitnessKind kind :
       {FitnessKind::kUniform, FitnessKind::kCategoryBiased,
        FitnessKind::kPopularityRank}) {
    const FitnessTable table = FitnessTable::Make(
        kind, lexicon.AllIds(), popularity, lexicon, &rng);
    for (double v : table.values()) {
      EXPECT_GE(v, 0.0) << static_cast<int>(kind);
      EXPECT_LE(v, 1.0) << static_cast<int>(kind);
    }
  }
}

}  // namespace
}  // namespace culevo
