#include "analysis/distance.h"

#include <gtest/gtest.h>

namespace culevo {
namespace {

RankFrequency Curve(std::vector<double> values) {
  return RankFrequency::FromFrequencies(std::move(values));
}

TEST(MaeTest, KnownValue) {
  // Shared range r = 2: |0.8-0.6| + |0.4-0.2| over 2 = 0.2.
  EXPECT_DOUBLE_EQ(
      MeanAbsoluteError(Curve({0.8, 0.4}), Curve({0.6, 0.2, 0.1})), 0.2);
}

TEST(MaeTest, IdenticalCurvesAreZero) {
  const RankFrequency a = Curve({0.5, 0.3, 0.1});
  EXPECT_DOUBLE_EQ(MeanAbsoluteError(a, a), 0.0);
}

TEST(MaeTest, Symmetric) {
  const RankFrequency a = Curve({0.9, 0.2});
  const RankFrequency b = Curve({0.4, 0.4, 0.4});
  EXPECT_DOUBLE_EQ(MeanAbsoluteError(a, b), MeanAbsoluteError(b, a));
}

TEST(MaeTest, BothEmptyIsZero) {
  EXPECT_DOUBLE_EQ(MeanAbsoluteError(RankFrequency(), RankFrequency()), 0.0);
}

TEST(MaeTest, OneEmptyComparesAgainstZeros) {
  EXPECT_DOUBLE_EQ(MeanAbsoluteError(Curve({0.4, 0.2}), RankFrequency()),
                   0.3);
  EXPECT_DOUBLE_EQ(MeanAbsoluteError(RankFrequency(), Curve({0.4, 0.2})),
                   0.3);
}

TEST(PaperEq2Test, SquaredForm) {
  // (0.2^2 + 0.2^2) / 2 = 0.04.
  EXPECT_DOUBLE_EQ(
      PaperEq2Distance(Curve({0.8, 0.4}), Curve({0.6, 0.2})), 0.04);
}

TEST(PaperEq2Test, SmallerThanMaeForSubUnitGaps) {
  const RankFrequency a = Curve({0.8, 0.4});
  const RankFrequency b = Curve({0.6, 0.1});
  EXPECT_LT(PaperEq2Distance(a, b), MeanAbsoluteError(a, b));
}

TEST(PairwiseMaeTest, SymmetricZeroDiagonal) {
  const std::vector<RankFrequency> curves = {
      Curve({0.8, 0.4}), Curve({0.6, 0.2}), Curve({0.5})};
  const auto matrix = PairwiseMae(curves);
  ASSERT_EQ(matrix.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(matrix[i][i], 0.0);
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(matrix[i][j], matrix[j][i]);
    }
  }
  EXPECT_DOUBLE_EQ(matrix[0][1], 0.2);
}

TEST(MeanOffDiagonalTest, AveragesUpperTriangle) {
  const std::vector<std::vector<double>> matrix = {
      {0.0, 1.0, 2.0}, {1.0, 0.0, 3.0}, {2.0, 3.0, 0.0}};
  EXPECT_DOUBLE_EQ(MeanOffDiagonal(matrix), 2.0);
  EXPECT_DOUBLE_EQ(MeanOffDiagonal({{0.0}}), 0.0);
  EXPECT_DOUBLE_EQ(MeanOffDiagonal({}), 0.0);
}

}  // namespace
}  // namespace culevo
