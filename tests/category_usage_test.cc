#include "analysis/category_usage.h"

#include <gtest/gtest.h>

namespace culevo {
namespace {

class CategoryUsageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    basil_ = lexicon_.Add("Basil", Category::kHerb).value();
    mint_ = lexicon_.Add("Mint", Category::kHerb).value();
    salt_ = lexicon_.Add("Salt", Category::kAdditive).value();
    cumin_ = lexicon_.Add("Cumin", Category::kSpice).value();

    RecipeCorpus::Builder builder;
    // Cuisine 0: two recipes with 2 and 1 herbs.
    ASSERT_TRUE(builder.Add(0, {basil_, mint_, salt_}).ok());
    ASSERT_TRUE(builder.Add(0, {basil_, cumin_}).ok());
    // Cuisine 1: no herbs.
    ASSERT_TRUE(builder.Add(1, {salt_, cumin_}).ok());
    corpus_ = builder.Build();
  }

  Lexicon lexicon_;
  IngredientId basil_, mint_, salt_, cumin_;
  RecipeCorpus corpus_;
};

TEST_F(CategoryUsageTest, UsageMatrixMeans) {
  const auto matrix = CategoryUsageMatrix(corpus_, lexicon_);
  ASSERT_EQ(matrix.size(), static_cast<size_t>(kNumCuisines));
  EXPECT_DOUBLE_EQ(matrix[0][static_cast<int>(Category::kHerb)], 1.5);
  EXPECT_DOUBLE_EQ(matrix[0][static_cast<int>(Category::kSpice)], 0.5);
  EXPECT_DOUBLE_EQ(matrix[1][static_cast<int>(Category::kSpice)], 1.0);
  EXPECT_DOUBLE_EQ(matrix[1][static_cast<int>(Category::kHerb)], 0.0);
  // Empty cuisine rows are all zero.
  for (int k = 0; k < kNumCategories; ++k) {
    EXPECT_DOUBLE_EQ(matrix[9][static_cast<size_t>(k)], 0.0);
  }
}

}  // namespace
}  // namespace culevo
