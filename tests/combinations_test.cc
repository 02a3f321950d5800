#include "analysis/combinations.h"

#include <gtest/gtest.h>

#include "lexicon/lexicon.h"
#include "testing/apriori.h"

namespace culevo {
namespace {

TEST(AbsoluteSupportTest, CeilingWithFloorOfOne) {
  EXPECT_EQ(AbsoluteSupport(100, 0.05), 5u);
  EXPECT_EQ(AbsoluteSupport(101, 0.05), 6u);   // ceil(5.05).
  EXPECT_EQ(AbsoluteSupport(10, 0.001), 1u);   // Floor of 1.
  EXPECT_EQ(AbsoluteSupport(0, 0.05), 1u);
  EXPECT_EQ(AbsoluteSupport(1000, 1.0), 1000u);
}

TransactionSet SkewedTransactions() {
  TransactionSet out;
  // Items 0 and 1 co-occur everywhere; item 2 is present in 40%.
  for (int i = 0; i < 10; ++i) {
    if (i < 4) {
      out.Add(std::vector<Item>{0, 1, 2});
    } else {
      out.Add(std::vector<Item>{0, 1});
    }
  }
  return out;
}

TEST(MineCombinationsTest, RespectsRelativeSupport) {
  CombinationConfig config;
  config.min_relative_support = 0.5;
  const std::vector<Itemset> itemsets =
      MineCombinations(SkewedTransactions(), config);
  // Frequent at 50%: {0}, {1}, {0,1} (support 10 each); {2} misses (4).
  ASSERT_EQ(itemsets.size(), 3u);
  for (const Itemset& itemset : itemsets) EXPECT_EQ(itemset.support, 10u);
}

TEST(MineCombinationsTest, MinersAgree) {
  const TransactionSet transactions = SkewedTransactions();
  const CombinationConfig config;
  const auto a = MineCombinations(transactions, config);
  const auto b = MineApriori(
      transactions,
      AbsoluteSupport(transactions.size(), config.min_relative_support));
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].items, b[i].items);
    EXPECT_EQ(a[i].support, b[i].support);
  }
}

TEST(CombinationCurveTest, NormalizedByTransactionCount) {
  CombinationConfig config;
  config.min_relative_support = 0.3;
  const RankFrequency curve =
      CombinationCurve(SkewedTransactions(), config);
  // Frequent: {0},{1},{0,1} at 1.0 and {2},{0,2},{1,2},{0,1,2} at 0.4.
  ASSERT_EQ(curve.size(), 7u);
  EXPECT_DOUBLE_EQ(curve.at_rank(1), 1.0);
  EXPECT_DOUBLE_EQ(curve.at_rank(3), 1.0);
  EXPECT_DOUBLE_EQ(curve.at_rank(4), 0.4);
  EXPECT_DOUBLE_EQ(curve.at_rank(7), 0.4);
}

TEST(CombinationCurveTest, EmptyTransactions) {
  TransactionSet empty;
  EXPECT_TRUE(CombinationCurve(empty).empty());
}

TEST(CuisineCurvesTest, IngredientAndCategoryProjections) {
  Lexicon lexicon;
  const IngredientId basil = lexicon.Add("Basil", Category::kHerb).value();
  const IngredientId mint = lexicon.Add("Mint", Category::kHerb).value();
  const IngredientId salt = lexicon.Add("Salt", Category::kAdditive).value();

  RecipeCorpus::Builder builder;
  ASSERT_TRUE(builder.Add(0, {basil, salt}).ok());
  ASSERT_TRUE(builder.Add(0, {mint, salt}).ok());
  const RecipeCorpus corpus = builder.Build();

  CombinationConfig config;
  config.min_relative_support = 0.9;
  // Ingredient level: only {Salt} appears in both recipes.
  const RankFrequency ingredient =
      IngredientCombinationCurve(corpus, 0, config);
  ASSERT_EQ(ingredient.size(), 1u);
  EXPECT_DOUBLE_EQ(ingredient.at_rank(1), 1.0);

  // Category level: both recipes project to {Herb, Additive}, so all three
  // category combinations are universal.
  const RankFrequency category =
      CategoryCombinationCurve(corpus, 0, lexicon, config);
  ASSERT_EQ(category.size(), 3u);
  EXPECT_DOUBLE_EQ(category.at_rank(3), 1.0);
}

TEST(TransactionProjectionTest, CategoryTransactionsDeduplicate) {
  Lexicon lexicon;
  const IngredientId basil = lexicon.Add("Basil", Category::kHerb).value();
  const IngredientId mint = lexicon.Add("Mint", Category::kHerb).value();
  RecipeCorpus::Builder builder;
  ASSERT_TRUE(builder.Add(0, {basil, mint}).ok());
  const RecipeCorpus corpus = builder.Build();

  const TransactionSet transactions =
      CategoryTransactions(corpus, 0, lexicon);
  ASSERT_EQ(transactions.size(), 1u);
  // Two herbs project to a single category item.
  EXPECT_EQ(transactions.transaction(0).size(), 1u);
  EXPECT_EQ(transactions.transaction(0)[0],
            static_cast<Item>(Category::kHerb));
}

}  // namespace
}  // namespace culevo
