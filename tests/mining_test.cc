#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <vector>

#include "analysis/eclat.h"
#include "analysis/transactions.h"
#include "testing/apriori.h"
#include "util/rng.h"

namespace culevo {
namespace {

TransactionSet MakeTransactions(
    std::initializer_list<std::vector<Item>> transactions) {
  TransactionSet out;
  for (std::vector<Item> t : transactions) out.Add(std::move(t));
  return out;
}

/// Exhaustive reference miner: enumerates every subset of the item
/// universe (only usable for tiny universes).
std::vector<Itemset> MineBruteForce(const TransactionSet& transactions,
                                    size_t min_support) {
  if (min_support == 0) min_support = 1;
  const size_t universe = transactions.item_universe();
  std::vector<Itemset> out;
  for (uint32_t mask = 1; mask < (1u << universe); ++mask) {
    std::vector<Item> items;
    for (size_t i = 0; i < universe; ++i) {
      if (mask & (1u << i)) items.push_back(static_cast<Item>(i));
    }
    size_t support = 0;
    for (size_t tid = 0; tid < transactions.size(); ++tid) {
      const std::span<const Item> t = transactions.transaction(tid);
      if (std::includes(t.begin(), t.end(), items.begin(), items.end())) {
        ++support;
      }
    }
    if (support >= min_support) out.push_back(Itemset{items, support});
  }
  std::sort(out.begin(), out.end(), ItemsetLess);
  return out;
}

bool SameItemsets(const std::vector<Itemset>& a,
                  const std::vector<Itemset>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].items != b[i].items || a[i].support != b[i].support) {
      return false;
    }
  }
  return true;
}

// The classic four-transaction example; frequent itemsets at support 2 are
// easy to verify by hand.
TransactionSet ClassicExample() {
  return MakeTransactions({{0, 1, 4},   // bread milk beer
                           {0, 1},      // bread milk
                           {1, 2, 3},   // milk diaper cola
                           {0, 1, 2}}); // bread milk diaper
}

TEST(AprioriTest, HandComputedExample) {
  const std::vector<Itemset> result = MineApriori(ClassicExample(), 2);
  // Frequent: {0}:3 {1}:4 {2}:2 {0,1}:3 {1,2}:2 {0,1}? plus {0,1} pairs...
  std::map<std::vector<Item>, size_t> expected = {
      {{0}, 3},    {{1}, 4},    {{2}, 2},
      {{0, 1}, 3}, {{1, 2}, 2},
  };
  ASSERT_EQ(result.size(), expected.size());
  for (const Itemset& itemset : result) {
    auto it = expected.find(itemset.items);
    ASSERT_NE(it, expected.end());
    EXPECT_EQ(itemset.support, it->second);
  }
}

TEST(AprioriTest, SupportOneFindsEverything) {
  const TransactionSet t = MakeTransactions({{0, 1, 2}});
  // All non-empty subsets of {0,1,2}: 7 itemsets.
  EXPECT_EQ(MineApriori(t, 1).size(), 7u);
  EXPECT_EQ(MineApriori(t, 0).size(), 7u);  // 0 treated as 1.
}

TEST(AprioriTest, HighSupportFindsNothing) {
  EXPECT_TRUE(MineApriori(ClassicExample(), 5).empty());
}

TEST(AprioriTest, EmptyTransactionSet) {
  TransactionSet empty;
  EXPECT_TRUE(MineApriori(empty, 1).empty());
}

TEST(EclatTest, MatchesAprioriOnClassicExample) {
  EXPECT_TRUE(SameItemsets(MineEclat(ClassicExample(), 2),
                           MineApriori(ClassicExample(), 2)));
}

TEST(EclatTest, EmptyAndDegenerateInputs) {
  TransactionSet empty;
  EXPECT_TRUE(MineEclat(empty, 1).empty());
  TransactionSet one = MakeTransactions({{3}});
  const std::vector<Itemset> result = MineEclat(one, 1);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].items, (std::vector<Item>{3}));
  EXPECT_EQ(result[0].support, 1u);
}

struct MinerPropertyParam {
  uint64_t seed;
  size_t num_transactions;
  size_t universe;
  size_t max_len;
  size_t min_support;
};

class MinerEquivalenceTest
    : public ::testing::TestWithParam<MinerPropertyParam> {};

/// Property: Apriori == Eclat == brute force on randomized transaction
/// databases of many shapes.
TEST_P(MinerEquivalenceTest, AllMinersAgree) {
  const MinerPropertyParam p = GetParam();
  Rng rng(p.seed);
  TransactionSet transactions;
  for (size_t i = 0; i < p.num_transactions; ++i) {
    std::vector<Item> t;
    const size_t len = 1 + rng.NextBounded(p.max_len);
    for (size_t j = 0; j < len; ++j) {
      t.push_back(static_cast<Item>(rng.NextBounded(p.universe)));
    }
    std::sort(t.begin(), t.end());
    t.erase(std::unique(t.begin(), t.end()), t.end());
    transactions.Add(std::move(t));
  }

  const std::vector<Itemset> brute =
      MineBruteForce(transactions, p.min_support);
  const std::vector<Itemset> apriori =
      MineApriori(transactions, p.min_support);
  const std::vector<Itemset> eclat = MineEclat(transactions, p.min_support);
  EXPECT_TRUE(SameItemsets(brute, apriori)) << "apriori != brute force";
  EXPECT_TRUE(SameItemsets(brute, eclat)) << "eclat != brute force";
}

INSTANTIATE_TEST_SUITE_P(
    RandomDatabases, MinerEquivalenceTest,
    ::testing::Values(
        MinerPropertyParam{1, 20, 6, 4, 2},
        MinerPropertyParam{2, 50, 8, 5, 3},
        MinerPropertyParam{3, 100, 10, 6, 5},
        MinerPropertyParam{4, 100, 10, 6, 10},
        MinerPropertyParam{5, 30, 12, 8, 2},
        MinerPropertyParam{6, 200, 7, 4, 20},
        MinerPropertyParam{7, 10, 5, 5, 1},
        MinerPropertyParam{8, 500, 9, 3, 25},
        MinerPropertyParam{9, 64, 11, 7, 4},
        MinerPropertyParam{10, 150, 10, 5, 7}));

TEST(MinerScaleTest, EclatHandlesWideTransactions) {
  // 200 transactions over a 300-item universe with heavy co-occurrence.
  Rng rng(99);
  TransactionSet transactions;
  for (int i = 0; i < 200; ++i) {
    std::vector<Item> t = {0, 1, 2};  // Common core.
    for (int j = 0; j < 10; ++j) {
      t.push_back(static_cast<Item>(3 + rng.NextBounded(297)));
    }
    std::sort(t.begin(), t.end());
    t.erase(std::unique(t.begin(), t.end()), t.end());
    transactions.Add(std::move(t));
  }
  const std::vector<Itemset> result = MineEclat(transactions, 150);
  // The common core and its subsets must be found with support 200.
  bool found_core = false;
  for (const Itemset& itemset : result) {
    if (itemset.items == std::vector<Item>{0, 1, 2}) {
      found_core = true;
      EXPECT_EQ(itemset.support, 200u);
    }
  }
  EXPECT_TRUE(found_core);
}

TEST(ItemsetLessTest, OrdersBySizeThenLexicographic) {
  EXPECT_TRUE(ItemsetLess(Itemset{{5}, 1}, Itemset{{1, 2}, 1}));
  EXPECT_TRUE(ItemsetLess(Itemset{{1, 2}, 1}, Itemset{{1, 3}, 1}));
  EXPECT_FALSE(ItemsetLess(Itemset{{1, 3}, 1}, Itemset{{1, 2}, 1}));
}

}  // namespace
}  // namespace culevo
