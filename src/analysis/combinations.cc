#include "analysis/combinations.h"

#include <cmath>

#include "analysis/eclat.h"

namespace culevo {

size_t AbsoluteSupport(size_t num_transactions, double min_relative_support) {
  const double raw =
      std::ceil(min_relative_support * static_cast<double>(num_transactions));
  const size_t count = raw <= 1.0 ? 1 : static_cast<size_t>(raw);
  return count;
}

std::vector<Itemset> MineCombinations(const TransactionView& transactions,
                                      const CombinationConfig& config) {
  const size_t support =
      AbsoluteSupport(transactions.size(), config.min_relative_support);
  EclatOptions options;
  options.cancel = config.cancel;
  return MineEclat(transactions, support, options);
}

std::vector<Itemset> MineCombinations(const TransactionSet& transactions,
                                      const CombinationConfig& config) {
  return MineCombinations(transactions.view(), config);
}

RankFrequency CombinationCurve(const TransactionView& transactions,
                               const CombinationConfig& config) {
  if (transactions.size() == 0) return RankFrequency();
  const std::vector<Itemset> itemsets =
      MineCombinations(transactions, config);
  std::vector<size_t> counts;
  counts.reserve(itemsets.size());
  for (const Itemset& itemset : itemsets) counts.push_back(itemset.support);
  return RankFrequency::FromCounts(counts, transactions.size());
}

RankFrequency CombinationCurve(const TransactionSet& transactions,
                               const CombinationConfig& config) {
  return CombinationCurve(transactions.view(), config);
}

RankFrequency IngredientCombinationCurve(const RecipeCorpus& corpus,
                                         CuisineId cuisine,
                                         const CombinationConfig& config) {
  return CombinationCurve(IngredientTransactions(corpus, cuisine), config);
}

RankFrequency CategoryCombinationCurve(const RecipeCorpus& corpus,
                                       CuisineId cuisine,
                                       const Lexicon& lexicon,
                                       const CombinationConfig& config) {
  return CombinationCurve(CategoryTransactions(corpus, cuisine, lexicon),
                          config);
}

}  // namespace culevo
