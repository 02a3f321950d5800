#ifndef CULEVO_ANALYSIS_COMBINATIONS_H_
#define CULEVO_ANALYSIS_COMBINATIONS_H_

#include <cstddef>
#include <vector>

#include "analysis/rank_frequency.h"
#include "analysis/transactions.h"
#include "corpus/recipe_corpus.h"
#include "lexicon/lexicon.h"

namespace culevo {

class CancelToken;

/// Parameters of the paper's combination analysis (Section IV): itemsets of
/// size >= 1 appearing in at least `min_relative_support` of a cuisine's
/// recipes (the paper uses 5%), mined with Eclat.
struct CombinationConfig {
  double min_relative_support = 0.05;
  /// Polled by the Eclat root loop (see EclatOptions::cancel): a tripped
  /// token makes the mined result a partial prefix, which the caller must
  /// detect and discard. Null = never cancelled.
  const CancelToken* cancel = nullptr;
};

/// Converts a relative support into an absolute transaction count
/// (ceiling, at least 1).
size_t AbsoluteSupport(size_t num_transactions, double min_relative_support);

/// Mines all frequent combinations of a transaction database.
std::vector<Itemset> MineCombinations(const TransactionView& transactions,
                                      const CombinationConfig& config = {});
std::vector<Itemset> MineCombinations(const TransactionSet& transactions,
                                      const CombinationConfig& config = {});

/// The popularity (rank-frequency) curve of a transaction database's
/// frequent combinations: supports normalized by the transaction count,
/// sorted descending — one point per frequent itemset (Fig. 3 / Fig. 4).
RankFrequency CombinationCurve(const TransactionView& transactions,
                               const CombinationConfig& config = {});
RankFrequency CombinationCurve(const TransactionSet& transactions,
                               const CombinationConfig& config = {});

/// Fig. 3(a): ingredient-combination curve of one cuisine.
RankFrequency IngredientCombinationCurve(const RecipeCorpus& corpus,
                                         CuisineId cuisine,
                                         const CombinationConfig& config = {});

/// Fig. 3(b): category-combination curve of one cuisine.
RankFrequency CategoryCombinationCurve(const RecipeCorpus& corpus,
                                       CuisineId cuisine,
                                       const Lexicon& lexicon,
                                       const CombinationConfig& config = {});

}  // namespace culevo

#endif  // CULEVO_ANALYSIS_COMBINATIONS_H_
