#ifndef CULEVO_ANALYSIS_ECLAT_H_
#define CULEVO_ANALYSIS_ECLAT_H_

#include <vector>

#include "analysis/transactions.h"

namespace culevo {

class CancelToken;

/// Options for one Eclat call. The defaults are what the pipeline uses.
struct EclatOptions {
  /// When non-null, the miner polls this token before each root class and
  /// stops once it trips. A root class that already started always
  /// finishes, so the partial result is every itemset of a prefix of the
  /// root classes (ascending singleton support, ties broken by item) —
  /// sorted and never torn, but not the full answer. Callers that pass a
  /// token are expected to detect the trip themselves (CancelToken::Check)
  /// and discard or label the partial result.
  const CancelToken* cancel = nullptr;
};

/// Eclat frequent-itemset mining (Zaki 2000) over vertical tid lists, each
/// a dense bitset over the transactions, with arena-backed candidate
/// storage. Produces exactly the same itemsets as MineApriori (the test
/// suite cross-checks them) but runs orders of magnitude faster on the
/// corpus-sized inputs used by the benchmark harness.
///
/// Returns every itemset of size >= 1 with support >= `min_support_count`
/// (0 is treated as 1), sorted with ItemsetLess. Itemsets are over the
/// mined items: through the view's item map when it has one.
std::vector<Itemset> MineEclat(const TransactionView& transactions,
                               size_t min_support_count,
                               const EclatOptions& options = {});
std::vector<Itemset> MineEclat(const TransactionSet& transactions,
                               size_t min_support_count,
                               const EclatOptions& options = {});

}  // namespace culevo

#endif  // CULEVO_ANALYSIS_ECLAT_H_
