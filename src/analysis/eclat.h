#ifndef CULEVO_ANALYSIS_ECLAT_H_
#define CULEVO_ANALYSIS_ECLAT_H_

#include <vector>

#include "analysis/transactions.h"

namespace culevo {

class CancelToken;

/// Tuning knobs for the Eclat engine. The defaults are what the pipeline
/// uses; tests pin `density_threshold` to force the pure-dense or
/// pure-sparse code paths.
struct EclatOptions {
  /// When non-null, the miner polls this token before each root class and
  /// stops once it trips. A root class that already started always
  /// finishes, so the partial result is every itemset of a prefix of the
  /// root classes (ascending singleton support, ties broken by item) —
  /// sorted and never torn, but not the full answer. Callers that pass a
  /// token are expected to detect the trip themselves (CancelToken::Check)
  /// and discard or label the partial result.
  const CancelToken* cancel = nullptr;

  /// A tid list with support >= ceil(density_threshold * num_transactions)
  /// is stored as a dense bitset, below that as a sorted sparse uint32
  /// vector. 1/32 is the memory break-even point (bitset = n/8 bytes vs
  /// 4 bytes per tid). <= 0 forces all-dense, > 1 forces all-sparse.
  double density_threshold = 1.0 / 32.0;
};

/// Eclat frequent-itemset mining (Zaki 2000) over vertical tid lists in a
/// hybrid dense-bitset / sparse-vector representation, with arena-backed
/// candidate storage. Produces exactly the same itemsets as MineApriori
/// (the test suite cross-checks them) but runs orders of magnitude faster
/// on the corpus-sized inputs used by the benchmark harness.
///
/// Returns every itemset of size >= 1 with support >= `min_support_count`
/// (0 is treated as 1), sorted with ItemsetLess.
std::vector<Itemset> MineEclat(const TransactionSet& transactions,
                               size_t min_support_count,
                               const EclatOptions& options);
std::vector<Itemset> MineEclat(const TransactionSet& transactions,
                               size_t min_support_count);

}  // namespace culevo

#endif  // CULEVO_ANALYSIS_ECLAT_H_
