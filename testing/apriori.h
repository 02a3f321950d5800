#ifndef CULEVO_TESTING_APRIORI_H_
#define CULEVO_TESTING_APRIORI_H_

#include <vector>

#include "analysis/transactions.h"

namespace culevo {

/// Level-wise Apriori frequent-itemset mining (Agrawal & Srikant 1994).
///
/// Returns every itemset of size >= 1 whose support (number of containing
/// transactions) is >= `min_support_count`, sorted with ItemsetLess.
/// `min_support_count` of 0 is treated as 1. The reference that the tests
/// and perf_mining cross-check MineEclat against; no library path mines
/// with it.
std::vector<Itemset> MineApriori(const TransactionSet& transactions,
                                 size_t min_support_count);

}  // namespace culevo

#endif  // CULEVO_TESTING_APRIORI_H_
