#include "testing/apriori.h"

#include <algorithm>
#include <span>
#include <unordered_set>

#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "util/hash.h"

namespace culevo {
namespace {

/// Order-sensitive hash of a sorted itemset, for the prune lookups.
struct ItemsetHash {
  size_t operator()(const std::vector<Item>& items) const {
    uint64_t seed = 0xC2B2AE3D27D4EB4Full ^ items.size();
    for (const Item item : items) seed = HashCombine(seed, item);
    return static_cast<size_t>(seed);
  }
};

/// Candidate generation: joins pairs of frequent (k-1)-itemsets sharing a
/// (k-2)-prefix, then prunes candidates with an infrequent (k-1)-subset.
std::vector<std::vector<Item>> GenerateCandidates(
    const std::vector<std::vector<Item>>& frequent_prev) {
  std::unordered_set<std::vector<Item>, ItemsetHash> frequent_lookup(
      frequent_prev.size());
  for (const std::vector<Item>& itemset : frequent_prev) {
    frequent_lookup.insert(itemset);
  }

  std::vector<std::vector<Item>> candidates;
  std::vector<Item> subset;  // Scratch for the prune probes.
  for (size_t a = 0; a < frequent_prev.size(); ++a) {
    for (size_t b = a + 1; b < frequent_prev.size(); ++b) {
      const std::vector<Item>& x = frequent_prev[a];
      const std::vector<Item>& y = frequent_prev[b];
      // frequent_prev is sorted, so itemsets sharing a (k-2)-prefix form a
      // contiguous run: once y's prefix differs from x's, no later y
      // matches either.
      if (!std::equal(x.begin(), x.end() - 1, y.begin(), y.end() - 1)) {
        break;
      }
      std::vector<Item> candidate = x;
      candidate.push_back(y.back());
      // Prune: every (k-1)-subset must be frequent. (Dropping the last
      // element gives x, frequent by construction.)
      bool all_subsets_frequent = true;
      for (size_t drop = 0; drop + 1 < candidate.size(); ++drop) {
        subset.clear();
        for (size_t k = 0; k < candidate.size(); ++k) {
          if (k != drop) subset.push_back(candidate[k]);
        }
        if (frequent_lookup.find(subset) == frequent_lookup.end()) {
          all_subsets_frequent = false;
          break;
        }
      }
      if (all_subsets_frequent) candidates.push_back(std::move(candidate));
    }
  }
  std::sort(candidates.begin(), candidates.end());
  return candidates;
}

/// Support counting via a prefix index: candidates (sorted, all of equal
/// size k) are bucketed by first item, and a transaction only probes the
/// buckets of the items it actually contains — O(sum over items in t of
/// bucket size) per transaction instead of O(|C|).
void CountSupports(const TransactionSet& transactions,
                   const std::vector<std::vector<Item>>& candidates,
                   std::vector<size_t>* counts) {
  const size_t universe = transactions.item_universe();
  std::vector<std::pair<uint32_t, uint32_t>> buckets(
      universe, {0, 0});  // [begin, end) into `candidates` per first item
  for (size_t c = 0; c < candidates.size();) {
    const Item first = candidates[c][0];
    size_t end = c + 1;
    while (end < candidates.size() && candidates[end][0] == first) ++end;
    buckets[first] = {static_cast<uint32_t>(c), static_cast<uint32_t>(end)};
    c = end;
  }

  const size_t k = candidates.empty() ? 0 : candidates[0].size();
  for (size_t tid = 0; tid < transactions.size(); ++tid) {
    const std::span<const Item> t = transactions.transaction(tid);
    if (t.size() < k) continue;
    for (size_t p = 0; p + k <= t.size(); ++p) {
      const auto [begin, end] = buckets[t[p]];
      for (size_t c = begin; c < end; ++c) {
        const std::vector<Item>& candidate = candidates[c];
        // Two-pointer check of candidate[1:] against t[p+1:]; both sorted.
        size_t i = 1;
        for (size_t j = p + 1; j < t.size() && i < k; ++j) {
          if (t[j] == candidate[i]) {
            ++i;
          } else if (t[j] > candidate[i]) {
            break;
          }
        }
        if (i == k) ++(*counts)[c];
      }
    }
  }
}

}  // namespace

std::vector<Itemset> MineApriori(const TransactionSet& transactions,
                                 size_t min_support_count) {
  static obs::Counter* calls =
      obs::MetricsRegistry::Get().counter("mine.apriori.calls");
  static obs::Counter* itemsets =
      obs::MetricsRegistry::Get().counter("mine.apriori.itemsets");
  static obs::Counter* levels =
      obs::MetricsRegistry::Get().counter("mine.apriori.levels");
  static obs::Histogram* wall_ms =
      obs::MetricsRegistry::Get().histogram("mine.apriori.ms");
  obs::ScopedTimer timer(wall_ms);
  calls->Increment();

  if (min_support_count == 0) min_support_count = 1;
  std::vector<Itemset> result;

  // Level 1: count singletons.
  std::vector<size_t> single_counts(transactions.item_universe(), 0);
  for (Item item : transactions.items()) ++single_counts[item];
  std::vector<std::vector<Item>> frequent;
  for (size_t item = 0; item < single_counts.size(); ++item) {
    if (single_counts[item] >= min_support_count) {
      frequent.push_back({static_cast<Item>(item)});
      result.push_back(
          Itemset{{static_cast<Item>(item)}, single_counts[item]});
    }
  }

  if (!frequent.empty()) levels->Increment();  // level 1 produced output

  // Levels k >= 2.
  while (!frequent.empty()) {
    const std::vector<std::vector<Item>> candidates =
        GenerateCandidates(frequent);
    if (candidates.empty()) break;
    levels->Increment();
    std::vector<size_t> counts(candidates.size(), 0);
    CountSupports(transactions, candidates, &counts);
    frequent.clear();
    for (size_t c = 0; c < candidates.size(); ++c) {
      if (counts[c] >= min_support_count) {
        frequent.push_back(candidates[c]);
        result.push_back(Itemset{candidates[c], counts[c]});
      }
    }
  }

  std::sort(result.begin(), result.end(), ItemsetLess);
  itemsets->Increment(static_cast<int64_t>(result.size()));
  return result;
}

}  // namespace culevo
