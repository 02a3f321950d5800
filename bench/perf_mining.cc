// Perf-regression harness for the frequent-itemset mining engine.
//
// Times the bitset tid-list Eclat miner and the prefix-indexed Apriori
// reference on three workload families:
//   corpus_sNN   — one mid-sized cuisine's ingredient transactions at
//                  NN% of the synthetic corpus at 5% support (the
//                  pipeline's actual shape);
//   sparse_heavy — a hot core plus a long tail over a 2000-item universe
//                  at 0.4% support (most intersections die early);
//   high_universe — near-uniform draws from an 8000-item universe at
//                  0.15% support (a wide root level of rare items).
//
// With --json <path> it writes BENCH_mining.json (schema documented in
// EXPERIMENTS.md): `<workload>_eclat_st_ms` / `_apriori_ms` medians plus
// `_eclat_st_min_ms` minima per workload plus itemset counts, so timing
// regressions AND result drift are diffable across commits. --reps <n>
// sets the timing repetitions (default 7; median and min reported).
// Cross-check inside the run: where Apriori runs, its itemsets and
// supports must equal Eclat's, and the binary exits non-zero on any
// divergence.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/combinations.h"
#include "analysis/eclat.h"
#include "analysis/transactions.h"
#include "bench/bench_common.h"
#include "corpus/cuisine.h"
#include "testing/apriori.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace {

using namespace culevo;

struct Workload {
  std::string name;
  TransactionSet transactions;
  size_t min_support = 1;
  bool run_apriori = false;  ///< The reference miner is slow; gate it.
};

/// One mid-sized cuisine's transactions, truncated to `fraction`.
TransactionSet CorpusTransactions(const RecipeCorpus& corpus,
                                  double fraction) {
  const CuisineId cuisine = CuisineFromCode("FRA").value();
  const TransactionSet all = IngredientTransactions(corpus, cuisine);
  TransactionSet subset;
  const size_t keep =
      static_cast<size_t>(static_cast<double>(all.size()) * fraction);
  subset.Reserve(keep);
  for (size_t i = 0; i < keep; ++i) subset.Add(all.transaction(i));
  return subset;
}

/// Hot core (frequent items) + long tail (rare items).
TransactionSet SparseHeavyTransactions(uint64_t seed) {
  Rng rng(seed);
  TransactionSet out;
  out.Reserve(4000);
  for (int i = 0; i < 4000; ++i) {
    std::vector<Item> t;
    for (int j = 0; j < 3; ++j) {
      t.push_back(static_cast<Item>(rng.NextBounded(30)));
    }
    for (int j = 0; j < 9; ++j) {
      t.push_back(static_cast<Item>(30 + rng.NextBounded(1970)));
    }
    std::sort(t.begin(), t.end());
    t.erase(std::unique(t.begin(), t.end()), t.end());
    out.Add(std::move(t));
  }
  return out;
}

/// Near-uniform draws from a wide universe: every item is rare.
TransactionSet HighUniverseTransactions(uint64_t seed) {
  Rng rng(seed);
  TransactionSet out;
  out.Reserve(2000);
  for (int i = 0; i < 2000; ++i) {
    std::vector<Item> t;
    for (int j = 0; j < 14; ++j) {
      t.push_back(static_cast<Item>(rng.NextBounded(8000)));
    }
    std::sort(t.begin(), t.end());
    t.erase(std::unique(t.begin(), t.end()), t.end());
    out.Add(std::move(t));
  }
  return out;
}

/// Wall times of `reps` runs of `fn` in milliseconds, sorted ascending,
/// so `[0]` is the min and `[size()/2]` the median.
template <typename Fn>
std::vector<double> TimeMs(int reps, const Fn& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    fn();
    samples.push_back(watch.ElapsedMillis());
  }
  std::sort(samples.begin(), samples.end());
  return samples;
}

/// Median wall time of `reps` runs of `fn` in milliseconds.
template <typename Fn>
double MedianMs(int reps, const Fn& fn) {
  const std::vector<double> samples = TimeMs(reps, fn);
  return samples[samples.size() / 2];
}

/// True iff both mining runs produced the same itemsets with the same
/// supports in the same order (both miners sort with ItemsetLess, so
/// identical results compare equal element-by-element).
bool SameItemsets(const std::vector<Itemset>& a,
                  const std::vector<Itemset>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].support != b[i].support || a[i].items != b[i].items) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions options = bench::ParseOptions(argc, argv, {"reps"});
  const int reps = options.flags.GetIntIn("reps", 7, 1);

  bench::BenchReporter reporter("perf_mining", options);
  reporter.BeginPhase("workload_build");
  const RecipeCorpus corpus = bench::MakeWorld(options, &reporter);
  std::vector<Workload> workloads;
  for (const double fraction : {0.25, 0.50, 1.00}) {
    Workload w;
    w.name = StrFormat("corpus_s%d", static_cast<int>(fraction * 100.0));
    w.transactions = CorpusTransactions(corpus, fraction);
    w.min_support = AbsoluteSupport(w.transactions.size(), 0.05);
    w.run_apriori = fraction <= 0.50;  // matches the historical bench
    workloads.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "sparse_heavy";
    w.transactions = SparseHeavyTransactions(options.seed);
    w.min_support = AbsoluteSupport(w.transactions.size(), 0.004);
    workloads.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "high_universe";
    w.transactions = HighUniverseTransactions(options.seed);
    w.min_support = AbsoluteSupport(w.transactions.size(), 0.0015);
    workloads.push_back(std::move(w));
  }

  reporter.AddResult("reps", reps);

  std::printf("\n%-14s %9s %9s %12s %12s\n", "workload", "txns", "itemsets",
              "eclat_st_ms", "apriori_ms");
  bool consistent = true;
  for (const Workload& w : workloads) {
    reporter.BeginPhase("mine_" + w.name);
    std::vector<Itemset> eclat_itemsets;
    const std::vector<double> eclat_samples = TimeMs(reps, [&]() {
      eclat_itemsets = MineEclat(w.transactions, w.min_support);
    });
    const double eclat_st_ms = eclat_samples[eclat_samples.size() / 2];
    const double eclat_st_min_ms = eclat_samples.front();

    double apriori_ms = 0.0;
    if (w.run_apriori) {
      std::vector<Itemset> apriori_itemsets;
      apriori_ms = MedianMs(std::max(1, reps / 2), [&]() {
        apriori_itemsets = MineApriori(w.transactions, w.min_support);
      });
      if (!SameItemsets(eclat_itemsets, apriori_itemsets)) {
        std::fprintf(stderr,
                     "MINER DISAGREEMENT on %s: Apriori's itemsets or "
                     "supports differ from Eclat's (eclat=%zu apriori=%zu "
                     "itemsets)\n",
                     w.name.c_str(), eclat_itemsets.size(),
                     apriori_itemsets.size());
        consistent = false;
      }
    }

    std::printf("%-14s %9zu %9zu %12.3f %12.3f\n", w.name.c_str(),
                w.transactions.size(), eclat_itemsets.size(), eclat_st_ms,
                apriori_ms);
    reporter.AddResult(w.name + "_transactions",
                       static_cast<double>(w.transactions.size()));
    reporter.AddResult(w.name + "_itemsets",
                       static_cast<double>(eclat_itemsets.size()));
    reporter.AddResult(w.name + "_eclat_st_ms", eclat_st_ms);
    reporter.AddResult(w.name + "_eclat_st_min_ms", eclat_st_min_ms);
    if (w.run_apriori) {
      reporter.AddResult(w.name + "_apriori_ms", apriori_ms);
    }
  }

  const int exit_code = reporter.Finish();
  if (!consistent) return 1;
  return exit_code;
}
