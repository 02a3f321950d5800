// Perf-regression harness for the frequent-itemset mining engine.
//
// Times the hybrid tid-list Eclat miner (single-threaded and with
// parallel root-class mining) and the prefix-indexed Apriori reference on
// three workload families:
//   corpus_sNN   — one mid-sized cuisine's ingredient transactions at
//                  NN% of the synthetic corpus (dense-dominated, the
//                  pipeline's actual shape);
//   sparse_heavy — a hot core plus a long tail over a 2000-item universe
//                  at low support (sparse/mixed kernels, dense->sparse
//                  demotion);
//   high_universe — near-uniform draws from an 8000-item universe
//                  (sparse-only, wide root level).
//
// With --json <path> it writes BENCH_mining.json (schema documented in
// EXPERIMENTS.md): `<workload>_eclat_st_ms` / `_eclat_mt_ms` /
// `_apriori_ms` medians plus `_eclat_st_min_ms` / `_eclat_mt_min_ms`
// minima per workload plus itemset counts, so timing regressions AND
// result drift are diffable across commits. Additional flags:
// --threads <n> for the parallel miner (default: hardware concurrency),
// --reps <n> timing repetitions (default 7; ST and MT run as
// back-to-back pairs, median and min reported), --assert-mt-speedup to
// fail (exit 1) if a workload's MT time regressed past ST in every pair
// (slack: 5% + 0.05 ms per pair, so a 1-core machine where MT can only
// tie ST still passes while a real regression trips the gate; pairing
// cancels shared-host load noise).
// Cross-checks inside the run: MT output must be bit-identical to ST
// (same itemsets, same supports, same order), Apriori (where it is run)
// must report the same itemset count, and the binary exits non-zero on
// any divergence.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/apriori.h"
#include "analysis/combinations.h"
#include "analysis/eclat.h"
#include "analysis/transactions.h"
#include "bench/bench_common.h"
#include "corpus/cuisine.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

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

/// Hot core (dense tid lists) + long tail (sparse tid lists).
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

/// Near-uniform draws from a wide universe: everything sparse.
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
/// supports in the same order (MineEclat output is canonically sorted,
/// so bit-identical results compare equal element-by-element).
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
  bench::BenchOptions options = bench::ParseOptions(argc, argv);
  const int reps = static_cast<int>(options.flags.GetInt("reps", 7));
  const size_t threads =
      static_cast<size_t>(options.flags.GetInt("threads", 0));
  const bool assert_mt_speedup =
      options.flags.GetBool("assert-mt-speedup", false);
  if (reps <= 0) {
    std::fprintf(stderr, "--reps must be positive\n");
    return 2;
  }

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

  ThreadPool pool(threads);
  reporter.AddResult("threads", static_cast<double>(pool.num_threads()));
  reporter.AddResult("reps", reps);

  std::printf("\n%-14s %9s %9s %12s %12s %12s\n", "workload", "txns",
              "itemsets", "eclat_st_ms", "eclat_mt_ms", "apriori_ms");
  bool consistent = true;
  bool gate_passed = true;
  for (const Workload& w : workloads) {
    reporter.BeginPhase("mine_" + w.name);
    EclatOptions parallel;
    parallel.pool = &pool;
    // ST and MT are timed as back-to-back pairs so a load spike from a
    // noisy host slows both runs of a pair about equally; the MT-vs-ST
    // gate below compares within pairs, where that noise cancels.
    std::vector<Itemset> st_itemsets;
    std::vector<Itemset> mt_itemsets;
    std::vector<double> st_samples;
    std::vector<double> mt_samples;
    bool mt_kept_up = false;
    for (int r = 0; r < reps; ++r) {
      Stopwatch st_watch;
      st_itemsets = MineEclat(w.transactions, w.min_support);
      const double st_ms = st_watch.ElapsedMillis();
      Stopwatch mt_watch;
      mt_itemsets = MineEclat(w.transactions, w.min_support, parallel);
      const double mt_ms = mt_watch.ElapsedMillis();
      st_samples.push_back(st_ms);
      mt_samples.push_back(mt_ms);
      if (mt_ms <= st_ms * 1.05 + 0.05) mt_kept_up = true;
    }
    std::sort(st_samples.begin(), st_samples.end());
    std::sort(mt_samples.begin(), mt_samples.end());
    const double eclat_st_ms = st_samples[st_samples.size() / 2];
    const double eclat_st_min_ms = st_samples.front();
    const double eclat_mt_ms = mt_samples[mt_samples.size() / 2];
    const double eclat_mt_min_ms = mt_samples.front();

    const size_t itemsets_st = st_itemsets.size();
    size_t itemsets_apriori = itemsets_st;
    double apriori_ms = 0.0;
    if (w.run_apriori) {
      apriori_ms = MedianMs(std::max(1, reps / 2), [&]() {
        itemsets_apriori = MineApriori(w.transactions, w.min_support).size();
      });
    }

    if (!SameItemsets(st_itemsets, mt_itemsets)) {
      std::fprintf(stderr,
                   "MINER DISAGREEMENT on %s: MT output is not "
                   "bit-identical to ST (st=%zu mt=%zu itemsets)\n",
                   w.name.c_str(), itemsets_st, mt_itemsets.size());
      consistent = false;
    }
    if (itemsets_apriori != itemsets_st) {
      std::fprintf(stderr,
                   "MINER DISAGREEMENT on %s: st=%zu apriori=%zu\n",
                   w.name.c_str(), itemsets_st, itemsets_apriori);
      consistent = false;
    }

    // MT-vs-ST gate: fail only if MT regressed past ST in EVERY
    // back-to-back pair. One clean pair proves MT keeps up; a genuine
    // regression (like the one-task-per-root-class design this replaced)
    // loses every pair regardless of host noise. The slack absorbs fixed
    // work-stealing setup cost on machines with no real parallelism,
    // where MT can only tie ST.
    if (assert_mt_speedup && !mt_kept_up) {
      std::fprintf(stderr,
                   "MT REGRESSION on %s: every rep had mt > st * 1.05 + "
                   "0.05 ms (best: mt_min=%.3f st_min=%.3f)\n",
                   w.name.c_str(), eclat_mt_min_ms, eclat_st_min_ms);
      gate_passed = false;
    }

    std::printf("%-14s %9zu %9zu %12.3f %12.3f %12.3f\n", w.name.c_str(),
                w.transactions.size(), itemsets_st, eclat_st_ms,
                eclat_mt_ms, apriori_ms);
    reporter.AddResult(w.name + "_transactions",
                       static_cast<double>(w.transactions.size()));
    reporter.AddResult(w.name + "_itemsets",
                       static_cast<double>(itemsets_st));
    reporter.AddResult(w.name + "_eclat_st_ms", eclat_st_ms);
    reporter.AddResult(w.name + "_eclat_mt_ms", eclat_mt_ms);
    reporter.AddResult(w.name + "_eclat_st_min_ms", eclat_st_min_ms);
    reporter.AddResult(w.name + "_eclat_mt_min_ms", eclat_mt_min_ms);
    if (w.run_apriori) {
      reporter.AddResult(w.name + "_apriori_ms", apriori_ms);
    }
  }

  if (assert_mt_speedup) {
    std::printf("\nMT-vs-ST gate: %s\n",
                gate_passed ? "PASS" : "FAIL (see stderr)");
  }
  const int exit_code = reporter.Finish();
  if (!consistent || !gate_passed) return 1;
  return exit_code;
}
