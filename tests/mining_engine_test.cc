// Tests for the hybrid tid-list Eclat engine: intersection-kernel edge
// cases (early-abort bound, galloping merge, arena trim/rewind) and a
// seeded randomized differential suite asserting that the dense, sparse
// and hybrid Eclat paths and Apriori all return identical itemsets.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "analysis/apriori.h"
#include "analysis/eclat.h"
#include "analysis/tidlist.h"
#include "analysis/transactions.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace culevo {
namespace {

using mining::kAborted;
using mining::TidArena;

// ---------------------------------------------------------------------------
// Arena

TEST(TidArenaTest, RewindReleasesAndReusesStorage) {
  TidArena arena(/*chunk_words=*/8);
  uint64_t* a = arena.AllocWords(4);
  const TidArena::Mark mark = arena.Position();
  uint64_t* b = arena.AllocWords(4);
  EXPECT_EQ(b, a + 4);
  arena.Rewind(mark);
  uint64_t* c = arena.AllocWords(2);
  EXPECT_EQ(c, b);  // Same storage handed out again.
  const size_t bytes = arena.allocated_bytes();
  arena.Rewind(mark);
  arena.AllocWords(4);
  EXPECT_EQ(arena.allocated_bytes(), bytes);  // No new chunk needed.
}

TEST(TidArenaTest, OversizeRequestGetsDedicatedChunk) {
  TidArena arena(/*chunk_words=*/4);
  arena.AllocWords(3);
  uint64_t* big = arena.AllocWords(100);  // Larger than a chunk.
  ASSERT_NE(big, nullptr);
  big[99] = 7;  // Must be addressable end to end.
  EXPECT_GE(arena.allocated_bytes(), 104 * sizeof(uint64_t));
}

TEST(TidArenaTest, TrimToReleasesTailOfTopAllocation) {
  TidArena arena(/*chunk_words=*/16);
  uint64_t* a = arena.AllocWords(8);
  arena.TrimTo(a, 2);
  uint64_t* b = arena.AllocWords(2);
  EXPECT_EQ(b, a + 2);
}

// ---------------------------------------------------------------------------
// Dense kernel and its early-abort bound

TEST(DenseKernelTest, ComputesIntersectionAndPopcount) {
  const std::vector<uint64_t> a = {0b1111, 0, ~uint64_t{0}};
  const std::vector<uint64_t> b = {0b1010, 0b1, ~uint64_t{0}};
  std::vector<uint64_t> out(3);
  const size_t s =
      mining::IntersectDenseDense(a.data(), b.data(), 3, 1, out.data());
  EXPECT_EQ(s, 2u + 64u);
  EXPECT_EQ(out[0], uint64_t{0b1010});
  EXPECT_EQ(out[1], uint64_t{0});
  EXPECT_EQ(out[2], ~uint64_t{0});
}

TEST(DenseKernelTest, AbortsExactlyWhenBoundUnreachable) {
  // The bound is evaluated once per 8-word block. Words 0..7 contribute 1
  // bit each, words 8..15 up to 64 each: after the first block the
  // reachable maximum is 8 + 8*64 = 520. min_support 520 must not abort
  // there (and completes at exactly 520); 521 must abort with half the
  // input unread.
  std::vector<uint64_t> a(16, ~uint64_t{0});
  std::vector<uint64_t> b(16, ~uint64_t{0});
  for (size_t i = 0; i < 8; ++i) b[i] = uint64_t{1};
  std::vector<uint64_t> out(16);
  EXPECT_EQ(mining::IntersectDenseDense(a.data(), b.data(), 16, 520,
                                        out.data()),
            8u + 8u * 64u);
  EXPECT_EQ(mining::IntersectDenseDense(a.data(), b.data(), 16, 521,
                                        out.data()),
            kAborted);
}

TEST(DenseKernelTest, CompletedScanBelowSupportReportsExactCount) {
  // kAborted strictly means "stopped with input unread": a scan that
  // consumes everything reports its exact count even below min_support, so
  // callers can tell infrequent results from aborted kernels.
  const std::vector<uint64_t> a = {0b11};
  const std::vector<uint64_t> b = {0b01};
  std::vector<uint64_t> out(8);
  EXPECT_EQ(mining::IntersectDenseDense(a.data(), b.data(), 1, 2,
                                        out.data()),
            1u);
  // Same at exact block granularity, where the per-block bound check runs
  // right at the end of input: 8 words, 1 bit each, far below the bound —
  // still a completed scan, not an abort.
  std::vector<uint64_t> a8(8, uint64_t{1});
  std::vector<uint64_t> b8(8, uint64_t{1});
  EXPECT_EQ(mining::IntersectDenseDense(a8.data(), b8.data(), 8, 600,
                                        out.data()),
            8u);
}

// ---------------------------------------------------------------------------
// Sparse kernels

std::vector<uint32_t> Sparse(std::vector<uint32_t> v) { return v; }

size_t RunSparse(const std::vector<uint32_t>& a,
                 const std::vector<uint32_t>& b, size_t min_support,
                 std::vector<uint32_t>* out) {
  out->assign(std::min(a.size(), b.size()) + 1, 0xDEADu);
  return mining::IntersectSparseSparse(a.data(), a.size(), b.data(),
                                       b.size(), min_support, out->data());
}

TEST(SparseKernelTest, EmptyInputs) {
  std::vector<uint32_t> out;
  EXPECT_EQ(RunSparse({}, {}, 0, &out), 0u);
  EXPECT_EQ(RunSparse({}, {1, 2}, 0, &out), 0u);
  // With min_support >= 1 an empty side is an immediate (early) abort.
  EXPECT_EQ(RunSparse({}, {1, 2}, 1, &out), kAborted);
}

TEST(SparseKernelTest, DisjointAndSubset) {
  std::vector<uint32_t> out;
  EXPECT_EQ(RunSparse({1, 3, 5}, {0, 2, 4}, 0, &out), 0u);
  EXPECT_EQ(RunSparse({2, 4}, {0, 1, 2, 3, 4, 5}, 1, &out), 2u);
  EXPECT_EQ(out[0], 2u);
  EXPECT_EQ(out[1], 4u);
}

TEST(SparseKernelTest, LinearMergeAbortsWhenBoundUnreachable) {
  // Lists of length 4 with only 1 common element: min_support 2 must
  // abort before the scan completes; min_support 1 completes with 1.
  const std::vector<uint32_t> a = Sparse({0, 2, 4, 6});
  const std::vector<uint32_t> b = Sparse({6, 7, 8, 9});
  std::vector<uint32_t> out;
  EXPECT_EQ(RunSparse(a, b, 1, &out), 1u);
  EXPECT_EQ(out[0], 6u);
  EXPECT_EQ(RunSparse(a, b, 5, &out), kAborted);
}

TEST(SparseKernelTest, GallopingPathMatchesLinear) {
  // Size ratio >= kGallopRatio forces the galloping path.
  std::vector<uint32_t> small = {7, 64, 300, 301, 999};
  std::vector<uint32_t> large;
  for (uint32_t i = 0; i < 1000; i += 3) large.push_back(i);  // 0,3,6,...
  ASSERT_GE(large.size(), small.size() * mining::kGallopRatio);
  std::vector<uint32_t> expected;
  std::set_intersection(small.begin(), small.end(), large.begin(),
                        large.end(), std::back_inserter(expected));
  std::vector<uint32_t> out;
  const size_t s = RunSparse(small, large, 0, &out);
  ASSERT_EQ(s, expected.size());
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(), out.begin()));
}

TEST(SparseKernelTest, GallopingSubsetAndDisjoint) {
  std::vector<uint32_t> large;
  for (uint32_t i = 0; i < 400; ++i) large.push_back(2 * i);  // evens
  std::vector<uint32_t> out;
  // Subset: every probe hits.
  EXPECT_EQ(RunSparse({0, 2, 798}, large, 3, &out), 3u);
  // Disjoint (odds): galloping runs off the end without a match. A
  // completed scan reports its (infrequent) count rather than an abort.
  EXPECT_EQ(RunSparse({1, 3, 799}, large, 0, &out), 0u);
  EXPECT_EQ(RunSparse({1, 3, 799}, large, 1, &out), 0u);
  // With min_support 2 the bound (0 matches + 1 remaining probe) proves
  // failure before the last probe: early abort.
  EXPECT_EQ(RunSparse({1, 3, 799}, large, 2, &out), kAborted);
}

TEST(SparseKernelTest, BlockedKernelMatchesSetIntersection) {
  // Differential check of the blocked window kernel across every shape
  // IntersectSparseSparse routes to it — from single-element lists (all
  // scalar tail) through pairs straddling the 8-tid window boundary.
  Rng rng(20260808);
  for (int round = 0; round < 300; ++round) {
    const size_t a_len = 1 + rng.NextBounded(48);
    const size_t b_len = a_len + rng.NextBounded(4 * a_len);
    std::vector<uint32_t> a;
    std::vector<uint32_t> b;
    while (a.size() < a_len) {
      const uint32_t v = static_cast<uint32_t>(rng.NextBounded(400));
      if (std::find(a.begin(), a.end(), v) == a.end()) a.push_back(v);
    }
    while (b.size() < b_len) {
      const uint32_t v = static_cast<uint32_t>(rng.NextBounded(400));
      if (std::find(b.begin(), b.end(), v) == b.end()) b.push_back(v);
    }
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::vector<uint32_t> expected;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(expected));
    std::vector<uint32_t> out(a_len, 0xDEADu);
    const size_t s = mining::IntersectSparseBlocked(
        a.data(), a_len, b.data(), b_len, /*min_support=*/0, out.data());
    ASSERT_EQ(s, expected.size()) << "round " << round;
    ASSERT_TRUE(std::equal(expected.begin(), expected.end(), out.begin()));
  }
}

TEST(SparseKernelTest, BlockedKernelAbortsWhenBoundUnreachable) {
  // 20 odd probes against 100 evens: no matches. The per-probe bound
  // check fires as soon as matches-so-far + remaining probes < support.
  std::vector<uint32_t> a;
  for (uint32_t i = 0; i < 20; ++i) a.push_back(2 * i + 1);
  std::vector<uint32_t> b;
  for (uint32_t i = 0; i < 100; ++i) b.push_back(2 * i);
  std::vector<uint32_t> out(20);
  EXPECT_EQ(mining::IntersectSparseBlocked(a.data(), a.size(), b.data(),
                                           b.size(), 1, out.data()),
            0u);  // 0 + 1 remaining probe >= 1 until the end: completes.
  EXPECT_EQ(mining::IntersectSparseBlocked(a.data(), a.size(), b.data(),
                                           b.size(), 2, out.data()),
            kAborted);
}

TEST(GallopFirstGeqTest, FindsFirstNotLessPosition) {
  const std::vector<uint32_t> v = {2, 4, 4, 8, 16, 32};
  EXPECT_EQ(mining::GallopFirstGeq(v.data(), v.size(), 0, 1), 0u);
  EXPECT_EQ(mining::GallopFirstGeq(v.data(), v.size(), 0, 4), 1u);
  EXPECT_EQ(mining::GallopFirstGeq(v.data(), v.size(), 2, 4), 2u);
  EXPECT_EQ(mining::GallopFirstGeq(v.data(), v.size(), 0, 33), v.size());
  EXPECT_EQ(mining::GallopFirstGeq(v.data(), v.size(), 6, 1), 6u);
}

TEST(MixedKernelTest, SparseAgainstDense) {
  // Dense bitset over 130 tids with bits {0, 64, 128, 129} set.
  std::vector<uint64_t> words(3, 0);
  for (uint32_t tid : {0u, 64u, 128u, 129u}) {
    words[tid >> 6] |= uint64_t{1} << (tid & 63);
  }
  const std::vector<uint32_t> sparse = {0, 1, 64, 129};
  std::vector<uint32_t> out(sparse.size());
  const size_t s = mining::IntersectSparseDense(
      sparse.data(), sparse.size(), words.data(), 1, out.data());
  ASSERT_EQ(s, 3u);
  EXPECT_EQ(out[0], 0u);
  EXPECT_EQ(out[1], 64u);
  EXPECT_EQ(out[2], 129u);
  EXPECT_EQ(mining::IntersectSparseDense(sparse.data(), sparse.size(),
                                         words.data(), 4, out.data()),
            kAborted);
}

TEST(DenseToSparseTest, RoundTripsSetBits) {
  std::vector<uint64_t> words = {uint64_t{1} << 63, 0, 0b101};
  std::vector<uint32_t> out(3);
  ASSERT_EQ(mining::DenseToSparse(words.data(), words.size(), out.data()),
            3u);
  EXPECT_EQ(out[0], 63u);
  EXPECT_EQ(out[1], 128u);
  EXPECT_EQ(out[2], 130u);
}

// ---------------------------------------------------------------------------
// Randomized differential suite: every Eclat path vs Apriori

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

TransactionSet RandomTransactions(Rng* rng) {
  const size_t num = 1 + rng->NextBounded(120);
  const size_t universe = 4 + rng->NextBounded(36);
  const size_t max_len = 1 + rng->NextBounded(10);
  TransactionSet out;
  out.Reserve(num);
  for (size_t i = 0; i < num; ++i) {
    std::vector<Item> t;
    const size_t len = 1 + rng->NextBounded(max_len);
    for (size_t j = 0; j < len; ++j) {
      t.push_back(static_cast<Item>(rng->NextBounded(universe)));
    }
    std::sort(t.begin(), t.end());
    t.erase(std::unique(t.begin(), t.end()), t.end());
    out.Add(std::move(t));
  }
  return out;
}

TEST(MiningEngineDifferentialTest, AllPathsAgreeOnRandomDatabases) {
  EclatOptions dense_forced;
  dense_forced.density_threshold = 0.0;
  EclatOptions sparse_forced;
  sparse_forced.density_threshold = 2.0;

  Rng rng(20240806);
  // ~200 databases x several support thresholds each.
  for (int round = 0; round < 200; ++round) {
    const TransactionSet transactions = RandomTransactions(&rng);
    const size_t n = transactions.size();
    const size_t supports[] = {1, 2, 1 + n / 20, 1 + n / 4};
    for (const size_t min_support : supports) {
      const std::vector<Itemset> apriori =
          MineApriori(transactions, min_support);
      const std::vector<Itemset> hybrid =
          MineEclat(transactions, min_support);
      ASSERT_TRUE(SameItemsets(apriori, hybrid))
          << "hybrid != apriori (round " << round << ", support "
          << min_support << ")";
      ASSERT_TRUE(SameItemsets(
          apriori, MineEclat(transactions, min_support, dense_forced)))
          << "dense != apriori (round " << round << ", support "
          << min_support << ")";
      ASSERT_TRUE(SameItemsets(
          apriori, MineEclat(transactions, min_support, sparse_forced)))
          << "sparse != apriori (round " << round << ", support "
          << min_support << ")";
    }
  }
}

// ---------------------------------------------------------------------------
// Counter pinning: mine.eclat.* on tiny known databases
//
// Each scenario is constructed so the exact kernel-invocation and
// early-abort counts are derivable by hand AND identical on every
// platform (routing between kernel variants is ISA-independent, and the
// scenarios avoid shapes where only some ISAs would abort). These pin the
// per-invocation counting contract: one increment per kernel call, one
// early_abort per kernel that stopped with input unread.

/// Deltas of the mine.eclat.* counters across one mining call.
struct EclatCounterDeltas {
  int64_t dense = 0;
  int64_t sparse = 0;
  int64_t mixed = 0;
  int64_t aborts = 0;
  int64_t itemsets = 0;
};

EclatCounterDeltas MineAndDiffCounters(const TransactionSet& transactions,
                                       size_t min_support,
                                       const EclatOptions& options,
                                       std::vector<Itemset>* result) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  obs::Counter* dense = registry.counter("mine.eclat.dense_intersections");
  obs::Counter* sparse = registry.counter("mine.eclat.sparse_intersections");
  obs::Counter* mixed = registry.counter("mine.eclat.mixed_intersections");
  obs::Counter* aborts = registry.counter("mine.eclat.early_aborts");
  obs::Counter* itemsets = registry.counter("mine.eclat.itemsets");
  EclatCounterDeltas deltas;
  deltas.dense = -dense->Value();
  deltas.sparse = -sparse->Value();
  deltas.mixed = -mixed->Value();
  deltas.aborts = -aborts->Value();
  deltas.itemsets = -itemsets->Value();
  *result = MineEclat(transactions, min_support, options);
  deltas.dense += dense->Value();
  deltas.sparse += sparse->Value();
  deltas.mixed += mixed->Value();
  deltas.aborts += aborts->Value();
  deltas.itemsets += itemsets->Value();
  return deltas;
}

TEST(EclatCounterTest, SparsePathCountsPerIntersectionNotPerProbe) {
  // Tid lists: item0 -> {0,1,2,3}, item1 -> {0,1,2,3}, item2 -> {0,1,2}.
  // With min_support 3 every intersection completes and is frequent:
  // class(2) builds 2 children (2^0, 2^1) + 1 grandchild (2,0 ^ 2,1);
  // class(0) builds 1 child (0^1); class(1) has no extensions. Exactly 4
  // sparse kernel calls, zero aborts, 7 itemsets.
  TransactionSet transactions;
  transactions.Add(std::vector<Item>{0, 1, 2});
  transactions.Add(std::vector<Item>{0, 1, 2});
  transactions.Add(std::vector<Item>{0, 1, 2});
  transactions.Add(std::vector<Item>{0, 1});
  EclatOptions sparse_forced;
  sparse_forced.density_threshold = 2.0;  // every list stays sparse
  std::vector<Itemset> result;
  const EclatCounterDeltas d =
      MineAndDiffCounters(transactions, 3, sparse_forced, &result);
  EXPECT_EQ(result.size(), 7u);
  EXPECT_EQ(d.itemsets, 7);
  EXPECT_EQ(d.sparse, 4);
  EXPECT_EQ(d.dense, 0);
  EXPECT_EQ(d.mixed, 0);
  // The old per-probe accounting reported aborts ~= sparse intersections;
  // here every scan completes, so the count must be exactly zero.
  EXPECT_EQ(d.aborts, 0);
}

TEST(EclatCounterTest, DenseAbortCountsOnlyScansStoppedEarly) {
  // 1280 transactions (20 words). Item 0 spans tids [0, 650), item 1
  // spans [550, 1280): overlap 100 < min_support 600. The dense kernel
  // sees the bound become unreachable after its second 8-word block
  // (count 100, 4 words unread) and aborts: exactly 1 dense intersection,
  // 1 early abort, and only the two singleton itemsets.
  TransactionSet transactions;
  transactions.Reserve(1280);
  for (uint32_t tid = 0; tid < 1280; ++tid) {
    std::vector<Item> t;
    if (tid < 650) t.push_back(0);
    if (tid >= 550) t.push_back(1);
    transactions.Add(std::move(t));
  }
  EclatOptions dense_forced;
  dense_forced.density_threshold = 0.0;  // every list stays dense
  std::vector<Itemset> result;
  const EclatCounterDeltas d =
      MineAndDiffCounters(transactions, 600, dense_forced, &result);
  EXPECT_EQ(result.size(), 2u);
  EXPECT_EQ(d.dense, 1);
  EXPECT_EQ(d.aborts, 1);
  EXPECT_EQ(d.sparse, 0);
  EXPECT_EQ(d.mixed, 0);
}

TEST(EclatCounterTest, MixedPathCompletedScanIsNotAnAbort) {
  // 64 transactions: item 0 in all of them (dense at threshold 1/2),
  // item 1 in three (sparse). One mixed intersection that completes with
  // support 3 >= 2 — frequent, no abort.
  TransactionSet transactions;
  transactions.Reserve(64);
  for (uint32_t tid = 0; tid < 64; ++tid) {
    std::vector<Item> t = {0};
    if (tid < 3) t.push_back(1);
    transactions.Add(std::move(t));
  }
  EclatOptions options;
  options.density_threshold = 0.5;
  std::vector<Itemset> result;
  const EclatCounterDeltas d =
      MineAndDiffCounters(transactions, 2, options, &result);
  EXPECT_EQ(result.size(), 3u);  // {0}, {1}, {0,1}
  EXPECT_EQ(d.mixed, 1);
  EXPECT_EQ(d.aborts, 0);
  EXPECT_EQ(d.dense, 0);
  EXPECT_EQ(d.sparse, 0);
}

TEST(MiningEngineTest, SparseHeavyDatabaseWithLowSupport) {
  // Hot core items (dense lists) + a long tail (sparse lists) exercises
  // the mixed kernels and the dense->sparse demotion at a realistic
  // corpus shape.
  Rng rng(7);
  TransactionSet transactions;
  transactions.Reserve(600);
  for (int i = 0; i < 600; ++i) {
    std::vector<Item> t = {0, 1};
    for (int j = 0; j < 8; ++j) {
      t.push_back(static_cast<Item>(2 + rng.NextBounded(400)));
    }
    std::sort(t.begin(), t.end());
    t.erase(std::unique(t.begin(), t.end()), t.end());
    transactions.Add(std::move(t));
  }
  const std::vector<Itemset> apriori = MineApriori(transactions, 6);
  const std::vector<Itemset> eclat = MineEclat(transactions, 6);
  EXPECT_TRUE(SameItemsets(apriori, eclat));
  EXPECT_FALSE(eclat.empty());
}

}  // namespace
}  // namespace culevo
