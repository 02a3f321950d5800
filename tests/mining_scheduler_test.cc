// Tests for the work-stealing mining scheduler: StealDeque ordering, the
// executor's completion/cancellation/exception contracts (including a
// concurrency smoke run that the tsan preset builds with
// -fsanitize=thread), and the Eclat integration — MT output bit-identical
// to ST on a workload large enough to exercise subtree splitting, and
// cancellation mid-steal leaving only well-formed output.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "analysis/eclat.h"
#include "analysis/mine_scheduler.h"
#include "analysis/transactions.h"
#include "obs/metrics.h"
#include "util/cancel.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace culevo {
namespace {

using mining::SchedulerStats;
using mining::StealDeque;
using mining::WorkStealingScheduler;

// ---------------------------------------------------------------------------
// StealDeque

TEST(StealDequeTest, OwnerPopsLifoThievesStealFifo) {
  StealDeque<int> deque;
  deque.PushBottom(1);
  deque.PushBottom(2);
  deque.PushBottom(3);
  int v = 0;
  ASSERT_TRUE(deque.PopBottom(&v));
  EXPECT_EQ(v, 3);  // Owner side: most recent first.
  ASSERT_TRUE(deque.StealTop(&v));
  EXPECT_EQ(v, 1);  // Thief side: oldest first.
  ASSERT_TRUE(deque.PopBottom(&v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(deque.PopBottom(&v));
  EXPECT_FALSE(deque.StealTop(&v));
}

TEST(StealDequeTest, SizeTracksPushesAndPops) {
  StealDeque<int> deque;
  EXPECT_EQ(deque.SizeApprox(), 0u);
  deque.PushBottom(7);
  deque.PushBottom(8);
  EXPECT_EQ(deque.SizeApprox(), 2u);
  int v = 0;
  deque.StealTop(&v);
  EXPECT_EQ(deque.SizeApprox(), 1u);
}

// ---------------------------------------------------------------------------
// WorkStealingScheduler

TEST(SchedulerTest, RunsEverySeedExactlyOnce) {
  ThreadPool pool(4);
  WorkStealingScheduler<int> scheduler(&pool);
  EXPECT_GE(scheduler.num_participants(), 2u);
  std::vector<int> seeds(100);
  std::iota(seeds.begin(), seeds.end(), 0);
  // Per-participant buffers: bodies on one participant run sequentially,
  // so plain vectors are race-free by the scheduler's contract (TSan
  // checks this claim in the tsan preset).
  std::vector<std::vector<int>> seen(scheduler.num_participants());
  const SchedulerStats stats = scheduler.Run(
      std::move(seeds),
      [&seen](size_t p, int& task, std::vector<int>*) {
        seen[p].push_back(task);
      },
      nullptr);
  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.tasks_executed, 100);
  std::set<int> all;
  for (const std::vector<int>& part : seen) all.insert(part.begin(), part.end());
  EXPECT_EQ(all.size(), 100u);
}

TEST(SchedulerTest, SpawnedTasksRunToTransitiveClosure) {
  // Each task k in [0, 512) spawns 2k+1 and 2k+2 while k < 512: a binary
  // tree of 1023 tasks grown dynamically from one seed.
  ThreadPool pool(4);
  WorkStealingScheduler<int> scheduler(&pool);
  std::atomic<int64_t> sum{0};
  const SchedulerStats stats = scheduler.Run(
      std::vector<int>{0},
      [&sum](size_t, int& task, std::vector<int>* spawned) {
        sum.fetch_add(task, std::memory_order_relaxed);
        if (2 * task + 2 < 1023) {
          spawned->push_back(2 * task + 1);
          spawned->push_back(2 * task + 2);
        }
      },
      nullptr);
  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.tasks_executed, 1023);
  EXPECT_EQ(sum.load(), 1023 * 1022 / 2);  // sum of 0..1022
}

TEST(SchedulerTest, RunsSerialWithoutPool) {
  WorkStealingScheduler<int> scheduler(nullptr);
  EXPECT_EQ(scheduler.num_participants(), 1u);
  int executed = 0;
  const SchedulerStats stats = scheduler.Run(
      std::vector<int>{1, 2, 3},
      [&executed](size_t p, int&, std::vector<int>*) {
        EXPECT_EQ(p, 0u);
        ++executed;
      },
      nullptr);
  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(executed, 3);
}

TEST(SchedulerTest, EmptySeedsCompleteImmediately) {
  ThreadPool pool(2);
  WorkStealingScheduler<int> scheduler(&pool);
  const SchedulerStats stats = scheduler.Run(
      std::vector<int>{}, [](size_t, int&, std::vector<int>*) {}, nullptr);
  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.tasks_executed, 0);
}

TEST(SchedulerTest, CancellationStopsTakingNewTasksWithoutTearing) {
  // The token trips from inside a task body while other subtrees are
  // still queued. Every executed task appends one complete record; the
  // scheduler must return (no hang), report not-completed, and leave only
  // whole records behind.
  ThreadPool pool(4);
  WorkStealingScheduler<int> scheduler(&pool);
  CancelToken cancel;
  std::vector<int> seeds(256);
  std::iota(seeds.begin(), seeds.end(), 0);
  std::vector<std::vector<std::pair<int, int>>> records(
      scheduler.num_participants());
  std::atomic<int> executed{0};
  const SchedulerStats stats = scheduler.Run(
      std::move(seeds),
      [&](size_t p, int& task, std::vector<int>*) {
        records[p].push_back({task, task * 2});
        if (executed.fetch_add(1) == 16) cancel.Cancel();
      },
      &cancel);
  EXPECT_FALSE(stats.completed);
  EXPECT_LT(stats.tasks_executed, 256);
  EXPECT_GE(stats.tasks_executed, 17);  // Everything started finished.
  int64_t total = 0;
  for (const auto& part : records) {
    for (const auto& [task, payload] : part) {
      EXPECT_EQ(payload, task * 2);  // Records are complete, never torn.
    }
    total += static_cast<int64_t>(part.size());
  }
  EXPECT_EQ(total, stats.tasks_executed);
}

TEST(SchedulerTest, PreCancelledTokenRunsNothing) {
  ThreadPool pool(2);
  WorkStealingScheduler<int> scheduler(&pool);
  CancelToken cancel;
  cancel.Cancel();
  const SchedulerStats stats = scheduler.Run(
      std::vector<int>{1, 2, 3},
      [](size_t, int&, std::vector<int>*) { FAIL() << "must not run"; },
      &cancel);
  EXPECT_FALSE(stats.completed);
  EXPECT_EQ(stats.tasks_executed, 0);
}

TEST(SchedulerTest, BodyExceptionPropagatesToCaller) {
  ThreadPool pool(2);
  WorkStealingScheduler<int> scheduler(&pool);
  std::vector<int> seeds(64);
  std::iota(seeds.begin(), seeds.end(), 0);
  EXPECT_THROW(
      scheduler.Run(
          std::move(seeds),
          [](size_t, int& task, std::vector<int>*) {
            if (task == 13) throw std::runtime_error("boom");
          },
          nullptr),
      std::runtime_error);
}

TEST(SchedulerTest, ConcurrencySmokeUnderContention) {
  // Many short runs with heavy spawning: the shape most likely to expose
  // a race between PushBottom, StealTop, the pending counter, and the
  // close handshake. Run under the tsan preset for the real verdict.
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    WorkStealingScheduler<int> scheduler(&pool);
    std::atomic<int64_t> executed{0};
    const SchedulerStats stats = scheduler.Run(
        std::vector<int>{0, 1, 2, 3},
        [&executed](size_t, int& task, std::vector<int>* spawned) {
          executed.fetch_add(1, std::memory_order_relaxed);
          if (task < 40) {
            spawned->push_back(task + 4);
            spawned->push_back(task + 5);
          }
        },
        nullptr);
    EXPECT_TRUE(stats.completed);
    EXPECT_EQ(stats.tasks_executed, executed.load());
  }
}

// ---------------------------------------------------------------------------
// Eclat integration: determinism with splits, cancellation mid-steal

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

/// 3000 transactions, 20 draws each from 30 hot items: singleton support
/// ~1480, pair support ~730. At min_support 600 the pairs are frequent
/// and the triples are not. Root-class tid volume (support x remaining
/// siblings, ~1480 x 29 ~ 43k for the earliest roots) clears the split
/// threshold (32k), so the parallel path must split subtrees — asserted
/// via the mine.eclat.splits counter — and each split spawns its frequent
/// children as stealable tasks.
TransactionSet SplitHeavyWorkload() {
  Rng rng(424242);
  TransactionSet transactions;
  transactions.Reserve(3000);
  for (int i = 0; i < 3000; ++i) {
    std::vector<Item> t;
    for (int j = 0; j < 20; ++j) {
      t.push_back(static_cast<Item>(rng.NextBounded(30)));
    }
    std::sort(t.begin(), t.end());
    t.erase(std::unique(t.begin(), t.end()), t.end());
    transactions.Add(std::move(t));
  }
  return transactions;
}

constexpr size_t kSplitHeavySupport = 600;

TEST(EclatWorkStealingTest, SplitSubtreesYieldBitIdenticalOutput) {
  const TransactionSet transactions = SplitHeavyWorkload();
  const std::vector<Itemset> serial =
      MineEclat(transactions, kSplitHeavySupport);
  ASSERT_GT(serial.size(), 30u);  // Pairs must be in play, not singletons only.

  obs::Counter* splits =
      obs::MetricsRegistry::Get().counter("mine.eclat.splits");
  obs::Counter* tasks =
      obs::MetricsRegistry::Get().counter("mine.eclat.subtree_tasks");
  const int64_t splits_before = splits->Value();
  const int64_t tasks_before = tasks->Value();

  ThreadPool pool(4);
  EclatOptions parallel;
  parallel.pool = &pool;
  for (int round = 0; round < 3; ++round) {
    const std::vector<Itemset> mt =
        MineEclat(transactions, kSplitHeavySupport, parallel);
    ASSERT_TRUE(SameItemsets(serial, mt)) << "round " << round;
  }
  EXPECT_GT(splits->Value(), splits_before)
      << "workload failed to exercise subtree splitting";
  // Splitting must create more tasks than the 30 root classes per round.
  EXPECT_GT(tasks->Value() - tasks_before, 3 * 30);
}

TEST(EclatWorkStealingTest, CancellationMidStealLeavesWellFormedSubset) {
  const TransactionSet transactions = SplitHeavyWorkload();
  const std::vector<Itemset> full =
      MineEclat(transactions, kSplitHeavySupport);

  ThreadPool pool(4);
  // Trip the token from a pool thread while mining runs, so cancellation
  // lands between steals with subtrees still queued. The trip task is
  // submitted BEFORE mining (the scheduler's own pool tasks queue behind
  // it) and naps briefly so the trip fires mid-run in the common case;
  // whenever it actually lands, the contract is the same: the result is a
  // subset of the full answer with exact supports — complete subtrees
  // only, nothing torn — and Check() reports kCancelled.
  CancelToken cancel;
  EclatOptions options;
  options.pool = &pool;
  options.cancel = &cancel;
  auto trip = pool.Submit([&cancel]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    cancel.Cancel();
  });
  const std::vector<Itemset> partial =
      MineEclat(transactions, kSplitHeavySupport, options);
  trip.get();
  EXPECT_TRUE(CancelToken::Check(&cancel).code() == StatusCode::kCancelled);
  EXPECT_LE(partial.size(), full.size());
  // Every emitted itemset must appear in the full answer with the same
  // support (ItemsetLess order lets us merge-scan).
  size_t j = 0;
  for (const Itemset& set : partial) {
    while (j < full.size() && ItemsetLess(full[j], set)) ++j;
    ASSERT_LT(j, full.size()) << "partial result contains unknown itemset";
    ASSERT_EQ(full[j].items, set.items);
    ASSERT_EQ(full[j].support, set.support);
    ++j;
  }
}

TEST(EclatWorkStealingTest, PreCancelledMiningReturnsEmpty) {
  TransactionSet transactions;
  transactions.Add(std::vector<Item>{0, 1});
  transactions.Add(std::vector<Item>{0, 1});
  CancelToken cancel;
  cancel.Cancel();
  ThreadPool pool(2);
  EclatOptions options;
  options.pool = &pool;
  options.cancel = &cancel;
  EXPECT_TRUE(MineEclat(transactions, 1, options).empty());
}

TEST(EclatWorkStealingTest, NestedMiningFromPoolWorkerDoesNotDeadlock) {
  // MineEclat called from a task running on the SAME pool it is handed:
  // the caller-participates design degrades to caller-only mining instead
  // of deadlocking on pool capacity.
  TransactionSet transactions;
  for (int i = 0; i < 50; ++i) {
    transactions.Add(std::vector<Item>{static_cast<Item>(i % 5),
                                       static_cast<Item>(5 + i % 3), 9});
  }
  const std::vector<Itemset> expected = MineEclat(transactions, 2);
  ThreadPool pool(1);
  EclatOptions options;
  options.pool = &pool;
  auto result = pool.Submit([&]() {
    return MineEclat(transactions, 2, options);
  });
  EXPECT_TRUE(SameItemsets(expected, result.get()));
}

}  // namespace
}  // namespace culevo
