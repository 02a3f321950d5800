#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "one_cpu_test_util.h"
#include "util/cancel.h"

namespace culevo {
namespace {

TEST(ThreadPoolTest, DefaultsToAtLeastOneThread) {
  EXPECT_EQ(ThreadPool(0).num_threads(), UsableCpus());
  EXPECT_EQ(ThreadPool(3).num_threads(), 3u);
  const OneCpuScope pin;
  EXPECT_EQ(ThreadPool(0).num_threads(), 1u);
}

TEST(RunTasksTest, CoversAllIndices) {
  std::vector<std::atomic<int>> hits(500);
  RunTasks(500, 3, [&hits](size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(RunTasksTest, ZeroIsNoop) {
  RunTasks(0, 2, [](size_t) { FAIL() << "must not run"; });
}

// Each task waits, boundedly, until both have started: a loop that ran
// them one after the other fails here instead of hanging.
TEST(RunTasksTest, TwoThreadsRunTwoTasksAtOnce) {
  std::atomic<int> started{0};
  std::array<bool, 2> met = {false, false};
  std::array<std::thread::id, 2> ran_on;
  RunTasks(2, 2, [&](size_t i) {
    ran_on[i] = std::this_thread::get_id();
    ++started;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (started.load() < 2 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    met[i] = started.load() == 2;
  });
  EXPECT_TRUE(met[0]);
  EXPECT_TRUE(met[1]);
  EXPECT_NE(ran_on[0], ran_on[1]);
  const std::thread::id caller = std::this_thread::get_id();
  EXPECT_TRUE(ran_on[0] == caller || ran_on[1] == caller);
}

TEST(RunTasksTest, EachIndexOnceOnAtMostTheThreadsAsked) {
  std::vector<std::atomic<int>> hits(64);
  std::mutex mu;
  std::set<std::thread::id> threads;
  RunTasks(64, 4, [&](size_t i) {
    ++hits[i];
    const std::lock_guard<std::mutex> lock(mu);
    threads.insert(std::this_thread::get_id());
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_GE(threads.size(), 1u);
  EXPECT_LE(threads.size(), 4u);
}

TEST(RunTasksTest, OneThreadRunsInIndexOrderOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  // t = min(threads, tasks) <= 1 in each case.
  for (const auto& [tasks, threads] :
       std::vector<std::pair<size_t, size_t>>{{10, 1}, {10, 0}, {1, 8}}) {
    std::vector<size_t> order;
    RunTasks(tasks, threads, [&](size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(i);
    });
    ASSERT_EQ(order.size(), tasks);
    for (size_t i = 0; i < tasks; ++i) EXPECT_EQ(order[i], i);
  }
}

TEST(RunTasksTest, PreTrippedTokenRunsNoTask) {
  CancelToken token;
  token.Cancel();
  for (const size_t threads : {1, 4}) {
    std::atomic<int> ran{0};
    RunTasks(100, threads, [&ran](size_t) { ++ran; }, &token);
    EXPECT_EQ(ran.load(), 0) << threads << " thread(s)";
  }
}

TEST(RunTasksTest, TripSkipsTasksClaimedAfterIt) {
  CancelToken token;
  std::vector<std::atomic<int>> hits(1000);
  RunTasks(
      1000, 4,
      [&](size_t i) {
        ++hits[i];
        if (i == 9) token.Cancel();
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      },
      &token);
  int ran = 0;
  for (const auto& h : hits) ran += h.load();
  EXPECT_EQ(hits[9].load(), 1);
  EXPECT_LT(ran, 1000);
}

// Every task runs before the loop rethrows, even when some throw.
TEST(RunTasksTest, ThrowingBodyRunsAllIterations) {
  std::atomic<int> started{0};
  const size_t count = 128;
  try {
    RunTasks(count, 4, [&started](size_t i) {
      ++started;
      if (i % 2 == 0) {
        throw std::runtime_error("iteration " + std::to_string(i));
      }
    });
    FAIL() << "RunTasks must propagate the body's exception";
  } catch (const std::runtime_error& e) {
    // The lowest throwing index wins, whichever thread ran it.
    EXPECT_STREQ(e.what(), "iteration 0");
  }
  EXPECT_EQ(started.load(), static_cast<int>(count));
}

TEST(RunTasksTest, PropagatesFirstException) {
  // Only iteration 0 throws, so the propagated exception is unambiguous.
  try {
    RunTasks(64, 2, [](size_t i) {
      if (i == 0) throw std::runtime_error("first");
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
}

TEST(RunTasksTest, SerialLoopThrowsAtOnce) {
  int ran = 0;
  EXPECT_THROW(RunTasks(16, 1,
                        [&ran](size_t i) {
                          ++ran;
                          if (i == 3) throw 42;
                        }),
               int);
  EXPECT_EQ(ran, 4);
}

TEST(RunTasksTest, UsableAfterThrow) {
  EXPECT_THROW(RunTasks(16, 3, [](size_t) { throw 42; }), int);
  std::atomic<int> hits{0};
  RunTasks(100, 3, [&hits](size_t) { ++hits; });
  EXPECT_EQ(hits.load(), 100);
}

TEST(RunTasksTest, RecordsATaskSamplePerTaskAndAnIdleSamplePerThread) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  const obs::Histogram* task_ms = registry.histogram("threadpool.task_ms");
  const obs::Histogram* idle_ms =
      registry.histogram("threadpool.worker_idle_ms");
  const int64_t tasks_before = task_ms->Snapshot().count;
  const int64_t idle_before = idle_ms->Snapshot().count;
  RunTasks(64, 4, [](size_t) {});
  EXPECT_EQ(task_ms->Snapshot().count - tasks_before, 64);
  EXPECT_EQ(idle_ms->Snapshot().count - idle_before, 4);
  RunTasks(64, 1, [](size_t) {});
  EXPECT_EQ(task_ms->Snapshot().count - tasks_before, 64);
  EXPECT_EQ(idle_ms->Snapshot().count - idle_before, 4);
}

// Many short loops back to back, as a replica sweep makes them: each
// writes its own outputs and one shared counter (run under TSan too).
TEST(RunTasksTest, ManyShortLoopsStress) {
  constexpr size_t kLoops = 200;
  constexpr size_t kTasks = 64;
  std::atomic<size_t> shared{0};
  for (size_t loop = 0; loop < kLoops; ++loop) {
    std::vector<size_t> out(kTasks, 0);
    RunTasks(kTasks, 4, [&](size_t i) {
      out[i] = loop * kTasks + i;
      shared.fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < kTasks; ++i) {
      ASSERT_EQ(out[i], loop * kTasks + i) << "loop " << loop;
    }
  }
  EXPECT_EQ(shared.load(), kLoops * kTasks);
}

}  // namespace
}  // namespace culevo
