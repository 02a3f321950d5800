#include "util/thread_pool.h"

#include <sched.h>

#include <algorithm>
#include <exception>

#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "util/cancel.h"
#include "util/stopwatch.h"

namespace culevo {
namespace {

struct PoolMetrics {
  obs::Counter* tasks_executed;
  obs::Gauge* queue_depth;
  obs::Histogram* worker_idle_ms;
  obs::Histogram* task_ms;

  static const PoolMetrics& Get() {
    static const PoolMetrics metrics = {
        obs::MetricsRegistry::Get().counter("threadpool.tasks_executed"),
        obs::MetricsRegistry::Get().gauge("threadpool.queue_depth"),
        obs::MetricsRegistry::Get().histogram("threadpool.worker_idle_ms"),
        obs::MetricsRegistry::Get().histogram("threadpool.task_ms"),
    };
    return metrics;
  }
};

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::NotifyTaskQueued() {
  PoolMetrics::Get().queue_depth->Add(1.0);
}

void ThreadPool::WorkerLoop() {
  const PoolMetrics& metrics = PoolMetrics::Get();
  while (true) {
    std::function<void()> task;
    Stopwatch idle;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this]() { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // All bookkeeping for this dequeue lands BEFORE the task body runs.
    // The task's completion is the only event outside observers can
    // synchronize with (via its future), so anything recorded after
    // task() — as tasks_executed used to be — may or may not be visible
    // in a snapshot taken right after a drain. Recording idle, depth, and
    // executed together up front keeps them in lockstep: every snapshot
    // synchronized with task completion sees exactly one idle sample and
    // one executed increment per dequeued task.
    metrics.worker_idle_ms->Record(idle.ElapsedMillis());
    metrics.queue_depth->Add(-1.0);
    metrics.tasks_executed->Increment();
    {
      obs::ScopedTimer timer(metrics.task_ms);
      task();
    }
  }
}

void ThreadPool::ParallelFor(size_t count,
                             const std::function<void(size_t)>& fn) {
  ParallelFor(count, fn, nullptr);
}

void ThreadPool::ParallelFor(size_t count,
                             const std::function<void(size_t)>& fn,
                             const CancelToken* cancel) {
  if (count == 0) return;
  std::vector<std::future<void>> futures;
  futures.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    futures.push_back(Submit([&fn, cancel, i]() {
      if (CancelToken::ShouldStop(cancel)) return;
      fn(i);
    }));
  }
  // The lambdas above capture `fn` (owned by the caller's frame) by
  // reference, so every queued task must finish before this frame can
  // unwind. Drain all futures unconditionally, remember the first
  // failure, and only then rethrow — bailing out on the first get() would
  // leave queued tasks holding a dangling reference (use-after-free).
  std::exception_ptr first_error;
  for (std::future<void>& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (first_error == nullptr) first_error = std::current_exception();
    }
  }
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

size_t UsableCpus() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (::sched_getaffinity(0, sizeof(mask), &mask) != 0) return 1;
  return std::max(1, CPU_COUNT(&mask));
}

size_t ThreadsFor(size_t work, size_t grain) {
  return std::clamp<size_t>(work / grain, 1, UsableCpus());
}

void RunTasks(size_t tasks, size_t threads,
              const std::function<void(size_t)>& fn) {
  threads = std::min(threads, tasks);
  if (threads <= 1) {
    for (size_t i = 0; i < tasks; ++i) fn(i);
    return;
  }
  ThreadPool pool(threads);
  pool.ParallelFor(tasks, fn);
}

}  // namespace culevo
