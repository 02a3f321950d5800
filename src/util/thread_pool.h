#ifndef CULEVO_UTIL_THREAD_POOL_H_
#define CULEVO_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace culevo {

class CancelToken;

/// Fixed-size worker pool used to parallelize independent simulation
/// replicas. Tasks are plain std::function<void()>; Submit returns a future.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1). Defaults to hardware concurrency.
  explicit ThreadPool(size_t num_threads = 0);

  /// Drains the queue and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues `fn` and returns a future for its result.
  template <typename Fn>
  auto Submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> result = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.emplace_back([task]() { (*task)(); });
    }
    NotifyTaskQueued();
    cv_.notify_one();
    return result;
  }

  /// Runs fn(i) for i in [0, count), distributing across the pool, and
  /// blocks until ALL iterations complete — even when some of them throw.
  /// The first exception (in index order of future consumption) is
  /// rethrown after the last iteration has finished; later exceptions are
  /// discarded.
  void ParallelFor(size_t count, const std::function<void(size_t)>& fn);

  /// Cancellation-aware variant: each queued iteration polls `cancel`
  /// before running its body and is silently skipped once the token has
  /// tripped, so a cancelled loop drains within one in-flight granule per
  /// worker instead of running to completion. Iterations that already
  /// started always finish (their outputs stay well-formed). The caller
  /// decides what a tripped token means — this method still blocks until
  /// every queued task has run or been skipped, and rethrows like the
  /// two-argument overload. `cancel == nullptr` behaves identically to
  /// the two-argument form.
  void ParallelFor(size_t count, const std::function<void(size_t)>& fn,
                   const CancelToken* cancel);

 private:
  void WorkerLoop();
  /// Bumps the queue-depth gauge (out-of-line so the header does not pull
  /// in the metrics registry).
  void NotifyTaskQueued();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

/// CPUs in the calling thread's affinity mask (sched_getaffinity), at
/// least 1. This, not hardware_concurrency(), is what a pass may use:
/// taskset, a cpuset or a pinned daemon narrows it.
size_t UsableCpus();

/// Threads a pass over `work` units deserves: one per whole `grain`, so
/// work under two grains stays on the calling thread; at least 1, at most
/// UsableCpus().
size_t ThreadsFor(size_t work, size_t grain);

/// Runs fn(0), ..., fn(tasks - 1) and returns once all have finished:
/// in index order on the calling thread when `threads` <= 1, else
/// through ParallelFor (and its exception contract) on a pool of
/// min(threads, tasks) threads made for this call. Either way every task
/// runs the same code.
void RunTasks(size_t tasks, size_t threads,
              const std::function<void(size_t)>& fn);

}  // namespace culevo

#endif  // CULEVO_UTIL_THREAD_POOL_H_
