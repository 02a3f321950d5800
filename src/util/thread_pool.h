#ifndef CULEVO_UTIL_THREAD_POOL_H_
#define CULEVO_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <functional>

namespace culevo {

class CancelToken;

/// The thread count that RunSimulation and EvaluateCuisine run their
/// replica loops on (each loop is one RunTasks call). It holds no thread.
/// It stays a class only because culevo_bench/evolve.cc constructs one and
/// passes it to EvaluateCuisine; elsewhere a pass takes its count directly.
class ThreadPool {
 public:
  /// `num_threads` == 0 means UsableCpus().
  explicit ThreadPool(size_t num_threads = 0);

  size_t num_threads() const { return num_threads_; }

 private:
  size_t num_threads_;
};

/// CPUs in the calling thread's affinity mask (sched_getaffinity), at
/// least 1. This, not hardware_concurrency(), is what a pass may use:
/// taskset, a cpuset or a pinned daemon narrows it.
size_t UsableCpus();

/// Threads a pass over `work` units deserves: one per whole `grain`, so
/// work under two grains stays on the calling thread; at least 1, at most
/// UsableCpus().
size_t ThreadsFor(size_t work, size_t grain);

/// Runs fn(0), ..., fn(tasks - 1) and returns once all have finished. With
/// t = min(threads, tasks):
/// - t <= 1: the tasks run in index order on the calling thread and stop at
///   a tripped `cancel`; the first exception propagates at once.
/// - t > 1: the calling thread and t - 1 threads started for this call
///   claim indices in ascending order from one counter, and an index
///   claimed after `cancel` trips is skipped. A task's exception is caught:
///   every thread is joined before the exception of the lowest throwing
///   index is rethrown.
/// Such a loop records one `threadpool.task_ms` sample per task run and one
/// `threadpool.worker_idle_ms` sample per thread (the loop's wall time
/// minus the thread's task time); a loop with t <= 1 records nothing.
void RunTasks(size_t tasks, size_t threads,
              const std::function<void(size_t)>& fn,
              const CancelToken* cancel = nullptr);

}  // namespace culevo

#endif  // CULEVO_UTIL_THREAD_POOL_H_
