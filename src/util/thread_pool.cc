#include "util/thread_pool.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/cancel.h"
#include "util/stopwatch.h"

namespace culevo {

ThreadPool::ThreadPool(size_t num_threads)
    : num_threads_(num_threads == 0 ? UsableCpus() : num_threads) {}

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
              const std::function<void(size_t)>& fn,
              const CancelToken* cancel) {
  threads = std::min(threads, tasks);
  if (threads <= 1) {
    for (size_t i = 0; i < tasks && !CancelToken::ShouldStop(cancel); ++i) {
      fn(i);
    }
    return;
  }
  static obs::Histogram* const task_ms =
      obs::MetricsRegistry::Get().histogram("threadpool.task_ms");
  static obs::Histogram* const worker_idle_ms =
      obs::MetricsRegistry::Get().histogram("threadpool.worker_idle_ms");

  const Stopwatch wall;
  std::atomic<size_t> next{0};
  std::vector<double> busy_ms(threads, 0.0);
  std::mutex error_mu;
  size_t error_index = tasks;
  std::exception_ptr error;
  const auto claim = [&](size_t thread) {
    double busy = 0.0;
    for (size_t i = next++; i < tasks && !CancelToken::ShouldStop(cancel);
         i = next++) {
      const Stopwatch task;
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
      }
      const double ms = task.ElapsedMillis();
      task_ms->Record(ms);
      busy += ms;
    }
    busy_ms[thread] = busy;
  };
  std::vector<std::thread> started;
  started.reserve(threads - 1);
  for (size_t thread = 1; thread < threads; ++thread) {
    try {
      started.emplace_back(claim, thread);
    } catch (const std::system_error&) {
      break;  // no thread to be had: the running ones claim the rest
    }
  }
  claim(0);
  for (std::thread& thread : started) thread.join();
  const double wall_ms = wall.ElapsedMillis();
  for (size_t thread = 0; thread <= started.size(); ++thread) {
    worker_idle_ms->Record(wall_ms - busy_ms[thread]);
  }
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace culevo
