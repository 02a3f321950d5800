#ifndef CULEVO_TESTS_ONE_CPU_TEST_UTIL_H_
#define CULEVO_TESTS_ONE_CPU_TEST_UTIL_H_

// Test-only helper for comparing a parallel pass with the same pass on
// one CPU (util/thread_pool.h: UsableCpus reads the calling thread's
// affinity mask, so pinning that thread keeps every pass on it).

#include <pthread.h>
#include <sched.h>

namespace culevo {

/// Pins the calling thread to the first CPU of its affinity mask for the
/// lifetime of the object, and restores the mask on destruction.
class OneCpuScope {
 public:
  OneCpuScope() {
    ::pthread_getaffinity_np(::pthread_self(), sizeof(saved_), &saved_);
    cpu_set_t one;
    CPU_ZERO(&one);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) {
        CPU_SET(cpu, &one);
        break;
      }
    }
    ::pthread_setaffinity_np(::pthread_self(), sizeof(one), &one);
  }
  ~OneCpuScope() {
    ::pthread_setaffinity_np(::pthread_self(), sizeof(saved_), &saved_);
  }
  OneCpuScope(const OneCpuScope&) = delete;
  OneCpuScope& operator=(const OneCpuScope&) = delete;

 private:
  cpu_set_t saved_;
};

}  // namespace culevo

#endif  // CULEVO_TESTS_ONE_CPU_TEST_UTIL_H_
