#include "util/stopwatch.h"

#include <gtest/gtest.h>

namespace culevo {
namespace {

/// Busy-waits a tiny amount; the volatile store keeps the loop.
void Spin() {
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + static_cast<double>(i);
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch watch;
  const double first = watch.ElapsedSeconds();
  EXPECT_GE(first, 0.0);
  // Elapsed must be monotone.
  Spin();
  const double second = watch.ElapsedSeconds();
  EXPECT_GE(second, first);
  EXPECT_NEAR(watch.ElapsedMillis(), watch.ElapsedSeconds() * 1e3,
              watch.ElapsedSeconds() * 50);
}

TEST(StopwatchTest, RestartResets) {
  Stopwatch watch;
  Spin();
  const double before = watch.ElapsedSeconds();
  watch.Restart();
  EXPECT_LE(watch.ElapsedSeconds(), before + 1.0);
}

}  // namespace
}  // namespace culevo
