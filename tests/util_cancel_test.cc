#include "util/cancel.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>

namespace culevo {
namespace {

TEST(DeadlineTest, DefaultIsInfinite) {
  Deadline deadline;
  EXPECT_TRUE(deadline.infinite());
  EXPECT_FALSE(deadline.expired());
  EXPECT_EQ(deadline.raw_nanos(), Deadline::kInfinite);
  EXPECT_TRUE(Deadline::Infinite().infinite());
}

TEST(DeadlineTest, FutureDeadlineNotExpired) {
  const Deadline deadline = Deadline::AfterMillis(60'000);
  EXPECT_FALSE(deadline.infinite());
  EXPECT_FALSE(deadline.expired());
}

TEST(DeadlineTest, NonPositiveMillisAlreadyExpired) {
  EXPECT_TRUE(Deadline::AfterMillis(0).expired());
  EXPECT_TRUE(Deadline::AfterMillis(-5).expired());
}

// Durations past the clock's range saturate instead of wrapping into the
// past: a positive one never expires, a negative one has expired.
TEST(DeadlineTest, DurationsPastTheClockRangeSaturate) {
  for (const Deadline& deadline :
       {Deadline::AfterMillis(INT64_MAX),
        Deadline::After(std::chrono::nanoseconds::max())}) {
    EXPECT_TRUE(deadline.infinite());
    EXPECT_FALSE(deadline.expired());
  }
  EXPECT_TRUE(Deadline::AfterMillis(INT64_MIN).expired());
}

TEST(DeadlineTest, ShortDeadlineExpires) {
  const Deadline deadline = Deadline::AfterMillis(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(deadline.expired());
}

TEST(CancelTokenTest, FreshTokenRuns) {
  CancelToken token;
  EXPECT_FALSE(token.cancel_requested());
  EXPECT_FALSE(token.deadline_expired());
  EXPECT_FALSE(token.ShouldStop());
  EXPECT_TRUE(token.Check().ok());
}

TEST(CancelTokenTest, CancelTrips) {
  CancelToken token;
  token.Cancel();
  EXPECT_TRUE(token.cancel_requested());
  EXPECT_TRUE(token.ShouldStop());
  EXPECT_EQ(token.Check().code(), StatusCode::kCancelled);
  // Idempotent.
  token.Cancel();
  EXPECT_EQ(token.Check().code(), StatusCode::kCancelled);
}

TEST(CancelTokenTest, ExpiredDeadlineTrips) {
  CancelToken token;
  token.set_deadline(Deadline::AfterMillis(0));
  EXPECT_TRUE(token.deadline_expired());
  EXPECT_TRUE(token.ShouldStop());
  EXPECT_EQ(token.Check().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancelTokenTest, ClearingDeadlineUntrips) {
  CancelToken token;
  token.set_deadline(Deadline::AfterMillis(0));
  EXPECT_TRUE(token.ShouldStop());
  token.set_deadline(Deadline::Infinite());
  EXPECT_FALSE(token.ShouldStop());
  EXPECT_TRUE(token.Check().ok());
}

TEST(CancelTokenTest, ExplicitCancelWinsOverDeadline) {
  CancelToken token;
  token.set_deadline(Deadline::AfterMillis(0));
  token.Cancel();
  EXPECT_EQ(token.Check().code(), StatusCode::kCancelled);
}

TEST(CancelTokenTest, DeadlineConstructor) {
  CancelToken token{Deadline::AfterMillis(0)};
  EXPECT_EQ(token.Check().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancelTokenTest, NullTolerantHelpers) {
  EXPECT_FALSE(CancelToken::ShouldStop(nullptr));
  EXPECT_TRUE(CancelToken::Check(nullptr).ok());
  CancelToken token;
  EXPECT_FALSE(CancelToken::ShouldStop(&token));
  token.Cancel();
  EXPECT_TRUE(CancelToken::ShouldStop(&token));
  EXPECT_EQ(CancelToken::Check(&token).code(), StatusCode::kCancelled);
}

TEST(CancelTokenTest, CancelVisibleAcrossThreads) {
  CancelToken token;
  std::thread controller([&token] { token.Cancel(); });
  controller.join();
  EXPECT_TRUE(token.ShouldStop());
}

}  // namespace
}  // namespace culevo
