#include "util/failpoint.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace culevo {
namespace {

// The registry is process-global: every test disarms everything on the way
// out so armed points never leak into later cases (or other suites linked
// into the same binary).
class FailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoints::Get().DisarmAll(); }
};

Status GuardedOperation() {
  CULEVO_FAILPOINT("test.guarded.op");
  return Status::Ok();
}

TEST_F(FailpointTest, UnarmedIsOk) {
  EXPECT_TRUE(FailpointCheck("test.never.armed").ok());
  EXPECT_EQ(Failpoints::Get().HitCount("test.never.armed"), 0);
}

TEST_F(FailpointTest, ArmedFiresDefaultIoError) {
  Failpoints::Get().Arm("test.site");
  const Status status = FailpointCheck("test.site");
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  // Fires on every hit until disarmed.
  EXPECT_FALSE(FailpointCheck("test.site").ok());
}

TEST_F(FailpointTest, CustomStatusInjected) {
  Failpoints::ArmSpec spec;
  spec.status = Status::NotFound("synthetic miss");
  Failpoints::Get().Arm("test.site", spec);
  const Status status = FailpointCheck("test.site");
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.message(), "synthetic miss");
}

TEST_F(FailpointTest, SkipPassesEarlyHitsThrough) {
  Failpoints::ArmSpec spec;
  spec.skip = 2;
  Failpoints::Get().Arm("test.site", spec);
  EXPECT_TRUE(FailpointCheck("test.site").ok());
  EXPECT_TRUE(FailpointCheck("test.site").ok());
  EXPECT_FALSE(FailpointCheck("test.site").ok());
}

TEST_F(FailpointTest, FiresBudgetExhausts) {
  Failpoints::ArmSpec spec;
  spec.fires = 1;
  Failpoints::Get().Arm("test.site", spec);
  EXPECT_FALSE(FailpointCheck("test.site").ok());
  EXPECT_TRUE(FailpointCheck("test.site").ok());
  EXPECT_TRUE(FailpointCheck("test.site").ok());
}

TEST_F(FailpointTest, HitCountCountsPassesAndInjections) {
  Failpoints::ArmSpec spec;
  spec.skip = 1;
  Failpoints::Get().Arm("test.site", spec);
  (void)FailpointCheck("test.site");  // pass-through
  (void)FailpointCheck("test.site");  // injection
  EXPECT_EQ(Failpoints::Get().HitCount("test.site"), 2);
}

TEST_F(FailpointTest, DisarmStopsInjection) {
  Failpoints::Get().Arm("test.site");
  EXPECT_FALSE(FailpointCheck("test.site").ok());
  Failpoints::Get().Disarm("test.site");
  EXPECT_TRUE(FailpointCheck("test.site").ok());
  // Disarming an unknown name is a no-op.
  Failpoints::Get().Disarm("test.not.a.site");
}

TEST_F(FailpointTest, RearmResetsCounters) {
  Failpoints::ArmSpec spec;
  spec.fires = 1;
  Failpoints::Get().Arm("test.site", spec);
  EXPECT_FALSE(FailpointCheck("test.site").ok());
  EXPECT_TRUE(FailpointCheck("test.site").ok());  // budget spent
  Failpoints::Get().Arm("test.site", spec);
  EXPECT_FALSE(FailpointCheck("test.site").ok());  // budget refreshed
}

TEST_F(FailpointTest, MacroPropagatesInjectedStatus) {
  EXPECT_TRUE(GuardedOperation().ok());
  Failpoints::Get().Arm("test.guarded.op");
  EXPECT_EQ(GuardedOperation().code(), StatusCode::kIOError);
  Failpoints::Get().DisarmAll();
  EXPECT_TRUE(GuardedOperation().ok());
}

TEST_F(FailpointTest, ArmFromSpecParsesEntries) {
  ASSERT_TRUE(Failpoints::Get()
                  .ArmFromSpec("test.a; test.b=2 , test.c*1 ;test.d=1*2")
                  .ok());
  EXPECT_FALSE(FailpointCheck("test.a").ok());
  // test.b skips two hits.
  EXPECT_TRUE(FailpointCheck("test.b").ok());
  EXPECT_TRUE(FailpointCheck("test.b").ok());
  EXPECT_FALSE(FailpointCheck("test.b").ok());
  // test.c fires once.
  EXPECT_FALSE(FailpointCheck("test.c").ok());
  EXPECT_TRUE(FailpointCheck("test.c").ok());
  // test.d skips one then fires twice.
  EXPECT_TRUE(FailpointCheck("test.d").ok());
  EXPECT_FALSE(FailpointCheck("test.d").ok());
  EXPECT_FALSE(FailpointCheck("test.d").ok());
  EXPECT_TRUE(FailpointCheck("test.d").ok());
}

TEST_F(FailpointTest, ArmFromSpecRejectsMalformedEntries) {
  EXPECT_EQ(Failpoints::Get().ArmFromSpec("test.x=notanumber").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Failpoints::Get().ArmFromSpec("=3").code(),
            StatusCode::kInvalidArgument);
  // A count past INT_MAX is refused, not wrapped.
  EXPECT_EQ(Failpoints::Get().ArmFromSpec("test.x=4294967296").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Failpoints::Get().ArmFromSpec("test.x*4294967296").code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(FailpointCheck("test.x").ok());
  // Earlier entries in a partially-bad spec stay armed.
  EXPECT_FALSE(Failpoints::Get().ArmFromSpec("test.ok; test.bad=x").ok());
  EXPECT_FALSE(FailpointCheck("test.ok").ok());
}

// A malformed entry anywhere in the spec must not take down the process
// (the constructor path parses the CULEVO_FAILPOINTS environment variable
// before main), and must not shadow well-formed entries *after* it: the
// bad entry is skipped with a warning, counted in failpoint.parse_errors,
// and everything parseable still arms.
TEST_F(FailpointTest, MalformedEntryIsSkippedCountedAndNonFatal) {
  obs::Counter* parse_errors =
      obs::MetricsRegistry::Get().counter("failpoint.parse_errors");
  const int64_t errors0 = parse_errors->Value();

  const Status status =
      Failpoints::Get().ArmFromSpec("test.bad=x; test.after*1; *2");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(parse_errors->Value() - errors0, 2);

  // The entry after the malformed one armed anyway.
  EXPECT_FALSE(FailpointCheck("test.after").ok());
  EXPECT_TRUE(FailpointCheck("test.after").ok());  // fires budget of 1
  // The malformed names never armed.
  EXPECT_TRUE(FailpointCheck("test.bad").ok());
}

TEST_F(FailpointTest, DisarmAllRestoresFastPath) {
  Failpoints::Get().Arm("test.site");
  Failpoints::Get().DisarmAll();
  EXPECT_TRUE(FailpointCheck("test.site").ok());
  EXPECT_EQ(Failpoints::Get().HitCount("test.site"), 0);
}

}  // namespace
}  // namespace culevo
