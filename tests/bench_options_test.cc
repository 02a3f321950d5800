#include "bench/bench_common.h"

#include <gtest/gtest.h>

#include <vector>

namespace culevo::bench {
namespace {

/// Parses `args` (without argv[0]) into a BenchOptions, returning the
/// validation status alongside the options.
Status ParseInto(std::vector<const char*> args, BenchOptions* options) {
  args.insert(args.begin(), "bench_binary");
  Status parse = options->flags.Parse(static_cast<int>(args.size()),
                                      args.data());
  if (!parse.ok()) return parse;
  return ApplyParsedFlags(options);
}

TEST(BenchOptionsTest, DefaultsSurviveEmptyCommandLine) {
  BenchOptions options;
  ASSERT_TRUE(ParseInto({}, &options).ok());
  EXPECT_DOUBLE_EQ(options.scale, 0.25);
  EXPECT_EQ(options.replicas, 20);
  EXPECT_EQ(options.seed, 42u);
  EXPECT_TRUE(options.json_path.empty());
}

// Regression: the --seed fallback used to be hardcoded to 42 instead of
// the struct default, so a caller-customized default was silently lost.
TEST(BenchOptionsTest, SeedFallbackUsesStructDefault) {
  BenchOptions options;
  options.seed = 1234;
  ASSERT_TRUE(ParseInto({}, &options).ok());
  EXPECT_EQ(options.seed, 1234u);
}

TEST(BenchOptionsTest, FlagsOverrideDefaults) {
  BenchOptions options;
  ASSERT_TRUE(ParseInto({"--scale", "0.5", "--replicas", "7", "--seed",
                         "99", "--json", "out.json"},
                        &options)
                  .ok());
  EXPECT_DOUBLE_EQ(options.scale, 0.5);
  EXPECT_EQ(options.replicas, 7);
  EXPECT_EQ(options.seed, 99u);
  EXPECT_EQ(options.json_path, "out.json");
}

TEST(BenchOptionsTest, RejectsZeroReplicas) {
  BenchOptions options;
  const Status status = ParseInto({"--replicas", "0"}, &options);
  EXPECT_FALSE(status.ok());
}

TEST(BenchOptionsTest, RejectsNegativeReplicas) {
  BenchOptions options;
  const Status status = ParseInto({"--replicas", "-5"}, &options);
  EXPECT_FALSE(status.ok());
}

// 4294967297 must not wrap to one replica.
TEST(BenchOptionsTest, RejectsReplicasAboveIntMax) {
  BenchOptions options;
  const Status status = ParseInto({"--replicas", "4294967297"}, &options);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(BenchOptionsTest, RejectsNonPositiveScale) {
  BenchOptions options;
  EXPECT_FALSE(ParseInto({"--scale", "0"}, &options).ok());
  BenchOptions negative;
  EXPECT_FALSE(ParseInto({"--scale", "-0.1"}, &negative).ok());
}

TEST(BenchOptionsTest, RejectsScaleAboveOne) {
  BenchOptions options;
  const Status status = ParseInto({"--scale", "1.5"}, &options);
  EXPECT_FALSE(status.ok());
}

TEST(BenchOptionsTest, RejectsValuelessJsonFlag) {
  // A bare `--json` parses as the literal "true"; without this check the
  // bench would write its telemetry to a file named `true`.
  BenchOptions options;
  const Status status = ParseInto({"--json"}, &options);
  EXPECT_FALSE(status.ok());
}

TEST(BenchOptionsTest, AcceptsBoundaryScaleOne) {
  BenchOptions options;
  ASSERT_TRUE(ParseInto({"--scale", "1.0"}, &options).ok());
  EXPECT_DOUBLE_EQ(options.scale, 1.0);
}

}  // namespace
}  // namespace culevo::bench
