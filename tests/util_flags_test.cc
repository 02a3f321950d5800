#include "util/flags.h"

#include <gtest/gtest.h>

namespace culevo {
namespace {

FlagParser Parse(std::vector<const char*> args) {
  args.insert(args.begin(), "binary");
  FlagParser parser;
  EXPECT_TRUE(
      parser.Parse(static_cast<int>(args.size()), args.data()).ok());
  return parser;
}

TEST(FlagParserTest, EqualsForm) {
  FlagParser flags = Parse({"--scale=0.5", "--name=x"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("scale", 1.0), 0.5);
  EXPECT_EQ(flags.GetString("name", ""), "x");
}

TEST(FlagParserTest, SpaceForm) {
  FlagParser flags = Parse({"--replicas", "7"});
  EXPECT_EQ(flags.GetInt("replicas", 0), 7);
}

TEST(FlagParserTest, BareBooleanForm) {
  FlagParser flags = Parse({"--verbose"});
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_TRUE(flags.Has("verbose"));
  EXPECT_FALSE(flags.Has("other"));
}

TEST(FlagParserTest, PositionalArguments) {
  FlagParser flags = Parse({"input.tsv", "--x=1", "output.tsv"});
  EXPECT_EQ(flags.positional(),
            (std::vector<std::string>{"input.tsv", "output.tsv"}));
}

TEST(FlagParserTest, DuplicateFlagRejected) {
  const char* argv[] = {"bin", "--a=1", "--a=2"};
  FlagParser parser;
  EXPECT_FALSE(parser.Parse(3, argv).ok());
}

TEST(FlagParserTest, MalformedValueExitsWithUsageError) {
  FlagParser flags = Parse({"--n=abc", "--d=xyz"});
  EXPECT_EXIT(flags.GetInt("n", 9), ::testing::ExitedWithCode(2),
              "invalid value 'abc' for --n");
  EXPECT_EXIT(flags.GetDouble("d", 2.5), ::testing::ExitedWithCode(2),
              "invalid value 'xyz' for --d");
}

TEST(FlagParserTest, BoolSpellings) {
  FlagParser flags =
      Parse({"--a=true", "--b=0", "--c=YES", "--d=off", "--e=maybe"});
  EXPECT_TRUE(flags.GetBool("a", false));
  EXPECT_FALSE(flags.GetBool("b", true));
  EXPECT_TRUE(flags.GetBool("c", false));
  EXPECT_FALSE(flags.GetBool("d", true));
  EXPECT_EXIT(flags.GetBool("e", true), ::testing::ExitedWithCode(2),
              "invalid value 'maybe' for --e");
}

TEST(FlagParserTest, UnknownFlagRejectedWhenKnownFlagsGiven) {
  const char* typo[] = {"bin", "evaluate", "--replica", "3", "--scale=0.02"};
  FlagParser refused;
  const Status status = refused.Parse(5, typo, {"replicas", "scale"});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("--replica"), std::string::npos) << status;

  const char* known[] = {"bin", "evaluate", "--replicas", "3", "--scale=0.02",
                         "--metrics"};
  FlagParser accepted;
  ASSERT_TRUE(accepted.Parse(6, known, {"replicas", "scale", "metrics"}).ok());
  EXPECT_EQ(accepted.GetInt("replicas", 0), 3);
  EXPECT_EQ(accepted.positional(), (std::vector<std::string>{"evaluate"}));

  // Without the names, any flag is accepted.
  FlagParser lenient;
  EXPECT_TRUE(lenient.Parse(5, typo).ok());
}

TEST(FlagParserTest, MissingFlagUsesDefault) {
  FlagParser flags = Parse({});
  EXPECT_EQ(flags.GetString("missing", "dflt"), "dflt");
  EXPECT_EQ(flags.GetInt("missing", -3), -3);
}

}  // namespace
}  // namespace culevo
