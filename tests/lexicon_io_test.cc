#include "lexicon/lexicon_io.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "util/csv.h"
#include "util/failpoint.h"

namespace culevo {
namespace {

/// The lexicon in the TSV file at `path`.
Result<Lexicon> ReadLexiconFile(const std::string& path) {
  Result<std::string> text = ReadFileToString(path);
  if (!text.ok()) return text.status();
  return ParseLexiconTsv(*text);
}

constexpr char kGoodTsv[] =
    "# comment line\n"
    "Vegetable\tTomato\t0\tlove apple\n"
    "\n"
    "Additive\tSoybean Sauce\t1\tsoy sauce;shoyu\n"
    "Spice\tCumin\t0\t\n";

TEST(ParseLexiconTsvTest, ParsesEntitiesAliasesAndCompounds) {
  Result<Lexicon> lexicon = ParseLexiconTsv(kGoodTsv);
  ASSERT_TRUE(lexicon.ok());
  EXPECT_EQ(lexicon->size(), 3u);
  EXPECT_EQ(lexicon->num_compounds(), 1u);

  const auto sauce = lexicon->Find("shoyu");
  ASSERT_TRUE(sauce.has_value());
  EXPECT_EQ(lexicon->name(*sauce), "Soybean Sauce");
  EXPECT_TRUE(lexicon->is_compound(*sauce));
  EXPECT_EQ(lexicon->Find("love apple"), lexicon->Find("tomato"));
}

TEST(ParseLexiconTsvTest, RejectsUnknownCategory) {
  Result<Lexicon> lexicon = ParseLexiconTsv("Sorcery\tEye of Newt\t0\t\n");
  EXPECT_FALSE(lexicon.ok());
}

TEST(ParseLexiconTsvTest, RejectsMissingFields) {
  EXPECT_FALSE(ParseLexiconTsv("Vegetable\tTomato\n").ok());
}

TEST(ParseLexiconTsvTest, RejectsBadCompoundFlag) {
  EXPECT_FALSE(ParseLexiconTsv("Vegetable\tTomato\t2\t\n").ok());
  EXPECT_FALSE(ParseLexiconTsv("Vegetable\tTomato\tx\t\n").ok());
}

TEST(ParseLexiconTsvTest, RejectsDuplicateEntities) {
  EXPECT_FALSE(
      ParseLexiconTsv("Vegetable\tTomato\t0\t\nFruit\tTomatoes\t0\t\n")
          .ok());
}

TEST(ParseLexiconTsvTest, ReportsLineNumbers) {
  Result<Lexicon> lexicon =
      ParseLexiconTsv("Vegetable\tTomato\t0\t\nBadLine\n");
  ASSERT_FALSE(lexicon.ok());
  EXPECT_NE(lexicon.status().message().find("line 2"), std::string::npos);
}

TEST(LexiconTsvRoundTripTest, PreservesEntities) {
  Result<Lexicon> original = ParseLexiconTsv(kGoodTsv);
  ASSERT_TRUE(original.ok());
  const std::string serialized = FormatLexiconTsv(original.value());
  Result<Lexicon> reparsed = ParseLexiconTsv(serialized);
  ASSERT_TRUE(reparsed.ok());
  ASSERT_EQ(reparsed->size(), original->size());
  for (size_t i = 0; i < original->size(); ++i) {
    const IngredientId id = static_cast<IngredientId>(i);
    EXPECT_EQ(reparsed->name(id), original->name(id));
    EXPECT_EQ(reparsed->category(id), original->category(id));
    EXPECT_EQ(reparsed->is_compound(id), original->is_compound(id));
  }
}

TEST(LexiconTsvFileTest, ReadMissingFileFails) {
  Result<Lexicon> lexicon = ReadLexiconFile("/nonexistent/lex.tsv");
  ASSERT_FALSE(lexicon.ok());
  EXPECT_EQ(lexicon.status().code(), StatusCode::kIOError);
}

// Failpoint-driven error paths through the file read: a fault before the
// open (io.read.open) and a mid-stream failure after a successful open
// (io.read.stream) both surface the injected Status.
class LexiconIoFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/culevo_lexicon_fault.tsv";
    Result<Lexicon> lexicon = ParseLexiconTsv(kGoodTsv);
    ASSERT_TRUE(lexicon.ok());
    ASSERT_TRUE(WriteLexiconTsv(path_, lexicon.value()).ok());
  }
  void TearDown() override {
    Failpoints::Get().DisarmAll();
    std::remove(path_.c_str());
  }

  std::string path_;
};

TEST_F(LexiconIoFaultTest, ReadFailpointPropagates) {
  Failpoints::Get().Arm("io.read.open");
  Result<Lexicon> lexicon = ReadLexiconFile(path_);
  ASSERT_FALSE(lexicon.ok());
  EXPECT_EQ(lexicon.status().code(), StatusCode::kIOError);
}

TEST_F(LexiconIoFaultTest, MidStreamReadFailurePropagates) {
  Failpoints::Get().Arm("io.read.stream");
  Result<Lexicon> lexicon = ReadLexiconFile(path_);
  ASSERT_FALSE(lexicon.ok());
  EXPECT_EQ(lexicon.status().code(), StatusCode::kIOError);
  Failpoints::Get().DisarmAll();
  EXPECT_TRUE(ReadLexiconFile(path_).ok());
}

}  // namespace
}  // namespace culevo
