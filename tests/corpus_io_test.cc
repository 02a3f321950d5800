#include "corpus/corpus_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "lexicon/world_lexicon.h"
#include "util/csv.h"
#include "util/failpoint.h"

namespace culevo {
namespace {

/// The corpus in the TSV file at `path`.
Result<RecipeCorpus> ReadCorpusFile(const std::string& path,
                                    const Lexicon& lexicon) {
  Result<std::string> text = ReadFileToString(path);
  if (!text.ok()) return text.status();
  return ParseCorpusTsv(*text, lexicon);
}

TEST(CorpusIoTest, ParsesRecipesThroughLexicon) {
  const Lexicon& lexicon = WorldLexicon();
  Result<RecipeCorpus> corpus = ParseCorpusTsv(
      "# a comment\n"
      "ITA\tTomato; Basil ;Olive Oil\n"
      "JPN\tsoy sauce;Rice\n",
      lexicon);
  ASSERT_TRUE(corpus.ok());
  EXPECT_EQ(corpus->num_recipes(), 2u);
  EXPECT_EQ(corpus->num_recipes_in(CuisineFromCode("ITA").value()), 1u);
  EXPECT_EQ(corpus->ingredients_of(0).size(), 3u);
  // Alias resolution: "soy sauce" -> Soybean Sauce.
  const auto sauce = lexicon.Find("Soybean Sauce");
  bool found = false;
  for (IngredientId id : corpus->ingredients_of(1)) found |= (id == *sauce);
  EXPECT_TRUE(found);
}

TEST(CorpusIoTest, UnknownIngredientFailsByDefault) {
  Result<RecipeCorpus> corpus =
      ParseCorpusTsv("ITA\tTomato;Unobtainium\n", WorldLexicon());
  ASSERT_FALSE(corpus.ok());
  EXPECT_EQ(corpus.status().code(), StatusCode::kNotFound);
}

TEST(CorpusIoTest, SkipUnknownDropsMentions) {
  Result<RecipeCorpus> corpus = ParseCorpusTsv(
      "ITA\tTomato;Unobtainium\nITA\tUnobtainium;Kryptonite\n",
      WorldLexicon(), /*skip_unknown=*/true);
  ASSERT_TRUE(corpus.ok());
  // Second recipe becomes empty and is dropped entirely.
  EXPECT_EQ(corpus->num_recipes(), 1u);
  EXPECT_EQ(corpus->ingredients_of(0).size(), 1u);
}

TEST(CorpusIoTest, UnknownCuisineFails) {
  EXPECT_FALSE(ParseCorpusTsv("XX\tTomato\n", WorldLexicon()).ok());
}

TEST(CorpusIoTest, MalformedLineFails) {
  EXPECT_FALSE(ParseCorpusTsv("ITA only one field\n", WorldLexicon()).ok());
  EXPECT_FALSE(
      ParseCorpusTsv("ITA\tTomato\textra\n", WorldLexicon()).ok());
}

TEST(CorpusIoTest, FreeFormMentionsResolveByScanning) {
  Result<RecipeCorpus> corpus = ParseCorpusTsv(
      "INSC\t2 cups ginger garlic paste;1 tsp turmeric powder\n",
      WorldLexicon(), /*skip_unknown=*/true);
  ASSERT_TRUE(corpus.ok());
  ASSERT_EQ(corpus->num_recipes(), 1u);
  const Lexicon& lexicon = WorldLexicon();
  std::vector<std::string> names;
  for (IngredientId id : corpus->ingredients_of(0)) {
    names.push_back(lexicon.name(id));
  }
  EXPECT_NE(std::find(names.begin(), names.end(), "Ginger Garlic Paste"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "Turmeric"), names.end());
}

TEST(CorpusIoTest, RoundTripPreservesContent) {
  const Lexicon& lexicon = WorldLexicon();
  Result<RecipeCorpus> original = ParseCorpusTsv(
      "ITA\tTomato;Basil\nKOR\tSesame;Garlic;Sugar\n", lexicon);
  ASSERT_TRUE(original.ok());
  const std::string serialized = FormatCorpusTsv(original.value(), lexicon);
  Result<RecipeCorpus> reparsed = ParseCorpusTsv(serialized, lexicon);
  ASSERT_TRUE(reparsed.ok());
  ASSERT_EQ(reparsed->num_recipes(), original->num_recipes());
  for (uint32_t i = 0; i < original->num_recipes(); ++i) {
    EXPECT_EQ(reparsed->cuisine_of(i), original->cuisine_of(i));
    EXPECT_EQ(std::vector<IngredientId>(reparsed->ingredients_of(i).begin(),
                                        reparsed->ingredients_of(i).end()),
              std::vector<IngredientId>(original->ingredients_of(i).begin(),
                                        original->ingredients_of(i).end()));
  }
}

TEST(CorpusIoTest, FileRoundTrip) {
  const Lexicon& lexicon = WorldLexicon();
  Result<RecipeCorpus> original =
      ParseCorpusTsv("FRA\tButter;Cream;Egg\n", lexicon);
  ASSERT_TRUE(original.ok());
  const std::string path = ::testing::TempDir() + "/culevo_corpus.tsv";
  ASSERT_TRUE(WriteCorpusTsv(path, original.value(), lexicon).ok());
  Result<RecipeCorpus> loaded = ReadCorpusFile(path, lexicon);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_recipes(), 1u);
  std::remove(path.c_str());
}

TEST(CorpusIoTest, ReadMissingFileFails) {
  Result<RecipeCorpus> corpus =
      ReadCorpusFile("/nonexistent/corpus.tsv", WorldLexicon());
  ASSERT_FALSE(corpus.ok());
  EXPECT_EQ(corpus.status().code(), StatusCode::kIOError);
}

// Failpoint-driven I/O error paths: a read that fails before the file is
// opened (io.read.open), one that fails mid-stream after a successful open
// (io.read.stream), and a row-level parse fault — all propagate the
// injected Status instead of crashing or returning a half-parsed corpus.
class CorpusIoFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/culevo_corpus_fault.tsv";
    const Lexicon& lexicon = WorldLexicon();
    Result<RecipeCorpus> corpus =
        ParseCorpusTsv("ITA\tTomato;Basil\nFRA\tButter\n", lexicon);
    ASSERT_TRUE(corpus.ok());
    ASSERT_TRUE(WriteCorpusTsv(path_, corpus.value(), lexicon).ok());
  }
  void TearDown() override {
    Failpoints::Get().DisarmAll();
    std::remove(path_.c_str());
  }

  std::string path_;
};

TEST_F(CorpusIoFaultTest, ReadFailpointPropagates) {
  Failpoints::Get().Arm("io.read.open");
  Result<RecipeCorpus> corpus = ReadCorpusFile(path_, WorldLexicon());
  ASSERT_FALSE(corpus.ok());
  EXPECT_EQ(corpus.status().code(), StatusCode::kIOError);
}

TEST_F(CorpusIoFaultTest, MidStreamReadFailurePropagates) {
  Failpoints::Get().Arm("io.read.stream");
  Result<RecipeCorpus> corpus = ReadCorpusFile(path_, WorldLexicon());
  ASSERT_FALSE(corpus.ok());
  EXPECT_EQ(corpus.status().code(), StatusCode::kIOError);
}

TEST_F(CorpusIoFaultTest, RowFaultAbortsParseNotJustTheRow) {
  // Fail on the second data row: the parse must not return a corpus
  // containing only the rows before the fault.
  Failpoints::ArmSpec spec;
  spec.skip = 1;
  Failpoints::Get().Arm("corpus.parse.row", spec);
  Result<RecipeCorpus> corpus = ReadCorpusFile(path_, WorldLexicon());
  ASSERT_FALSE(corpus.ok());
  EXPECT_EQ(corpus.status().code(), StatusCode::kIOError);
  // Disarmed, the same file parses completely.
  Failpoints::Get().DisarmAll();
  Result<RecipeCorpus> clean = ReadCorpusFile(path_, WorldLexicon());
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->num_recipes(), 2u);
}

}  // namespace
}  // namespace culevo
