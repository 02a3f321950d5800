// Fuzz-style robustness tests: every text parser must return a Status (or
// a best-effort value) on arbitrary byte soup — never crash, hang, or
// corrupt memory.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "corpus/corpus_io.h"
#include "corpus/ingestion.h"
#include "lexicon/lexicon_io.h"
#include "lexicon/world_lexicon.h"
#include "text/ingredient_parser.h"
#include "text/normalize.h"
#include "util/rng.h"

namespace culevo {
namespace {

std::string RandomBytes(Rng* rng, size_t max_len) {
  const size_t len = rng->NextBounded(max_len + 1);
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(static_cast<char>(rng->NextBounded(256)));
  }
  return out;
}

/// Byte soup biased toward the parsers' structural characters so deeper
/// code paths get exercised.
std::string StructuredNoise(Rng* rng, size_t max_len) {
  static const char kAlphabet[] = "abAB12 \t\n\r\";,;/.#\\\xc3\xa9\xf0";
  const size_t len = rng->NextBounded(max_len + 1);
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(kAlphabet[rng->NextBounded(sizeof(kAlphabet) - 1)]);
  }
  return out;
}

class ParserRobustnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserRobustnessTest, LexiconParserNeverCrashes) {
  Rng rng(GetParam() ^ 0x1111);
  for (int round = 0; round < 200; ++round) {
    const std::string input = StructuredNoise(&rng, 300);
    (void)ParseLexiconTsv(input);  // Status either way; must not crash.
  }
}

TEST_P(ParserRobustnessTest, CorpusParserNeverCrashes) {
  Rng rng(GetParam() ^ 0x2222);
  for (int round = 0; round < 100; ++round) {
    const std::string input = StructuredNoise(&rng, 300);
    (void)ParseCorpusTsv(input, WorldLexicon(), round % 2 == 0);
  }
}

TEST_P(ParserRobustnessTest, IngredientLineParserTotal) {
  Rng rng(GetParam() ^ 0x3333);
  for (int round = 0; round < 300; ++round) {
    const std::string input = round % 2 == 0 ? RandomBytes(&rng, 120)
                                             : StructuredNoise(&rng, 120);
    const ParsedIngredientLine parsed = ParseIngredientLine(input);
    // The mention must be fully normalized output.
    for (char c : parsed.mention) {
      EXPECT_TRUE(IsNormalizedChar(c)) << "raw byte in mention";
    }
    if (parsed.quantity.has_value()) {
      EXPECT_TRUE(std::isfinite(*parsed.quantity));
      EXPECT_GE(*parsed.quantity, 0.0);
    }
  }
}

TEST_P(ParserRobustnessTest, RawRecipeParserNeverCrashes) {
  Rng rng(GetParam() ^ 0x4444);
  for (int round = 0; round < 100; ++round) {
    const std::vector<RawRecipe> raw =
        ParseRawRecipeText(StructuredNoise(&rng, 400));
    // Whatever was parsed must ingest without crashing.
    (void)IngestRawRecipes(raw, WorldLexicon());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserRobustnessTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace culevo
