#include "text/normalize.h"

#include <gtest/gtest.h>

#include "text/tokenizer.h"

namespace culevo {
namespace {

TEST(NormalizeTest, Lowercases) {
  EXPECT_EQ(NormalizeMention("TOMATO"), "tomato");
}

TEST(NormalizeTest, PunctuationBecomesBoundary) {
  EXPECT_EQ(NormalizeMention("extra-virgin olive_oil"),
            "extra virgin olive oil");
  EXPECT_EQ(NormalizeMention("salt, pepper"), "salt pepper");
}

TEST(NormalizeTest, CollapsesWhitespaceAndTrims) {
  EXPECT_EQ(NormalizeMention("  a   b  "), "a b");
}

TEST(NormalizeTest, FoldsAccents) {
  EXPECT_EQ(NormalizeMention("Crème Fraîche"), "creme fraiche");
  EXPECT_EQ(NormalizeMention("jalapeño"), "jalapeno");
  EXPECT_EQ(NormalizeMention("Gruyère"), "gruyere");
}

TEST(NormalizeTest, KeepsDigits) {
  EXPECT_EQ(NormalizeMention("7-up"), "7 up");
}

TEST(NormalizeTest, UnknownBytesBecomeBoundaries) {
  EXPECT_EQ(NormalizeMention("a\xF0\x9F\x8D\x95z"), "a z");
}

TEST(NormalizeTest, EmptyInput) {
  EXPECT_EQ(NormalizeMention(""), "");
  EXPECT_EQ(NormalizeMention("!!!"), "");
}

TEST(IsNormalizedCharTest, Alphabet) {
  EXPECT_TRUE(IsNormalizedChar('a'));
  EXPECT_TRUE(IsNormalizedChar('9'));
  EXPECT_TRUE(IsNormalizedChar(' '));
  EXPECT_FALSE(IsNormalizedChar('A'));
  EXPECT_FALSE(IsNormalizedChar('-'));
}

TEST(TokenizerTest, SplitsNormalizedText) {
  EXPECT_EQ(TokenizeNormalized("a b c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(TokenizeNormalized("").empty());
}

}  // namespace
}  // namespace culevo
