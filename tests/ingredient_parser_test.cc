#include "text/ingredient_parser.h"

#include <gtest/gtest.h>

namespace culevo {
namespace {

TEST(IngredientParserTest, QuantityUnitAndMention) {
  const ParsedIngredientLine p = ParseIngredientLine("2 cups flour");
  ASSERT_TRUE(p.quantity.has_value());
  EXPECT_DOUBLE_EQ(*p.quantity, 2.0);
  EXPECT_EQ(p.unit, Unit::kCup);
  EXPECT_EQ(p.mention, "flour");
  EXPECT_TRUE(p.preparation.empty());
}

TEST(IngredientParserTest, FractionQuantities) {
  const ParsedIngredientLine half = ParseIngredientLine("1/2 tsp salt");
  ASSERT_TRUE(half.quantity.has_value());
  EXPECT_DOUBLE_EQ(*half.quantity, 0.5);
  EXPECT_EQ(half.unit, Unit::kTeaspoon);
  EXPECT_EQ(half.mention, "salt");

  const ParsedIngredientLine mixed =
      ParseIngredientLine("2 1/2 cups sugar");
  ASSERT_TRUE(mixed.quantity.has_value());
  EXPECT_DOUBLE_EQ(*mixed.quantity, 2.5);
  EXPECT_EQ(mixed.mention, "sugar");
}

TEST(IngredientParserTest, DecimalQuantity) {
  const ParsedIngredientLine p = ParseIngredientLine("0.25 l milk");
  ASSERT_TRUE(p.quantity.has_value());
  EXPECT_DOUBLE_EQ(*p.quantity, 0.25);
  EXPECT_EQ(p.unit, Unit::kLiter);
  EXPECT_EQ(p.mention, "milk");
}

TEST(IngredientParserTest, UnitOfForm) {
  const ParsedIngredientLine p =
      ParseIngredientLine("3 tablespoons of olive oil");
  EXPECT_EQ(p.unit, Unit::kTablespoon);
  EXPECT_EQ(p.mention, "olive oil");
}

TEST(IngredientParserTest, PreparationWordsStripped) {
  const ParsedIngredientLine p =
      ParseIngredientLine("1 cup finely chopped red onion");
  EXPECT_EQ(p.unit, Unit::kCup);
  EXPECT_EQ(p.preparation, "finely chopped");
  EXPECT_EQ(p.mention, "red onion");
}

TEST(IngredientParserTest, NoQuantityNoUnit) {
  const ParsedIngredientLine p = ParseIngredientLine("Salt to taste");
  EXPECT_FALSE(p.quantity.has_value());
  EXPECT_EQ(p.unit, Unit::kNone);
  EXPECT_EQ(p.mention, "salt to taste");
}

TEST(IngredientParserTest, AbbreviatedUnits) {
  EXPECT_EQ(ParseIngredientLine("4 oz cheddar").unit, Unit::kOunce);
  EXPECT_EQ(ParseIngredientLine("2 lbs beef").unit, Unit::kPound);
  EXPECT_EQ(ParseIngredientLine("500 g rice").unit, Unit::kGram);
  EXPECT_EQ(ParseIngredientLine("250 ml cream").unit, Unit::kMilliliter);
  EXPECT_EQ(ParseIngredientLine("2 tbsp butter").unit, Unit::kTablespoon);
}

TEST(IngredientParserTest, CountableUnits) {
  const ParsedIngredientLine p = ParseIngredientLine("3 cloves garlic");
  ASSERT_TRUE(p.quantity.has_value());
  EXPECT_DOUBLE_EQ(*p.quantity, 3.0);
  EXPECT_EQ(p.unit, Unit::kClove);
  EXPECT_EQ(p.mention, "garlic");
}

TEST(IngredientParserTest, QuantityWithoutUnit) {
  const ParsedIngredientLine p = ParseIngredientLine("2 eggs");
  ASSERT_TRUE(p.quantity.has_value());
  EXPECT_DOUBLE_EQ(*p.quantity, 2.0);
  EXPECT_EQ(p.unit, Unit::kNone);
  EXPECT_EQ(p.mention, "eggs");
}

TEST(IngredientParserTest, PunctuationAndCaseHandled) {
  const ParsedIngredientLine p =
      ParseIngredientLine("2 Cups FLOUR, sifted");
  EXPECT_EQ(p.unit, Unit::kCup);
  EXPECT_EQ(p.mention, "flour sifted");
}

TEST(IngredientParserTest, EmptyLine) {
  const ParsedIngredientLine p = ParseIngredientLine("");
  EXPECT_FALSE(p.quantity.has_value());
  EXPECT_EQ(p.unit, Unit::kNone);
  EXPECT_TRUE(p.mention.empty());
}

TEST(IngredientParserTest, MalformedFractionFallsThrough) {
  const ParsedIngredientLine p = ParseIngredientLine("1/0 cup oats");
  // Division by zero is rejected; token joins the mention instead.
  EXPECT_FALSE(p.quantity.has_value());
}

}  // namespace
}  // namespace culevo
