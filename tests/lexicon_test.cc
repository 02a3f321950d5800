#include "lexicon/lexicon.h"

#include <gtest/gtest.h>

#include "lexicon/category.h"

namespace culevo {
namespace {

TEST(CategoryTest, NamesRoundTrip) {
  for (int i = 0; i < kNumCategories; ++i) {
    const Category category = CategoryFromIndex(i);
    Result<Category> parsed = CategoryFromName(CategoryName(category));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), category);
  }
}

TEST(CategoryTest, ParseIsCaseAndSpaceInsensitive) {
  EXPECT_EQ(CategoryFromName("nuts and seeds").value(),
            Category::kNutsAndSeeds);
  EXPECT_EQ(CategoryFromName("NUTSANDSEEDS").value(),
            Category::kNutsAndSeeds);
  EXPECT_EQ(CategoryFromName("beverage alcoholic").value(),
            Category::kBeverageAlcoholic);
  EXPECT_FALSE(CategoryFromName("unknown kind").ok());
}

TEST(LexiconTest, AddAndAccessors) {
  Lexicon lexicon;
  Result<IngredientId> tomato = lexicon.Add("Tomato", Category::kVegetable);
  ASSERT_TRUE(tomato.ok());
  Result<IngredientId> paste =
      lexicon.Add("Ginger Garlic Paste", Category::kAdditive, true);
  ASSERT_TRUE(paste.ok());

  EXPECT_EQ(lexicon.size(), 2u);
  EXPECT_EQ(lexicon.name(tomato.value()), "Tomato");
  EXPECT_EQ(lexicon.category(tomato.value()), Category::kVegetable);
  EXPECT_FALSE(lexicon.is_compound(tomato.value()));
  EXPECT_TRUE(lexicon.is_compound(paste.value()));
  EXPECT_EQ(lexicon.num_compounds(), 1u);
}

TEST(LexiconTest, DuplicateNameRejected) {
  Lexicon lexicon;
  ASSERT_TRUE(lexicon.Add("Tomato", Category::kVegetable).ok());
  // Same entity after normalization + stemming.
  Result<IngredientId> duplicate =
      lexicon.Add("tomatoes", Category::kVegetable);
  EXPECT_FALSE(duplicate.ok());
  EXPECT_EQ(duplicate.status().code(), StatusCode::kAlreadyExists);
}

TEST(LexiconTest, EmptyNameRejected) {
  Lexicon lexicon;
  EXPECT_FALSE(lexicon.Add("  !! ", Category::kSpice).ok());
}

TEST(LexiconTest, FindUsesAliasingProtocol) {
  Lexicon lexicon;
  const IngredientId id =
      lexicon.Add("Soybean Sauce", Category::kAdditive, true).value();
  ASSERT_TRUE(lexicon.AddAlias(id, "soy sauce").ok());

  EXPECT_EQ(lexicon.Find("Soybean Sauce"), id);
  EXPECT_EQ(lexicon.Find("soy sauce"), id);
  EXPECT_EQ(lexicon.Find("SOY SAUCES"), id);  // Stemming.
  EXPECT_EQ(lexicon.Find("soy-sauce"), id);   // Punctuation.
  EXPECT_EQ(lexicon.Find("fish sauce"), std::nullopt);
}

TEST(LexiconTest, AliasCollisionRejectedButIdempotentOk) {
  Lexicon lexicon;
  const IngredientId a = lexicon.Add("Scallion", Category::kVegetable).value();
  const IngredientId b = lexicon.Add("Leek", Category::kVegetable).value();
  ASSERT_TRUE(lexicon.AddAlias(a, "green onion").ok());
  EXPECT_TRUE(lexicon.AddAlias(a, "green onion").ok());   // Idempotent.
  EXPECT_FALSE(lexicon.AddAlias(b, "green onion").ok());  // Conflict.
  EXPECT_FALSE(lexicon.AddAlias(static_cast<IngredientId>(99), "x").ok());
}

TEST(LexiconTest, ResolveMentionLongestMatchWins) {
  Lexicon lexicon;
  const IngredientId ginger = lexicon.Add("Ginger", Category::kSpice).value();
  const IngredientId garlic =
      lexicon.Add("Garlic", Category::kVegetable).value();
  const IngredientId paste =
      lexicon.Add("Ginger Garlic Paste", Category::kAdditive, true).value();

  EXPECT_EQ(lexicon.ResolveMention("fresh ginger garlic paste"),
            (std::vector<IngredientId>{paste}));
  EXPECT_EQ(lexicon.ResolveMention("ginger and garlic"),
            (std::vector<IngredientId>{ginger, garlic}));
}

TEST(LexiconTest, ResolveMentionDeduplicates) {
  Lexicon lexicon;
  const IngredientId salt = lexicon.Add("Salt", Category::kAdditive).value();
  EXPECT_EQ(lexicon.ResolveMention("salt and more salt"),
            (std::vector<IngredientId>{salt}));
}

TEST(LexiconTest, AllIdsIsDense) {
  Lexicon lexicon;
  lexicon.Add("A1", Category::kSpice).value();
  lexicon.Add("B2", Category::kSpice).value();
  EXPECT_EQ(lexicon.AllIds(), (std::vector<IngredientId>{0, 1}));
}

}  // namespace
}  // namespace culevo
