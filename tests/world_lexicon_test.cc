#include "lexicon/world_lexicon.h"

#include <vector>

#include <gtest/gtest.h>

#include "corpus/cuisine.h"

namespace culevo {
namespace {

TEST(WorldLexiconTest, HasPaperScale) {
  const Lexicon& lexicon = WorldLexicon();
  EXPECT_EQ(lexicon.size(), 721u);       // Section II: 721 entities.
  EXPECT_EQ(lexicon.num_compounds(), 96u);  // Section II: 96 compounds.
}

TEST(WorldLexiconTest, AllCategoriesPopulated) {
  const Lexicon& lexicon = WorldLexicon();
  std::vector<size_t> per_category(kNumCategories, 0);
  for (IngredientId id : lexicon.AllIds()) {
    ++per_category[static_cast<size_t>(lexicon.category(id))];
  }
  for (int i = 0; i < kNumCategories; ++i) {
    EXPECT_GT(per_category[static_cast<size_t>(i)], 0u)
        << "empty category: " << CategoryName(CategoryFromIndex(i));
  }
}

TEST(WorldLexiconTest, SingletonReturnsSameInstance) {
  EXPECT_EQ(&WorldLexicon(), &WorldLexicon());
}

TEST(WorldLexiconTest, EveryTableOneIngredientResolves) {
  const Lexicon& lexicon = WorldLexicon();
  for (const CuisineInfo& info : WorldCuisines()) {
    for (std::string_view name : info.top_ingredients) {
      EXPECT_TRUE(lexicon.Find(name).has_value())
          << info.code << " ingredient missing: " << name;
    }
  }
}

TEST(WorldLexiconTest, KeyEntitiesAndCategories) {
  const Lexicon& lexicon = WorldLexicon();
  const auto expect_category = [&](const char* name, Category category) {
    const auto id = lexicon.Find(name);
    ASSERT_TRUE(id.has_value()) << name;
    EXPECT_EQ(lexicon.category(*id), category) << name;
  };
  expect_category("Tomato", Category::kVegetable);
  expect_category("Butter", Category::kDairy);
  expect_category("Chickpea", Category::kLegume);
  expect_category("Corn", Category::kMaize);
  expect_category("Flour", Category::kCereal);
  expect_category("Chicken", Category::kMeat);
  expect_category("Sesame", Category::kNutsAndSeeds);
  expect_category("Nori", Category::kPlant);
  expect_category("Salmon", Category::kFish);
  expect_category("Shrimp", Category::kSeafood);
  expect_category("Cumin", Category::kSpice);
  expect_category("Tortilla", Category::kBakery);
  expect_category("Sake", Category::kBeverageAlcoholic);
  expect_category("Coffee", Category::kBeverage);
  expect_category("Olive Oil", Category::kEssentialOil);
  expect_category("Hibiscus", Category::kFlower);
  expect_category("Olive", Category::kFruit);
  expect_category("Mushroom", Category::kFungus);
  expect_category("Basil", Category::kHerb);
  expect_category("Salt", Category::kAdditive);
  expect_category("Pesto", Category::kDish);
}

TEST(WorldLexiconTest, AliasSpotChecks) {
  const Lexicon& lexicon = WorldLexicon();
  EXPECT_EQ(lexicon.Find("soy sauce"), lexicon.Find("Soybean Sauce"));
  EXPECT_EQ(lexicon.Find("prawns"), lexicon.Find("Shrimp"));
  EXPECT_EQ(lexicon.Find("coriander leaves"), lexicon.Find("Cilantro"));
  EXPECT_EQ(lexicon.Find("garbanzo beans"), lexicon.Find("Chickpea"));
  EXPECT_EQ(lexicon.Find("aubergine"), lexicon.Find("Eggplant"));
  EXPECT_EQ(lexicon.Find("black pepper"), lexicon.Find("Pepper"));
}

TEST(WorldLexiconTest, CompoundEntitiesWinLongestMatch) {
  const Lexicon& lexicon = WorldLexicon();
  const std::vector<IngredientId> resolved =
      lexicon.ResolveMention("ginger garlic paste");
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_EQ(lexicon.name(resolved[0]), "Ginger Garlic Paste");
  EXPECT_TRUE(lexicon.is_compound(resolved[0]));
}

TEST(WorldLexiconTest, TsvIsExposedAndParsable) {
  EXPECT_FALSE(WorldLexiconTsv().empty());
  EXPECT_NE(WorldLexiconTsv().find("Soybean Sauce"), std::string_view::npos);
}

}  // namespace
}  // namespace culevo
