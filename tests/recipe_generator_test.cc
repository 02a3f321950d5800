#include "core/recipe_generator.h"

#include <gtest/gtest.h>

#include <set>

#include "lexicon/world_lexicon.h"
#include "synth/generator.h"
#include "util/check.h"

namespace culevo {
namespace {

const RecipeCorpus& GenCorpus() {
  static const RecipeCorpus& corpus = []() -> const RecipeCorpus& {
    const Lexicon& lexicon = WorldLexicon();
    const CuisineId ita = CuisineFromCode("ITA").value();
    const CuisineProfile profile = BuildCuisineProfile(lexicon, ita, 7);
    SynthConfig config;
    RecipeCorpus::Builder builder;
    CULEVO_CHECK_OK(
        SynthesizeCuisine(lexicon, profile, config, 700, &builder));
    return *new RecipeCorpus(builder.Build());
  }();
  return corpus;
}

CuisineId Ita() { return CuisineFromCode("ITA").value(); }

TEST(RecipeGeneratorTest, GeneratesValidRecipeOfTargetSize) {
  Result<RecipeGenerator> generator =
      RecipeGenerator::Create(&GenCorpus(), Ita(), &WorldLexicon(), 1);
  ASSERT_TRUE(generator.ok());

  GenerationConstraints constraints;
  constraints.target_size = 8;
  Result<NovelRecipe> recipe = generator->Generate(constraints);
  ASSERT_TRUE(recipe.ok());
  EXPECT_EQ(recipe->ingredients.size(), 8u);
  EXPECT_TRUE(std::is_sorted(recipe->ingredients.begin(),
                             recipe->ingredients.end()));
  std::set<IngredientId> unique(recipe->ingredients.begin(),
                                recipe->ingredients.end());
  EXPECT_EQ(unique.size(), recipe->ingredients.size());
  EXPECT_GE(recipe->novelty, 0.0);
  EXPECT_LE(recipe->novelty, 1.0);
}

TEST(RecipeGeneratorTest, MustIncludeIsHonored) {
  Result<RecipeGenerator> generator =
      RecipeGenerator::Create(&GenCorpus(), Ita(), &WorldLexicon(), 2);
  ASSERT_TRUE(generator.ok());
  const IngredientId tofu = *WorldLexicon().Find("Tofu");

  GenerationConstraints constraints;
  constraints.must_include = {tofu};
  for (int round = 0; round < 10; ++round) {
    Result<NovelRecipe> recipe = generator->Generate(constraints);
    ASSERT_TRUE(recipe.ok());
    EXPECT_TRUE(std::binary_search(recipe->ingredients.begin(),
                                   recipe->ingredients.end(), tofu));
  }
}

TEST(RecipeGeneratorTest, ExclusionsAreHonored) {
  Result<RecipeGenerator> generator =
      RecipeGenerator::Create(&GenCorpus(), Ita(), &WorldLexicon(), 3);
  ASSERT_TRUE(generator.ok());
  const Lexicon& lexicon = WorldLexicon();

  GenerationConstraints constraints;
  // A vegetarian-style dietary intervention: no meat, fish or seafood.
  constraints.excluded_categories = {Category::kMeat, Category::kFish,
                                     Category::kSeafood};
  for (int round = 0; round < 10; ++round) {
    Result<NovelRecipe> recipe = generator->Generate(constraints);
    ASSERT_TRUE(recipe.ok());
    for (IngredientId id : recipe->ingredients) {
      EXPECT_NE(lexicon.category(id), Category::kMeat);
      EXPECT_NE(lexicon.category(id), Category::kFish);
      EXPECT_NE(lexicon.category(id), Category::kSeafood);
    }
  }
}

TEST(RecipeGeneratorTest, ContradictoryConstraintsRejected) {
  Result<RecipeGenerator> generator =
      RecipeGenerator::Create(&GenCorpus(), Ita(), &WorldLexicon(), 4);
  ASSERT_TRUE(generator.ok());
  const IngredientId chicken = *WorldLexicon().Find("Chicken");
  ASSERT_EQ(WorldLexicon().category(chicken), Category::kMeat);

  GenerationConstraints constraints;
  constraints.must_include = {chicken};
  constraints.excluded_categories = {Category::kMeat, Category::kFish,
                                     Category::kSeafood};
  EXPECT_FALSE(generator->Generate(constraints).ok());
}

TEST(RecipeGeneratorTest, OversizedMustIncludeRejected) {
  Result<RecipeGenerator> generator =
      RecipeGenerator::Create(&GenCorpus(), Ita(), &WorldLexicon(), 5);
  ASSERT_TRUE(generator.ok());
  GenerationConstraints constraints;
  constraints.target_size = 2;
  constraints.must_include = {0, 1, 2};
  EXPECT_FALSE(generator->Generate(constraints).ok());
}

TEST(RecipeGeneratorTest, BatchSortedByTypicality) {
  Result<RecipeGenerator> generator =
      RecipeGenerator::Create(&GenCorpus(), Ita(), &WorldLexicon(), 6);
  ASSERT_TRUE(generator.ok());
  Result<std::vector<NovelRecipe>> batch =
      generator->GenerateBatch(GenerationConstraints{}, 8);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), 8u);
  for (size_t i = 1; i < batch->size(); ++i) {
    EXPECT_GE((*batch)[i - 1].typicality, (*batch)[i].typicality);
  }
  EXPECT_FALSE(generator->GenerateBatch(GenerationConstraints{}, 0).ok());
}

TEST(RecipeGeneratorTest, NoveltyIsPositiveForMutatedRecipes) {
  // With mutations and constraint repair the proposals should rarely be
  // verbatim corpus recipes.
  Result<RecipeGenerator> generator =
      RecipeGenerator::Create(&GenCorpus(), Ita(), &WorldLexicon(), 7);
  ASSERT_TRUE(generator.ok());
  double total_novelty = 0.0;
  for (int round = 0; round < 10; ++round) {
    Result<NovelRecipe> recipe = generator->Generate(GenerationConstraints{});
    ASSERT_TRUE(recipe.ok());
    total_novelty += recipe->novelty;
  }
  EXPECT_GT(total_novelty / 10.0, 0.05);
}

TEST(RecipeGeneratorTest, CreateValidation) {
  EXPECT_FALSE(
      RecipeGenerator::Create(nullptr, Ita(), &WorldLexicon(), 1).ok());
  EXPECT_FALSE(
      RecipeGenerator::Create(&GenCorpus(), Ita(), nullptr, 1).ok());
  // Empty cuisine.
  const CuisineId kor = CuisineFromCode("KOR").value();
  EXPECT_FALSE(
      RecipeGenerator::Create(&GenCorpus(), kor, &WorldLexicon(), 1).ok());
}

// A corpus from a file may use any id; the generator's popularity table
// is lexicon-sized and Lexicon CHECK-fails outside its entries, so such a
// corpus is refused up front.
TEST(RecipeGeneratorTest, RejectsCorpusIdsOutsideLexicon) {
  const IngredientId outside =
      static_cast<IngredientId>(WorldLexicon().size() + 40);
  RecipeCorpus::Builder builder;
  ASSERT_TRUE(builder.Add(Ita(), {1, 2, 3}).ok());
  ASSERT_TRUE(builder.Add(Ita(), {2, 5, outside}).ok());
  const RecipeCorpus corpus = builder.Build();
  const Result<RecipeGenerator> generator =
      RecipeGenerator::Create(&corpus, Ita(), &WorldLexicon(), 1);
  EXPECT_EQ(generator.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace culevo
