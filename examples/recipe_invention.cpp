// Recipe invention: the application the paper's conclusion motivates —
// using the copy-mutate mechanism to propose novel recipes under dietary
// constraints ("recipe generation algorithms aimed at dietary
// interventions for better nutrition and health").
//
// Proposes vegetarian recipes for a chosen cuisine that must include a
// requested ingredient, and scores each proposal's cultural typicality
// (mean pairwise PMI within the cuisine) and novelty (distance from every
// existing recipe).
//
// Usage: recipe_invention [--cuisine INSC] [--include Chickpea]
//                         [--count 5] [--scale 0.25] [--size 9]

#include <iostream>

#include "core/recipe_generator.h"
#include "lexicon/world_lexicon.h"
#include "synth/generator.h"
#include "util/flags.h"
#include "util/strings.h"
#include "util/table_printer.h"

using namespace culevo;

int main(int argc, char** argv) {
  FlagParser flags;
  if (Status s = flags.Parse(
          argc, argv, {"scale", "cuisine", "include", "seed", "size", "count"});
      !s.ok()) {
    std::cerr << s << "\n";
    return 2;
  }
  const Lexicon& lexicon = WorldLexicon();

  SynthConfig synth;
  synth.scale = flags.GetDouble("scale", 0.25);
  Result<RecipeCorpus> corpus = SynthesizeWorldCorpus(lexicon, synth);
  if (!corpus.ok()) {
    std::cerr << corpus.status() << "\n";
    return 1;
  }

  Result<CuisineId> cuisine =
      CuisineFromCode(flags.GetString("cuisine", "INSC"));
  if (!cuisine.ok()) {
    std::cerr << cuisine.status() << "\n";
    return 1;
  }

  const std::string include_name = flags.GetString("include", "Chickpea");
  std::optional<IngredientId> include = lexicon.Find(include_name);
  if (!include.has_value()) {
    std::cerr << "unknown ingredient: " << include_name << "\n";
    return 1;
  }

  Result<RecipeGenerator> generator = RecipeGenerator::Create(
      &corpus.value(), cuisine.value(), &lexicon,
      static_cast<uint64_t>(flags.GetInt("seed", 2026)));
  if (!generator.ok()) {
    std::cerr << generator.status() << "\n";
    return 1;
  }

  GenerationConstraints constraints;
  constraints.target_size = static_cast<int>(flags.GetInt("size", 9));
  constraints.must_include = {*include};
  // Dietary intervention: vegetarian.
  constraints.excluded_categories = {Category::kMeat, Category::kFish,
                                     Category::kSeafood};

  const int count = static_cast<int>(flags.GetInt("count", 5));
  Result<std::vector<NovelRecipe>> batch =
      generator->GenerateBatch(constraints, count);
  if (!batch.ok()) {
    std::cerr << batch.status() << "\n";
    return 1;
  }

  std::cout << "Novel vegetarian " << CuisineAt(cuisine.value()).name
            << " recipes featuring " << lexicon.name(*include)
            << " (copy-mutate proposals, most typical first):\n\n";
  int index = 1;
  for (const NovelRecipe& recipe : batch.value()) {
    std::vector<std::string> names;
    for (IngredientId id : recipe.ingredients) {
      names.push_back(lexicon.name(id));
    }
    std::cout << index++ << ". " << Join(names, ", ") << "\n"
              << "   typicality "
              << TablePrinter::Num(recipe.typicality, 2) << " | novelty "
              << TablePrinter::Num(recipe.novelty, 2) << "\n";
  }
  return 0;
}
