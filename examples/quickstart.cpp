// Quickstart: synthesize a small world corpus, evaluate the four culinary
// evolution models on one cuisine, and print which model explains the
// cuisine best — the paper's core experiment in ~60 lines.
//
// Usage: quickstart [--cuisine ITA] [--scale 0.05] [--replicas 5]

#include <cstdio>
#include <iostream>

#include "core/copy_mutate.h"
#include "core/evaluator.h"
#include "core/null_model.h"
#include "corpus/cuisine.h"
#include "lexicon/world_lexicon.h"
#include "synth/generator.h"
#include "util/flags.h"
#include "util/table_printer.h"

int main(int argc, char** argv) {
  culevo::FlagParser flags;
  if (culevo::Status s =
          flags.Parse(argc, argv, {"scale", "cuisine", "replicas"});
      !s.ok()) {
    std::cerr << s << "\n";
    return 2;
  }

  const culevo::Lexicon& lexicon = culevo::WorldLexicon();

  // 1. Build a synthetic "empirical" world corpus (see DESIGN.md §2).
  culevo::SynthConfig synth;
  synth.scale = flags.GetDouble("scale", 0.05);
  culevo::Result<culevo::RecipeCorpus> corpus =
      culevo::SynthesizeWorldCorpus(lexicon, synth);
  if (!corpus.ok()) {
    std::cerr << corpus.status() << "\n";
    return 1;
  }

  // 2. Pick a cuisine.
  culevo::Result<culevo::CuisineId> cuisine =
      culevo::CuisineFromCode(flags.GetString("cuisine", "ITA"));
  if (!cuisine.ok()) {
    std::cerr << cuisine.status() << "\n";
    return 1;
  }
  const culevo::CuisineInfo& info = culevo::CuisineAt(cuisine.value());
  std::cout << "Cuisine: " << info.name << " (" << info.code << "), "
            << corpus->num_recipes_in(cuisine.value()) << " recipes, "
            << corpus->UniqueIngredients(cuisine.value()).size()
            << " unique ingredients\n\n";

  // 3. Evaluate CM-R, CM-C, CM-M and the null model against the empirical
  //    rank-frequency distribution of frequent ingredient combinations.
  const auto cm_r = culevo::MakeCmR(&lexicon);
  const auto cm_c = culevo::MakeCmC(&lexicon);
  const auto cm_m = culevo::MakeCmM(&lexicon);
  const culevo::NullModel null_model;
  const std::vector<const culevo::EvolutionModel*> models = {
      cm_r.get(), cm_c.get(), cm_m.get(), &null_model};

  culevo::SimulationConfig config;
  config.replicas = static_cast<int>(flags.GetInt("replicas", 5));
  culevo::Result<culevo::CuisineEvaluation> evaluation =
      culevo::EvaluateCuisine(*corpus, cuisine.value(), lexicon, models,
                              config);
  if (!evaluation.ok()) {
    std::cerr << evaluation.status() << "\n";
    return 1;
  }

  culevo::TablePrinter table(
      {"Model", "MAE (ingredient combos)", "MAE (category combos)"});
  for (const culevo::ModelScore& score : evaluation->scores) {
    table.AddRow({score.model, culevo::TablePrinter::Num(score.mae_ingredient, 4),
                  culevo::TablePrinter::Num(score.mae_category, 4)});
  }
  table.Print(std::cout);

  const size_t best = evaluation->BestByIngredientMae();
  std::cout << "\nBest-fitting model for " << info.code << ": "
            << evaluation->scores[best].model << "\n";
  return 0;
}
