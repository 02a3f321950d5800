// Evolution lab: the statistical-controls workbench. For one cuisine it
// (1) compares CM-R / CM-C / CM-M / NM with bootstrap confidence
// intervals on the MAE, (2) checks winner stability across a split-half
// of the corpus, and (3) demonstrates the horizontal-transmission
// extension on a neighbouring-cuisine sub-world.
//
// Usage: evolution_lab [--cuisine CHN] [--scale 0.25] [--replicas 10]

#include <iostream>

#include "analysis/distance.h"
#include "core/copy_mutate.h"
#include "core/horizontal.h"
#include "core/model_selection.h"
#include "core/null_model.h"
#include "core/simulation.h"
#include "lexicon/world_lexicon.h"
#include "synth/generator.h"
#include "util/flags.h"
#include "util/table_printer.h"

using namespace culevo;

int main(int argc, char** argv) {
  FlagParser flags;
  if (Status s = flags.Parse(argc, argv, {"scale", "cuisine", "replicas"});
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
      CuisineFromCode(flags.GetString("cuisine", "CHN"));
  if (!cuisine.ok()) {
    std::cerr << cuisine.status() << "\n";
    return 1;
  }

  const auto cm_r = MakeCmR(&lexicon);
  const auto cm_c = MakeCmC(&lexicon);
  const auto cm_m = MakeCmM(&lexicon);
  const NullModel nm;
  const std::vector<const EvolutionModel*> models = {cm_r.get(), cm_c.get(),
                                                     cm_m.get(), &nm};
  SimulationConfig config;
  config.replicas = static_cast<int>(flags.GetInt("replicas", 10));

  // --- 1. Bootstrap intervals ------------------------------------------
  std::cout << "== Bootstrap model comparison ("
            << CuisineAt(cuisine.value()).code << ", " << config.replicas
            << " replicas, 95% CI) ==\n\n";
  Result<std::vector<ModelIntervalScore>> intervals =
      BootstrapModelComparison(*corpus, cuisine.value(), lexicon, models,
                               config);
  if (!intervals.ok()) {
    std::cerr << intervals.status() << "\n";
    return 1;
  }
  TablePrinter ci({"Model", "MAE mean", "CI low", "CI high"});
  for (const ModelIntervalScore& score : intervals.value()) {
    ci.AddRow({score.model, TablePrinter::Num(score.mae_mean, 4),
               TablePrinter::Num(score.mae_low, 4),
               TablePrinter::Num(score.mae_high, 4)});
  }
  ci.Print(std::cout);

  // --- 2. Split-half stability ------------------------------------------
  Result<SplitHalfResult> stability = SplitHalfStability(
      *corpus, cuisine.value(), lexicon, models, config);
  if (!stability.ok()) {
    std::cerr << stability.status() << "\n";
    return 1;
  }
  std::cout << "\nSplit-half winners: " << stability->winner_first
            << " / " << stability->winner_second << " -> "
            << (stability->stable ? "stable" : "unstable") << "\n";

  // --- 3. Horizontal transmission ---------------------------------------
  std::cout << "\n== Horizontal transmission (CHN/JPN/KOR sub-world) ==\n\n";
  std::vector<CuisineContext> contexts;
  std::vector<RankFrequency> empirical;
  for (const char* code : {"CHN", "JPN", "KOR"}) {
    Result<CuisineContext> context =
        ContextFromCorpus(*corpus, CuisineFromCode(code).value());
    if (!context.ok()) {
      std::cerr << context.status() << "\n";
      return 1;
    }
    empirical.push_back(IngredientCombinationCurve(
        *corpus, CuisineFromCode(code).value()));
    contexts.push_back(std::move(context).value());
  }
  TablePrinter horizontal({"migration", "mean MAE vs empirical",
                           "pairwise MAE among evolved"});
  for (double migration : {0.0, 0.05, 0.2}) {
    HorizontalConfig hconfig;
    hconfig.migration_prob = migration;
    Result<std::vector<TransactionSet>> world =
        EvolveHorizontalWorld(contexts, lexicon, hconfig);
    if (!world.ok()) {
      std::cerr << world.status() << "\n";
      return 1;
    }
    std::vector<RankFrequency> curves;
    double mae = 0.0;
    for (size_t k = 0; k < contexts.size(); ++k) {
      curves.push_back(CombinationCurve((*world)[k]));
      mae += MeanAbsoluteError(empirical[k], curves.back());
    }
    horizontal.AddRow(
        {TablePrinter::Num(migration, 2),
         TablePrinter::Num(mae / static_cast<double>(contexts.size()), 4),
         TablePrinter::Num(MeanOffDiagonal(PairwiseMae(curves)), 4)});
  }
  horizontal.Print(std::cout);
  return 0;
}
