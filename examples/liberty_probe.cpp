// Temporary calibration probe: sweep the generator liberty parameter and
// report which fitted model wins. Not installed; used to calibrate
// cuisine.cc's liberty values.
#include <cstdio>
#include <iostream>

#include "core/copy_mutate.h"
#include "core/evaluator.h"
#include "core/null_model.h"
#include "lexicon/world_lexicon.h"
#include "synth/generator.h"
#include "util/check.h"
#include "util/flags.h"

using namespace culevo;

int main(int argc, char** argv) {
  FlagParser flags;
  if (Status s = flags.Parse(argc, argv, {"count", "replicas"}); !s.ok()) {
    std::cerr << s << "\n";
    return 2;
  }
  const Lexicon& lexicon = WorldLexicon();
  const int count = static_cast<int>(flags.GetInt("count", 3000));
  const int replicas = static_cast<int>(flags.GetInt("replicas", 10));

  const auto cm_r = MakeCmR(&lexicon);
  const auto cm_c = MakeCmC(&lexicon);
  const auto cm_m = MakeCmM(&lexicon);
  const NullModel nm;
  const std::vector<const EvolutionModel*> models = {cm_r.get(), cm_c.get(),
                                                     cm_m.get(), &nm};

  std::printf("liberty  CM-R     CM-C     CM-M     NM       winner\n");
  for (double liberty : {0.0, 0.04, 0.08, 0.12, 0.16, 0.2, 0.3}) {
    CuisineProfile profile = BuildCuisineProfile(lexicon, 11 /*ITA*/, 7);
    profile.liberty = liberty;
    SynthConfig synth;
    RecipeCorpus::Builder builder;
    CULEVO_CHECK_OK(
        SynthesizeCuisine(lexicon, profile, synth, count, &builder));
    RecipeCorpus corpus = builder.Build();

    SimulationConfig config;
    config.replicas = replicas;
    Result<CuisineEvaluation> ev =
        EvaluateCuisine(corpus, 11, lexicon, models, config);
    CULEVO_CHECK_OK(ev.status());
    std::printf("%.2f     ", liberty);
    for (const ModelScore& s : ev->scores) std::printf("%.4f   ", s.mae_ingredient);
    std::printf("%s\n", ev->scores[ev->BestByIngredientMae()].model.c_str());
  }
  return 0;
}
