#ifndef CULEVO_SYNTH_GENERATOR_H_
#define CULEVO_SYNTH_GENERATOR_H_

#include <cstdint>

#include "corpus/recipe_corpus.h"
#include "lexicon/lexicon.h"
#include "synth/cuisine_profile.h"
#include "util/status.h"

namespace culevo {

/// Knobs of the synthetic "empirical" corpus (DESIGN.md §2). The
/// generative process's rates are fixed (synth/generator.cc); they
/// reproduce the paper's statistical signatures at full Table-I size.
struct SynthConfig {
  uint64_t seed = 0xC0FFEE;
  /// Multiplies every cuisine's Table-I recipe count (0 < scale <= 1 for
  /// fast runs; 1.0 = paper size).
  double scale = 1.0;
};

/// Generates one cuisine's recipes into `builder` (count recipes).
///
/// The generative process is copy-mutate-like — a seeded pool, copying of
/// mother recipes, preference-weighted ingredient replacement with the
/// profile's cross-category liberty — but is a distinct code path with
/// distinct parameters from the fitted models in src/core (so fitting is
/// a real inference task, not an identity check).
Status SynthesizeCuisine(const Lexicon& lexicon, const CuisineProfile& profile,
                         const SynthConfig& config, int count,
                         RecipeCorpus::Builder* builder);

/// Generates the full 25-cuisine world corpus with Table-I-calibrated
/// per-cuisine recipe counts (times config.scale, minimum 30 recipes).
Result<RecipeCorpus> SynthesizeWorldCorpus(const Lexicon& lexicon,
                                           const SynthConfig& config = {});

}  // namespace culevo

#endif  // CULEVO_SYNTH_GENERATOR_H_
