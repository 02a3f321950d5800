#ifndef CULEVO_CORPUS_CORPUS_FILTER_H_
#define CULEVO_CORPUS_CORPUS_FILTER_H_

#include <cstdint>

#include "corpus/recipe_corpus.h"
#include "util/rng.h"

namespace culevo {

/// Splits a corpus into two disjoint halves per cuisine (even/odd after a
/// seeded shuffle): the basis of the split-half stability analysis in
/// core/model_selection.
struct CorpusSplit {
  RecipeCorpus first;
  RecipeCorpus second;
};
CorpusSplit SplitHalves(const RecipeCorpus& corpus, uint64_t seed);

}  // namespace culevo

#endif  // CULEVO_CORPUS_CORPUS_FILTER_H_
