#ifndef CULEVO_TESTING_CORPUS_STATS_REFERENCE_H_
#define CULEVO_TESTING_CORPUS_STATS_REFERENCE_H_

#include <cstdint>
#include <vector>

#include "corpus/corpus_stats.h"
#include "corpus/recipe_corpus.h"

namespace culevo {

/// Indices of the recipes of `cuisine`, ascending: the cuisine column
/// filtered in index order.
std::vector<uint32_t> RecipesOf(const RecipeCorpus& corpus, CuisineId cuisine);

/// Per-cuisine statistics by a walk over every recipe of every cuisine,
/// each read through ingredients_of: the reference that the tests check
/// ComputeCuisineStats and RecipeCorpus::MeanRecipeSize against, which
/// read the corpus's size histograms instead. One entry per cuisine id,
/// including empty cuisines with zero counts.
std::vector<CuisineStats> ReferenceCuisineStats(const RecipeCorpus& corpus);

/// The aggregate recipe-size histogram by a walk over every recipe: the
/// reference for AggregateSizeHistogram.
std::vector<size_t> ReferenceSizeHistogram(const RecipeCorpus& corpus);

}  // namespace culevo

#endif  // CULEVO_TESTING_CORPUS_STATS_REFERENCE_H_
