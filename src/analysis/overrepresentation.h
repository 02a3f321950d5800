#ifndef CULEVO_ANALYSIS_OVERREPRESENTATION_H_
#define CULEVO_ANALYSIS_OVERREPRESENTATION_H_

#include <cstddef>
#include <vector>

#include "corpus/recipe_corpus.h"
#include "lexicon/lexicon.h"

namespace culevo {

/// One ingredient's Overrepresentation score in one cuisine (Eq. 1):
///   O_i^c = n_i^c / N^c  -  (sum_c n_i^c) / (sum_c N^c)
/// i.e. the fraction of the cuisine's recipes using ingredient i minus the
/// world-wide fraction of recipes using it. Positive means the cuisine
/// uses the ingredient more than the world average.
struct OverrepresentationScore {
  IngredientId ingredient = kInvalidIngredient;
  double score = 0.0;
  double cuisine_fraction = 0.0;  ///< n_i^c / N^c.
  double world_fraction = 0.0;    ///< sum n_i / sum N.
};

/// Computes Eq. 1 for every ingredient that occurs in `cuisine`, sorted by
/// descending score, from the corpus's presence counts (no recipe pass).
/// Returns an empty vector for an empty cuisine.
std::vector<OverrepresentationScore> ComputeOverrepresentation(
    const RecipeCorpus& corpus, CuisineId cuisine);

/// Convenience: the `k` most overrepresented ingredients of a cuisine
/// (Table I's rightmost column). Ranks only the top k (partial_sort with
/// the same deterministic tie-break), so it is equivalent to truncating
/// ComputeOverrepresentation without paying the full sort.
std::vector<OverrepresentationScore> TopOverrepresented(
    const RecipeCorpus& corpus, CuisineId cuisine, size_t k);

}  // namespace culevo

#endif  // CULEVO_ANALYSIS_OVERREPRESENTATION_H_
