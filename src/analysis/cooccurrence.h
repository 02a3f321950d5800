#ifndef CULEVO_ANALYSIS_COOCCURRENCE_H_
#define CULEVO_ANALYSIS_COOCCURRENCE_H_

#include <cstdint>
#include <vector>

#include "corpus/recipe_corpus.h"
#include "lexicon/lexicon.h"

namespace culevo {

/// One weighted edge of an ingredient co-occurrence network.
struct PairingEdge {
  IngredientId a = kInvalidIngredient;
  IngredientId b = kInvalidIngredient;
  size_t cooccurrences = 0;  ///< Recipes containing both.
  /// Pointwise mutual information log2( p(a,b) / (p(a) p(b)) ); > 0 means
  /// the pair co-occurs more than independence predicts (the food-pairing
  /// signal of refs [3]-[6]).
  double pmi = 0.0;
};

/// The ingredient co-occurrence network of one cuisine: every unordered
/// ingredient pair appearing together in at least `min_cooccurrences`
/// recipes, with counts and PMI. Edges are sorted by descending PMI,
/// ties by descending count, then by ids.
std::vector<PairingEdge> BuildPairingNetwork(const RecipeCorpus& corpus,
                                             CuisineId cuisine,
                                             size_t min_cooccurrences);

}  // namespace culevo

#endif  // CULEVO_ANALYSIS_COOCCURRENCE_H_
