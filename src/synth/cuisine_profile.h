#ifndef CULEVO_SYNTH_CUISINE_PROFILE_H_
#define CULEVO_SYNTH_CUISINE_PROFILE_H_

#include <cstdint>
#include <vector>

#include "corpus/cuisine.h"
#include "lexicon/lexicon.h"

namespace culevo {

/// The ingredient-preference profile of one cuisine used by the synthetic
/// corpus generator (DESIGN.md §2): a vocabulary of Table-I size and a
/// Zipfian preference weight per vocabulary entry, with the cuisine's
/// Table-I top-5 ingredients forced to the head of the distribution.
struct CuisineProfile {
  CuisineId cuisine = 0;
  /// Vocabulary in preference-rank order (most preferred first).
  std::vector<IngredientId> vocabulary;
  /// Sampling weight per vocabulary position; sums to 1.
  std::vector<double> preference;
  double mean_recipe_size = 9.0;
  /// Fig. 1's size envelope, the same for every cuisine.
  static constexpr int min_recipe_size = kMinRecipeSize;
  static constexpr int max_recipe_size = kMaxRecipeSize;
  /// Probability that a generative mutation crosses category boundaries.
  double liberty = 0.5;
};

/// Builds the profile for `cuisine` deterministically from `seed`.
///
/// Vocabulary = the 5 Table-I top ingredients, then a fixed pan-cuisine
/// staple set, then a category-affinity-weighted random draw from the rest
/// of the lexicon up to the cuisine's Table-I unique-ingredient count.
/// Preferences follow a Zipf–Mandelbrot law over that order with an extra
/// boost on the top-5 so the overrepresentation analysis (Table I) recovers
/// them. CHECK-fails if a Table-I ingredient name is missing from
/// `lexicon` (the embedded world lexicon always has them).
CuisineProfile BuildCuisineProfile(const Lexicon& lexicon, CuisineId cuisine,
                                   uint64_t seed);

}  // namespace culevo

#endif  // CULEVO_SYNTH_CUISINE_PROFILE_H_
