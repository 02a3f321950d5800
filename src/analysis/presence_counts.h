#ifndef CULEVO_ANALYSIS_PRESENCE_COUNTS_H_
#define CULEVO_ANALYSIS_PRESENCE_COUNTS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "corpus/recipe_corpus.h"
#include "lexicon/lexicon.h"

namespace culevo {

/// The recipe-presence counts n_i^c of Eq. 1 for every cuisine at once:
/// how many of cuisine c's recipes contain ingredient i, the world totals
/// sum_c n_i^c, and the recipe counts N^c. Filled by one sequential pass
/// over the corpus; overrepresentation scores, usage profiles and
/// posting-list lengths (a world count is exactly one) are all read off
/// this table instead of recounting the corpus.
///
/// Dense over the corpus id universe [0, UniqueIngredients().back() + 1),
/// not over kInvalidIngredient: kNumCuisines x universe() uint32 counts.
class PresenceCounts {
 public:
  explicit PresenceCounts(const RecipeCorpus& corpus);

  /// Counted ids are [0, universe()); every corpus id is below it.
  size_t universe() const { return universe_; }

  /// n_i^c for every id of the universe. Precondition: cuisine <
  /// kNumCuisines.
  std::span<const uint32_t> cuisine(CuisineId cuisine) const {
    return std::span<const uint32_t>(counts_).subspan(cuisine * universe_,
                                                      universe_);
  }

  /// sum_c n_i^c for every id of the universe.
  std::span<const uint32_t> world() const { return world_; }

  /// N^c, the number of recipes in `cuisine`.
  size_t recipes_in(CuisineId cuisine) const { return recipes_[cuisine]; }

  /// sum_c N^c.
  size_t num_recipes() const { return num_recipes_; }

 private:
  size_t universe_ = 0;
  size_t num_recipes_ = 0;
  std::vector<uint32_t> counts_;  ///< Row-major: [cuisine][id].
  std::vector<uint32_t> world_;
  std::array<size_t, kNumCuisines> recipes_{};
};

}  // namespace culevo

#endif  // CULEVO_ANALYSIS_PRESENCE_COUNTS_H_
