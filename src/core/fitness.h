#ifndef CULEVO_CORE_FITNESS_H_
#define CULEVO_CORE_FITNESS_H_

#include <cstdint>
#include <vector>

#include "lexicon/lexicon.h"
#include "util/rng.h"

namespace culevo {

/// Hypotheses for how ingredient fitness arises. The paper uses kUniform
/// ("randomly sampled from a Uniform(0,1) distribution", Step 1);
/// the others implement the §VII future-work direction of alternative
/// fitness models.
enum class FitnessKind {
  kUniform,         ///< i.i.d. U(0,1) — the paper's model.
  kCategoryBiased,  ///< U(0,1) sharpened toward staple-bearing categories.
  kPopularityRank,  ///< Monotone in empirical popularity plus noise.
};

/// Per-ingredient fitness values for one simulation replica. Fitness is
/// indexed by *position* in the cuisine's ingredient list, not by global
/// IngredientId, matching Algorithm 1's per-cuisine scope.
class FitnessTable {
 public:
  FitnessTable() = default;

  /// `ingredients` is the cuisine's ingredient list; `popularity` (may be
  /// empty unless kind == kPopularityRank) gives the empirical presence
  /// fraction aligned with `ingredients`.
  static FitnessTable Make(FitnessKind kind,
                           const std::vector<IngredientId>& ingredients,
                           const std::vector<double>& popularity,
                           const Lexicon& lexicon, Rng* rng);

  double at(size_t position) const { return values_[position]; }
  size_t size() const { return values_.size(); }
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

}  // namespace culevo

#endif  // CULEVO_CORE_FITNESS_H_
