#include "core/fitness.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace culevo {

namespace {

/// Categories that carry pan-cuisine staples get a mild fitness edge under
/// the category-biased hypothesis (cost/availability proxy).
double CategoryWeight(Category category) {
  switch (category) {
    case Category::kAdditive:
    case Category::kSpice:
    case Category::kVegetable:
    case Category::kDairy:
      return 1.6;
    case Category::kHerb:
    case Category::kCereal:
    case Category::kFruit:
      return 1.3;
    default:
      return 1.0;
  }
}

}  // namespace

FitnessTable FitnessTable::Make(FitnessKind kind,
                                const std::vector<IngredientId>& ingredients,
                                const std::vector<double>& popularity,
                                const Lexicon& lexicon, Rng* rng) {
  FitnessTable table;
  table.values_.resize(ingredients.size());
  switch (kind) {
    case FitnessKind::kUniform:
      for (double& v : table.values_) v = rng->NextDouble();
      break;
    case FitnessKind::kCategoryBiased:
      for (size_t i = 0; i < ingredients.size(); ++i) {
        const double w = CategoryWeight(lexicon.category(ingredients[i]));
        // U^(1/w): higher w skews the distribution toward 1.
        table.values_[i] = std::pow(rng->NextDouble(), 1.0 / w);
      }
      break;
    case FitnessKind::kPopularityRank: {
      CULEVO_CHECK(popularity.size() == ingredients.size());
      // Rank-normalized popularity plus uniform noise, clipped to [0, 1].
      std::vector<size_t> order(ingredients.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return popularity[a] < popularity[b];
      });
      const double n = static_cast<double>(order.size());
      for (size_t r = 0; r < order.size(); ++r) {
        const double base = (static_cast<double>(r) + 0.5) / n;
        const double noisy = base + 0.15 * (rng->NextDouble() - 0.5);
        table.values_[order[r]] = std::clamp(noisy, 0.0, 1.0);
      }
      break;
    }
  }
  return table;
}

}  // namespace culevo
