#include "analysis/overrepresentation.h"

#include <algorithm>

namespace culevo {
namespace {

/// Strict weak (in fact total) order: descending score, ascending
/// ingredient id on ties. Shared by the full sort and the top-k
/// partial_sort so both produce the same deterministic ranking.
bool ScoreBefore(const OverrepresentationScore& a,
                 const OverrepresentationScore& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.ingredient < b.ingredient;  // Deterministic ties.
}

/// Eq. 1 for every ingredient occurring in `cuisine`, unsorted (ascending
/// ingredient id, the table's order).
std::vector<OverrepresentationScore> ScoreIngredients(
    const PresenceCounts& counts, CuisineId cuisine) {
  const size_t n_recipes = counts.recipes_in(cuisine);
  if (n_recipes == 0) return {};

  // A recipe counts an ingredient once regardless of how it is used
  // (corpus stores id sets).
  const std::span<const uint32_t> cuisine_count = counts.cuisine(cuisine);
  const std::span<const uint32_t> world_count = counts.world();
  const double n_cuisine = static_cast<double>(n_recipes);
  const double n_world = static_cast<double>(counts.num_recipes());
  std::vector<OverrepresentationScore> out;
  out.reserve(static_cast<size_t>(std::count_if(
      cuisine_count.begin(), cuisine_count.end(),
      [](uint32_t n) { return n != 0; })));
  for (size_t id = 0; id < cuisine_count.size(); ++id) {
    if (cuisine_count[id] == 0) continue;
    OverrepresentationScore s;
    s.ingredient = static_cast<IngredientId>(id);
    s.cuisine_fraction = static_cast<double>(cuisine_count[id]) / n_cuisine;
    s.world_fraction = static_cast<double>(world_count[id]) / n_world;
    s.score = s.cuisine_fraction - s.world_fraction;
    out.push_back(s);
  }
  return out;
}

}  // namespace

std::vector<OverrepresentationScore> ComputeOverrepresentation(
    const PresenceCounts& counts, CuisineId cuisine) {
  std::vector<OverrepresentationScore> out =
      ScoreIngredients(counts, cuisine);
  std::sort(out.begin(), out.end(), ScoreBefore);
  return out;
}

std::vector<OverrepresentationScore> ComputeOverrepresentation(
    const RecipeCorpus& corpus, CuisineId cuisine) {
  return ComputeOverrepresentation(PresenceCounts(corpus), cuisine);
}

std::vector<OverrepresentationScore> TopOverrepresented(
    const RecipeCorpus& corpus, CuisineId cuisine, size_t k) {
  std::vector<OverrepresentationScore> all =
      ScoreIngredients(PresenceCounts(corpus), cuisine);
  if (all.size() <= k) {
    std::sort(all.begin(), all.end(), ScoreBefore);
    return all;
  }
  // Top-k without ranking the tail: ScoreBefore is a total order, so the
  // partial_sort prefix is exactly the full sort's prefix — ties included.
  std::partial_sort(all.begin(), all.begin() + static_cast<long>(k),
                    all.end(), ScoreBefore);
  all.resize(k);
  return all;
}

}  // namespace culevo
