#include "analysis/cooccurrence.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace culevo {
namespace {

uint64_t PairKey(IngredientId a, IngredientId b) {
  return (static_cast<uint64_t>(a) << 16) | static_cast<uint64_t>(b);
}

}  // namespace

std::vector<PairingEdge> BuildPairingNetwork(const RecipeCorpus& corpus,
                                             CuisineId cuisine,
                                             size_t min_cooccurrences) {
  if (min_cooccurrences == 0) min_cooccurrences = 1;
  const std::span<const uint32_t> indices = corpus.recipes_of(cuisine);
  if (indices.empty()) return {};

  std::unordered_map<uint64_t, size_t> pairs;
  for (uint32_t index : indices) {
    const std::span<const IngredientId> recipe =
        corpus.ingredients_of(index);
    for (size_t i = 0; i < recipe.size(); ++i) {
      for (size_t j = i + 1; j < recipe.size(); ++j) {
        // Ids inside a recipe are sorted ascending, so recipe[i] <
        // recipe[j] and the key is canonical.
        ++pairs[PairKey(recipe[i], recipe[j])];
      }
    }
  }

  const std::span<const uint32_t> singles = corpus.presence(cuisine);
  const double n = static_cast<double>(indices.size());
  std::vector<PairingEdge> edges;
  edges.reserve(pairs.size());
  for (const auto& [key, count] : pairs) {
    if (count < min_cooccurrences) continue;
    PairingEdge edge;
    edge.a = static_cast<IngredientId>(key >> 16);
    edge.b = static_cast<IngredientId>(key & 0xFFFF);
    edge.cooccurrences = count;
    const double p_ab = static_cast<double>(count) / n;
    const double p_a = static_cast<double>(singles[edge.a]) / n;
    const double p_b = static_cast<double>(singles[edge.b]) / n;
    edge.pmi = std::log2(p_ab / (p_a * p_b));
    edges.push_back(edge);
  }

  std::sort(edges.begin(), edges.end(),
            [](const PairingEdge& x, const PairingEdge& y) {
              if (x.pmi != y.pmi) return x.pmi > y.pmi;
              if (x.cooccurrences != y.cooccurrences) {
                return x.cooccurrences > y.cooccurrences;
              }
              if (x.a != y.a) return x.a < y.a;
              return x.b < y.b;
            });
  return edges;
}

}  // namespace culevo
