#include "analysis/transactions.h"

#include <algorithm>

#include "util/check.h"

namespace culevo {

bool ItemsetLess(const Itemset& a, const Itemset& b) {
  if (a.items.size() != b.items.size()) {
    return a.items.size() < b.items.size();
  }
  return a.items < b.items;
}

void TransactionSet::Add(std::span<const Item> items) {
  items_.insert(items_.end(), items.begin(), items.end());
  Seal();
}

void TransactionSet::AddIngredientSet(std::span<const IngredientId> ids) {
  // IngredientId and Item are both uint16_t.
  items_.insert(items_.end(), ids.begin(), ids.end());
  std::sort(items_.begin() + static_cast<ptrdiff_t>(offsets_.back()),
            items_.end());
  Seal();
}

void TransactionSet::AddCategorySet(std::span<const IngredientId> ids,
                                    const Lexicon& lexicon) {
  bool present[kNumCategories] = {};
  for (IngredientId id : ids) {
    present[static_cast<int>(lexicon.category(id))] = true;
  }
  for (int c = 0; c < kNumCategories; ++c) {
    if (present[c]) items_.push_back(static_cast<Item>(c));
  }
  Seal();
}

void TransactionSet::Seal() {
  const auto begin =
      items_.begin() + static_cast<ptrdiff_t>(offsets_.back());
  CULEVO_DCHECK(std::is_sorted(begin, items_.end()));
  CULEVO_DCHECK(std::adjacent_find(begin, items_.end()) == items_.end());
  if (begin != items_.end()) {
    universe_ = std::max(universe_, static_cast<size_t>(items_.back()) + 1);
  }
  offsets_.push_back(static_cast<uint32_t>(items_.size()));
}

TransactionSet IngredientTransactions(const RecipeCorpus& corpus,
                                      CuisineId cuisine) {
  TransactionSet out;
  out.Reserve(corpus.num_recipes_in(cuisine));
  for (uint32_t index = 0; index < corpus.num_recipes(); ++index) {
    if (corpus.cuisine_of(index) != cuisine) continue;
    out.AddIngredientSet(corpus.ingredients_of(index));
  }
  return out;
}

TransactionSet CategoryTransactions(const RecipeCorpus& corpus,
                                    CuisineId cuisine,
                                    const Lexicon& lexicon) {
  TransactionSet out;
  out.Reserve(corpus.num_recipes_in(cuisine));
  for (uint32_t index = 0; index < corpus.num_recipes(); ++index) {
    if (corpus.cuisine_of(index) != cuisine) continue;
    out.AddCategorySet(corpus.ingredients_of(index), lexicon);
  }
  return out;
}

}  // namespace culevo
