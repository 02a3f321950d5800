#ifndef CULEVO_ANALYSIS_TRANSACTIONS_H_
#define CULEVO_ANALYSIS_TRANSACTIONS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "corpus/recipe_corpus.h"
#include "lexicon/lexicon.h"

namespace culevo {

/// Generic item for frequent-itemset mining. Wide enough for both
/// ingredient ids (0..720) and category indices (0..20).
using Item = uint16_t;

/// A frequent itemset and its absolute support (transaction count).
struct Itemset {
  std::vector<Item> items;  ///< Sorted ascending, unique.
  size_t support = 0;
};

/// Deterministic ordering for test comparison: by size, then
/// lexicographically by items.
bool ItemsetLess(const Itemset& a, const Itemset& b);

/// A transaction database: each transaction is a sorted set of items.
/// This is the input format of both miners. Stored CSR, like RecipeCorpus
/// and RecipeStore: transaction i is items[offsets[i], offsets[i + 1]).
class TransactionSet {
 public:
  /// Appends one transaction. `items` must be sorted ascending and
  /// duplicate-free.
  void Add(std::span<const Item> items);

  /// The two recipe projections every builder of mining input shares. Each
  /// appends one transaction for a recipe given as its ingredient ids (in
  /// any order, without repeats):
  ///   - AddIngredientSet: the ids, sorted ascending;
  ///   - AddCategorySet: the distinct categories of those ingredients,
  ///     ascending (the paper's "combinations of ingredient categories").
  void AddIngredientSet(std::span<const IngredientId> ids);
  void AddCategorySet(std::span<const IngredientId> ids,
                      const Lexicon& lexicon);

  /// Reserves room for `num_transactions` more transactions holding
  /// `num_items` items in all.
  void Reserve(size_t num_transactions, size_t num_items = 0) {
    offsets_.reserve(offsets_.size() + num_transactions);
    items_.reserve(items_.size() + num_items);
  }

  size_t size() const { return offsets_.size() - 1; }
  std::span<const Item> transaction(size_t i) const {
    return {items_.data() + offsets_[i], items_.data() + offsets_[i + 1]};
  }
  /// Every transaction's items, back to back in transaction order.
  std::span<const Item> items() const { return items_; }

  /// Largest item value + 1 (0 if empty).
  size_t item_universe() const { return universe_; }

  bool operator==(const TransactionSet&) const = default;

 private:
  /// Closes the transaction formed by the items appended since the last
  /// offset.
  void Seal();

  std::vector<Item> items_;
  std::vector<uint32_t> offsets_ = {0};
  size_t universe_ = 0;
};

/// The ingredient transactions of one cuisine: one transaction per recipe,
/// items = ingredient ids.
TransactionSet IngredientTransactions(const RecipeCorpus& corpus,
                                      CuisineId cuisine);

/// The category transactions of one cuisine: each recipe projected to the
/// set of distinct categories of its ingredients.
TransactionSet CategoryTransactions(const RecipeCorpus& corpus,
                                    CuisineId cuisine,
                                    const Lexicon& lexicon);

}  // namespace culevo

#endif  // CULEVO_ANALYSIS_TRANSACTIONS_H_
