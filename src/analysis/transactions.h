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

/// A transaction database as Eclat reads it, over buffers it does not own:
/// transaction i is items[offsets[i], offsets[i + 1]). Items may come in
/// any order, and an item that repeats within a transaction counts once.
/// With `item_map` set, each item x is mined as item_map[x], so a map can
/// fold several items into one (RunSimulation mines a recipe store's pool
/// positions as they are for ingredient combinations, and mapped to their
/// categories for category combinations).
struct TransactionView {
  std::span<const Item> items;
  /// One more offset than there are transactions; empty for none.
  std::span<const uint32_t> offsets;
  /// Every mined item (after `item_map`) is below this.
  size_t item_universe = 0;
  /// Empty, or indexed by every item that occurs: the item it is mined as.
  std::span<const Item> item_map;

  size_t size() const { return offsets.empty() ? 0 : offsets.size() - 1; }
  std::span<const Item> transaction(size_t i) const {
    return {items.data() + offsets[i], items.data() + offsets[i + 1]};
  }
};

/// A transaction database: each transaction is a sorted set of items.
/// This is the input format of both miners (Eclat reads it through
/// view()). Stored CSR, like RecipeCorpus and RecipeStore: transaction i
/// is items[offsets[i], offsets[i + 1]).
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

  /// The set as Eclat's input, over this set's own buffers.
  TransactionView view() const { return {items_, offsets_, universe_, {}}; }

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
