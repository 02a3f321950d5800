#ifndef CULEVO_CORE_RECIPE_STORE_H_
#define CULEVO_CORE_RECIPE_STORE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/check.h"

namespace culevo {

/// Index of an ingredient *within* a CuisineContext's ingredient list (the
/// position-indexed scope Algorithm 1 operates in). 16-bit, the width of
/// IngredientId and of the miner's Item: a context lists a cuisine's
/// distinct ids, so it never needs more positions than there are ids.
/// ValidateCuisineContext refuses a longer list before any position is
/// drawn, so no position is ever narrowed.
using PoolPos = uint16_t;

/// Flat arena of generated recipes: one contiguous position buffer plus an
/// offsets directory, replacing the seed engine's one-std::vector-per-recipe
/// layout (158k recipes × 100 replicas of small heap allocations). The two
/// arrays are a transaction database over pool positions (recipe i is
/// items()[offsets()[i], offsets()[i + 1])), which RunSimulation mines as
/// it stands.
///
/// The copy-mutate loop only ever mutates the most recent recipe, so the
/// store exposes an "open recipe" protocol: exactly the tail of the buffer
/// past the last committed offset. A mother recipe is copied to the tail,
/// mutated in place through open(), and sealed with Commit(); committed
/// recipes are immutable. Reset() rewinds without releasing capacity, so a
/// store reused across replicas is allocation-free in steady state.
class RecipeStore {
 public:
  /// Rewinds to empty and reserves for the expected final shape. Capacity
  /// is kept across calls.
  void Reset(size_t expected_recipes, size_t expected_items) {
    items_.clear();
    offsets_.clear();
    offsets_.reserve(expected_recipes + 1);
    offsets_.push_back(0);
    items_.reserve(expected_items);
  }

  size_t num_recipes() const { return offsets_.size() - 1; }
  size_t num_items() const { return offsets_.back(); }
  bool empty() const { return num_recipes() == 0; }

  std::span<const PoolPos> recipe(size_t i) const {
    CULEVO_DCHECK(i < num_recipes());
    return {items_.data() + offsets_[i], items_.data() + offsets_[i + 1]};
  }

  /// Every committed recipe's positions, back to back, and the
  /// num_recipes() + 1 offsets that split them.
  std::span<const PoolPos> items() const {
    return {items_.data(), offsets_.back()};
  }
  std::span<const uint32_t> offsets() const { return offsets_; }

  /// --- Open-recipe protocol -------------------------------------------

  /// Starts a new (empty) open recipe at the tail.
  void BeginRecipe() { CULEVO_DCHECK(!open_); open_ = true; }

  /// Starts a new open recipe as a copy of committed recipe `i` (the
  /// mother copy of Algorithm 1 line 10).
  void BeginRecipeFrom(size_t i) {
    BeginRecipe();
    CULEVO_DCHECK(i < num_recipes());
    const uint32_t begin = offsets_[i];
    const uint32_t size = offsets_[i + 1] - begin;
    const size_t tail = items_.size();
    // resize-then-copy instead of insert(): self-insertion from the
    // vector's own range is UB when it reallocates.
    items_.resize(tail + size);
    std::copy(items_.begin() + begin, items_.begin() + begin + size,
              items_.begin() + static_cast<ptrdiff_t>(tail));
  }

  void AppendToOpen(PoolPos pos) {
    CULEVO_DCHECK(open_);
    items_.push_back(pos);
  }

  /// Mutable view of the open recipe. Invalidated by AppendToOpen.
  std::span<PoolPos> open() {
    CULEVO_DCHECK(open_);
    return {items_.data() + offsets_.back(), items_.data() + items_.size()};
  }

  size_t open_size() const { return items_.size() - offsets_.back(); }

  /// Order-preserving erase within the open recipe (matches the seed
  /// engine's vector::erase, so descendant mutation slots line up).
  void EraseFromOpen(size_t index) {
    CULEVO_DCHECK(open_ && index < open_size());
    items_.erase(items_.begin() +
                 static_cast<ptrdiff_t>(offsets_.back() + index));
  }

  /// Seals the open recipe.
  void Commit() {
    CULEVO_DCHECK(open_);
    offsets_.push_back(static_cast<uint32_t>(items_.size()));
    open_ = false;
  }

 private:
  std::vector<PoolPos> items_;
  std::vector<uint32_t> offsets_ = {0};
  bool open_ = false;
};

}  // namespace culevo

#endif  // CULEVO_CORE_RECIPE_STORE_H_
