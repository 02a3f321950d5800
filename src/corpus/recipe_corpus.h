#ifndef CULEVO_CORPUS_RECIPE_CORPUS_H_
#define CULEVO_CORPUS_RECIPE_CORPUS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "corpus/cuisine.h"
#include "lexicon/lexicon.h"
#include "util/status.h"

namespace culevo {

/// Lightweight view of one recipe inside a RecipeCorpus.
struct RecipeView {
  uint32_t index;                            ///< Recipe index in the corpus.
  CuisineId cuisine;                         ///< Geo-cultural region.
  std::span<const IngredientId> ingredients; ///< Sorted, unique entity ids.

  size_t size() const { return ingredients.size(); }
};

/// Columnar (CSR-layout) recipe store: a flat ingredient-id array plus
/// per-recipe offsets and a parallel cuisine column, with cuisine-sharded
/// secondary indexes (per-cuisine recipe-index shards and per-cuisine
/// unique-ingredient lists) materialized once at Build() time. Recipes are
/// stored as sorted unique id sets — the canonical form both the miners
/// and the evolution models operate on.
///
/// The recipe-presence counts n_i^c (Eq. 1) are counted once, by the pass
/// each construction path already makes over the recipes (Builder::Build,
/// FromColumns, IncrementalCorpus::Add), and every reader of them —
/// overrepresentation, usage profiles, contexts, Zipf and PMI statistics,
/// the query index — reads presence() instead of recounting.
///
/// Storage seam: every accessor returns a `std::span`, and the spans are
/// backed either by vectors this corpus owns (Builder::Build, incremental
/// ingestion) or by memory borrowed from a binary snapshot — an mmap'ed
/// `CULEVO-CORPUS 1` container or its buffered-read fallback (see
/// corpus/corpus_snapshot.h). In borrowed mode `backing_` keeps the
/// mapping alive for as long as any copy of the corpus exists, so views
/// never dangle. Call sites cannot tell the two modes apart. The presence
/// table is derived, never persisted, and always owned.
///
/// Immutable after Build()/load; cheap to copy views from, thread-safe to
/// read.
class RecipeCorpus {
 public:
  /// Incremental construction. Ingredient lists are deduplicated and
  /// sorted; empty recipes are rejected.
  class Builder {
   public:
    /// Adds one recipe. Returns InvalidArgument for an empty ingredient
    /// list or an out-of-range cuisine.
    Status Add(CuisineId cuisine, const std::vector<IngredientId>& ingredients);

    /// Allocation-light overload for hot ingestion loops: the ingredients
    /// are copied into a reused scratch buffer for sort+dedup, so callers
    /// feeding the builder in a loop never pay a per-recipe heap
    /// allocation.
    Status Add(CuisineId cuisine, std::span<const IngredientId> ingredients);

    /// Pre-sizes the columns for `num_recipes` recipes totalling about
    /// `num_mentions` ingredient mentions (a parser line-count prepass
    /// makes ingestion append-only instead of reallocating).
    void Reserve(size_t num_recipes, size_t num_mentions);

    /// Number of recipes added so far.
    size_t size() const { return cuisines_.size(); }

    /// Finalizes the corpus — including the per-cuisine shards and the
    /// cached unique-ingredient lists. The builder is left empty.
    RecipeCorpus Build();

   private:
    std::vector<IngredientId> flat_;
    std::vector<uint32_t> offsets_ = {0};
    std::vector<CuisineId> cuisines_;
    std::vector<IngredientId> scratch_;
    /// Largest id added so far: the last presence column Build counts.
    IngredientId max_id_ = 0;
  };

  RecipeCorpus() { RebindViews(); }

  // Span views must be re-pointed at the destination's own storage on
  // copy (and are cheap to recompute on move), so all four are explicit.
  RecipeCorpus(const RecipeCorpus& other);
  RecipeCorpus& operator=(const RecipeCorpus& other);
  RecipeCorpus(RecipeCorpus&& other) noexcept;
  RecipeCorpus& operator=(RecipeCorpus&& other) noexcept;

  size_t num_recipes() const { return cuisines_.size(); }

  /// Precondition: index < num_recipes().
  RecipeView recipe(uint32_t index) const;
  CuisineId cuisine_of(uint32_t index) const { return cuisines_[index]; }
  std::span<const IngredientId> ingredients_of(uint32_t index) const;

  /// Indices of all recipes belonging to `cuisine` (ascending).
  std::span<const uint32_t> recipes_of(CuisineId cuisine) const;

  /// Number of recipes in `cuisine`.
  size_t num_recipes_in(CuisineId cuisine) const {
    return recipes_of(cuisine).size();
  }

  /// Distinct ingredient ids used anywhere in `cuisine` (sorted).
  /// Materialized once at Build()/load time and served as a view — calling
  /// this per replica is free.
  std::span<const IngredientId> UniqueIngredients(CuisineId cuisine) const;

  /// Distinct ingredient ids used anywhere in the corpus (sorted).
  std::span<const IngredientId> UniqueIngredients() const;

  /// n_i^c: how many of `cuisine`'s recipes use ingredient i, for every id
  /// i of the corpus universe [0, UniqueIngredients().back() + 1) — empty
  /// for an empty corpus. Precondition: cuisine < kNumCuisines.
  std::span<const uint32_t> presence(CuisineId cuisine) const;

  /// sum_c n_i^c for every id of the universe.
  std::span<const uint32_t> presence() const;

  /// Mean ingredient count per recipe in `cuisine`; 0 if empty.
  double MeanRecipeSize(CuisineId cuisine) const;

  /// Total ingredient-mention count (sum of recipe sizes).
  size_t total_mentions() const { return flat_.size(); }

  /// True when the columns are views into snapshot memory rather than
  /// vectors owned by this object.
  bool borrowed() const { return backing_ != nullptr; }

  // Raw column views (the snapshot writer's input; stable for the
  // lifetime of the corpus).
  std::span<const IngredientId> flat() const { return flat_; }
  std::span<const uint32_t> offsets() const { return offsets_; }
  std::span<const CuisineId> cuisines() const { return cuisines_; }

  /// Wires a corpus directly onto externally owned column memory. `views`
  /// spans must outlive `backing`; `backing` is retained until every copy
  /// of the corpus is destroyed. Validates all structural invariants
  /// (offset monotonicity, cuisine ranges, sorted-unique recipes, shard
  /// and unique-list consistency) and returns InvalidArgument when the
  /// columns do not describe a well-formed corpus.
  struct ColumnViews {
    std::span<const IngredientId> flat;
    std::span<const uint32_t> offsets;       ///< num_recipes + 1 entries.
    std::span<const CuisineId> cuisines;     ///< num_recipes entries.
    /// shards[c] = ascending recipe indices of cuisine c.
    std::array<std::span<const uint32_t>, kNumCuisines> shards;
    /// unique[c] = sorted unique ingredient ids of cuisine c;
    /// unique[kNumCuisines] = corpus-wide sorted unique ids.
    std::array<std::span<const IngredientId>, kNumCuisines + 1> unique;
  };
  static Result<RecipeCorpus> FromColumns(ColumnViews views,
                                          std::shared_ptr<const void> backing);

 private:
  friend class Builder;
  /// Materialize hands its maintained columns, shards and unique lists
  /// straight to storage_ instead of replaying them through Builder.
  friend class IncrementalCorpus;

  /// Owned columns (empty in borrowed mode). Shards and unique lists are
  /// flattened: shard c spans shard_offsets_[c]..shard_offsets_[c+1] of
  /// shard_index_, and likewise for unique lists (kNumCuisines + 1 lists,
  /// the last one corpus-wide). `presence` is filled in both modes:
  /// kNumCuisines + 1 rows of universe counts, row-major [scope][id], the
  /// last row the world totals.
  struct Storage {
    std::vector<IngredientId> flat;
    std::vector<uint32_t> offsets = {0};
    std::vector<CuisineId> cuisines;
    std::vector<uint32_t> shard_index;
    std::vector<uint32_t> shard_offsets;
    std::vector<IngredientId> unique_flat;
    std::vector<uint32_t> unique_offsets;
    std::vector<uint32_t> presence;
  };

  /// Row `scope` of storage_.presence (kNumCuisines = the world row).
  std::span<const uint32_t> PresenceRow(size_t scope) const;

  /// Points the view members at storage_ (owned mode).
  void RebindViews();

  Storage storage_;
  std::shared_ptr<const void> backing_;  ///< Snapshot keepalive, or null.

  std::span<const IngredientId> flat_;
  std::span<const uint32_t> offsets_;
  std::span<const CuisineId> cuisines_;
  std::array<std::span<const uint32_t>, kNumCuisines> shards_;
  std::array<std::span<const IngredientId>, kNumCuisines + 1> unique_;
};

/// Fewest recipes that earn a thread of their own in a pass over a corpus
/// (FromColumns' validation, QueryIndex::Build's postings): about half a
/// millisecond of work, so a smaller corpus stays on the calling thread.
inline constexpr size_t kRecipesPerThread = 16384;

/// FailedPrecondition unless every id `corpus` uses is below
/// `lexicon.size()`; `source` names the corpus in the message. A corpus
/// from a file may use any id, and Lexicon CHECK-fails outside its
/// entries, so code that reads ids through the lexicon checks this first.
Status CheckIdsInLexicon(const RecipeCorpus& corpus, const Lexicon& lexicon,
                         const std::string& source);

}  // namespace culevo

#endif  // CULEVO_CORPUS_RECIPE_CORPUS_H_
