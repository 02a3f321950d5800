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
/// per-recipe offsets and a parallel cuisine column, with per-cuisine
/// unique-ingredient lists materialized once at Build() time. Recipes are
/// stored as sorted unique id sets — the canonical form both the miners
/// and the evolution models operate on. There is no per-cuisine list of
/// recipe indices: a walk over one cuisine's recipes filters the cuisine
/// column in index order (cuisine_of), and every per-cuisine count is a
/// table below.
///
/// The recipe-presence counts n_i^c (Eq. 1) and the per-cuisine
/// recipe-size histograms are counted once, by the pass each construction
/// path already makes over the recipes (FromColumns' validation, and the
/// one derivation Builder::Build and IncrementalCorpus::Materialize share,
/// which extends the tables of a prefix corpus by the recipes appended
/// after it), and every reader of them — overrepresentation, usage
/// profiles, contexts, the recipe generator's popularity, the query
/// index, the cuisine statistics — reads presence() or size_histogram()
/// instead of recounting.
///
/// Storage seam: the columns come in two segments (segments()). The base,
/// recipes [0, base_n), is immutable and held through `backing_`: the
/// vectors Builder::Build made, or memory borrowed from a binary snapshot
/// — an mmap'ed `CULEVO-CORPUS` container or its buffered-read fallback
/// (see corpus/corpus_snapshot.h). The tail, recipes [base_n, n), is this
/// corpus's own: IncrementalCorpus::Materialize hands over the recipes
/// appended since the base, so a corpus extending another shares that
/// one's base and never copies it. A built or loaded corpus has an empty
/// tail. The unique lists, the presence table and the size histograms
/// are whole, one set per corpus: the unique lists views into the
/// snapshot or owned, the presence table and the histograms always owned
/// (they are derived and not persisted). Every view points into memory
/// `backing_` or `storage_` keeps alive for as long as any copy of the
/// corpus exists, so views never dangle, copies are cheap and share
/// everything, and call sites cannot tell the modes apart.
///
/// Immutable after Build()/load; cheap to copy, thread-safe to read.
class RecipeCorpus {
  /// CSR columns in vectors: the base a Builder made, or a tail. A tail's
  /// offsets start with the base's mention count, so a segment of either
  /// kind has one offset per recipe plus one. (Declared first: the Builder
  /// holds one.)
  struct Columns {
    std::vector<IngredientId> flat;
    std::vector<uint32_t> offsets = {0};
    std::vector<CuisineId> cuisines;

    /// Appends one recipe in canonical form, its ids sorted and
    /// deduplicated in `scratch`. InvalidArgument, with the columns
    /// unchanged, for an out-of-range cuisine or no ingredients. Both
    /// Builder::Add and IncrementalCorpus::Add come here.
    Status Append(CuisineId cuisine, std::span<const IngredientId> ingredients,
                  std::vector<IngredientId>& scratch);
  };

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
    size_t size() const { return columns_.cuisines.size(); }

    /// Finalizes the corpus — including the cached unique-ingredient
    /// lists, the presence table and the size histograms. The builder is
    /// left empty.
    RecipeCorpus Build();

   private:
    Columns columns_;
    std::vector<IngredientId> scratch_;
  };

  /// The CSR columns of consecutive recipes. A corpus is its base segment
  /// followed by its tail segment, and each column of the base followed
  /// by the same column of the tail is the corpus's whole column, byte
  /// for byte: the base's offsets hold its recipes' starts and the end of
  /// its last recipe, and the tail's continue them, one end per recipe.
  struct Segment {
    std::span<const IngredientId> flat;
    std::span<const uint32_t> offsets;
    std::span<const CuisineId> cuisines;
  };

  RecipeCorpus();

  size_t num_recipes() const {
    return base_.cuisines.size() + tail_.cuisines.size();
  }

  /// Precondition: index < num_recipes().
  RecipeView recipe(uint32_t index) const;
  CuisineId cuisine_of(uint32_t index) const {
    const size_t base_n = base_.cuisines.size();
    return index < base_n ? base_.cuisines[index]
                          : tail_.cuisines[index - base_n];
  }
  std::span<const IngredientId> ingredients_of(uint32_t index) const;

  /// Number of recipes in `cuisine`, read off its size histogram.
  size_t num_recipes_in(CuisineId cuisine) const;

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

  /// Recipe-size histogram of `cuisine`: entry s counts its recipes of
  /// exactly s ingredients, up to its largest recipe (empty for an empty
  /// cuisine). Precondition: cuisine < kNumCuisines.
  std::span<const uint32_t> size_histogram(CuisineId cuisine) const;

  /// Mean ingredient count per recipe in `cuisine`, read off its size
  /// histogram; 0 if empty.
  double MeanRecipeSize(CuisineId cuisine) const;

  /// Total ingredient-mention count (sum of recipe sizes).
  size_t total_mentions() const {
    return base_.flat.size() + tail_.flat.size();
  }

  /// True when the base columns are views into memory held through
  /// FromColumns' `backing` (a snapshot's), also for a corpus extending
  /// such a one, rather than vectors a Builder made.
  bool borrowed() const { return borrowed_; }

  /// The base segment, recipes [0, base_n), then the tail segment,
  /// recipes [base_n, num_recipes()) (the snapshot writer's and the
  /// fingerprint's input; stable for the lifetime of the corpus).
  std::array<Segment, 2> segments() const;

  /// The whole columns of a corpus with an empty tail — every built or
  /// loaded one. CHECK-fails on a corpus with a tail, whose columns are
  /// its segments().
  std::span<const IngredientId> flat() const { return Untailed().flat; }
  std::span<const uint32_t> offsets() const { return Untailed().offsets; }
  std::span<const CuisineId> cuisines() const { return Untailed().cuisines; }

  /// Wires a corpus directly onto externally owned column memory. `views`
  /// spans must outlive `backing`; `backing` is retained until every copy
  /// of the corpus is destroyed. Validates all structural invariants
  /// (offset monotonicity, cuisine ranges, sorted-unique recipes,
  /// unique-list consistency) and returns InvalidArgument when the
  /// columns do not describe a well-formed corpus. The columns become the
  /// corpus's base; its tail is empty. The presence table and the size
  /// histograms are counted in the validating pass.
  struct ColumnViews {
    std::span<const IngredientId> flat;
    std::span<const uint32_t> offsets;       ///< num_recipes + 1 entries.
    std::span<const CuisineId> cuisines;     ///< num_recipes entries.
    /// unique[c] = sorted unique ingredient ids of cuisine c;
    /// unique[kNumCuisines] = corpus-wide sorted unique ids.
    std::array<std::span<const IngredientId>, kNumCuisines + 1> unique;
  };
  static Result<RecipeCorpus> FromColumns(ColumnViews views,
                                          std::shared_ptr<const void> backing);

 private:
  /// FromCorpus shares the corpus it starts from and copies its tail;
  /// Add appends through Columns; Materialize is Extended.
  friend class IncrementalCorpus;

  /// What one corpus owns besides its base. The unique lists are
  /// flattened (empty when they are views into a snapshot): list c spans
  /// unique_offsets[c]..unique_offsets[c+1] of unique_flat (kNumCuisines +
  /// 1 lists, the last one corpus-wide). `presence` is kNumCuisines + 1
  /// rows of universe counts, row-major [scope][id], the last row the
  /// world totals. `sizes[c]` is cuisine c's size histogram.
  struct Storage {
    Columns tail;
    std::vector<IngredientId> unique_flat;
    std::vector<uint32_t> unique_offsets;
    std::vector<uint32_t> presence;
    std::array<std::vector<uint32_t>, kNumCuisines> sizes;
  };

  /// The one table derivation: fills `out`'s presence table, unique
  /// lists and size histograms with those of `prefix` extended by
  /// `added`, the recipes numbered from prefix.num_recipes() on (every
  /// recipe of a Build, with an empty prefix; the appended ones of an
  /// Extended). Leaves `out.tail` alone.
  static void DeriveTables(const RecipeCorpus& prefix, const Segment& added,
                           Storage& out);

  /// A corpus with this one's base and `tail` as its tail, where `tail`
  /// is this corpus's tail followed by recipes appended to it: its tables
  /// are this corpus's extended by those recipes.
  RecipeCorpus Extended(Columns tail) const;

  /// The base columns when the tail is empty; CHECK-fails otherwise.
  const Segment& Untailed() const;

  /// Row `scope` of the presence table (kNumCuisines = the world row).
  std::span<const uint32_t> PresenceRow(size_t scope) const;

  /// Points the tail, the presence table, the size histograms and — when
  /// `storage` has them — the unique lists at `storage`, and keeps it.
  void Adopt(std::shared_ptr<const Storage> storage);

  /// Keeps the base columns alive: the Columns a Builder made, or a
  /// snapshot's memory. Null for a default corpus and for FromColumns
  /// views without a keepalive.
  std::shared_ptr<const void> backing_;
  std::shared_ptr<const Storage> storage_;
  bool borrowed_ = false;

  /// Views of the base and the tail columns, each with one offset per
  /// recipe plus one (the tail's first is the base's last).
  Segment base_;
  Segment tail_;
  std::array<std::span<const IngredientId>, kNumCuisines + 1> unique_;
  std::span<const uint32_t> presence_;
  std::array<std::span<const uint32_t>, kNumCuisines> sizes_;
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
