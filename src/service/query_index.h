#ifndef CULEVO_SERVICE_QUERY_INDEX_H_
#define CULEVO_SERVICE_QUERY_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "analysis/overrepresentation.h"
#include "analysis/similarity.h"
#include "corpus/recipe_corpus.h"
#include "lexicon/lexicon.h"

namespace culevo {

/// Precomputed point-query indexes over one immutable RecipeCorpus.
///
/// Built once at snapshot-install time (startup or reload) so the serving
/// path never rescans recipes: overrepresentation top-k and
/// nearest-cuisines are prefix slices of per-cuisine tables, recipe
/// search intersects ingredient→recipe postings, and frequency/rank
/// lookups binary-search a per-cuisine rank table. Every answer is
/// bit-identical to what the batch analysis entry points
/// (ComputeOverrepresentation, NearestCuisines, ...) return for the same
/// corpus, because the tables are built *by* those entry points, all
/// reading the corpus's own presence counts (RecipeCorpus::presence).
///
/// The postings come in two parts: an immutable base over recipes
/// [0, base_n), held by shared_ptr, and a tail over recipes [base_n, n).
/// Build() places a fresh base and leaves the tail empty; Extend() shares
/// the base of the index it extends and places only the tail, so a delta
/// reload never allocates or writes a second corpus-sized posting array.
/// Every tail recipe index is above every base index, so a posting list
/// is its base segment followed by its tail segment, ascending, and every
/// answer is the same as a Build() of the whole corpus.
///
/// Immutable after Build()/Extend(); safe to read concurrently.
class QueryIndex {
 public:
  /// Builds all tables from the corpus's presence counts plus the
  /// postings placement, its only pass over the recipes. Postings are
  /// placed by recipe range on the usable CPUs (ThreadsFor); the tables
  /// are the same whatever the count. Each table's build time is recorded
  /// in serve.index.{overrep,profiles,postings,ranks}_ms, the total in
  /// serve.index.build_ms.
  static QueryIndex Build(const RecipeCorpus& corpus);

  /// The index of `corpus`, whose first recipes are, unchanged, the ones
  /// `serving` was built from (IncrementalCorpus::FromCorpus plus Add).
  /// Shares `serving`'s posting base and places, on the calling thread, a
  /// tail over every recipe past it; the other tables are re-derived in
  /// full. Records none of the serve.index.*_ms timers, which time
  /// Build() alone.
  static QueryIndex Extend(const QueryIndex& serving,
                           const RecipeCorpus& corpus);

  QueryIndex() = default;

  /// Full descending-score overrepresentation table of one cuisine
  /// (ComputeOverrepresentation output; top-k = the first k entries).
  std::span<const OverrepresentationScore> Overrepresentation(
      CuisineId cuisine) const {
    return overrep_[cuisine];
  }

  const UsageProfileCache& profiles() const { return *profiles_; }

  /// The `k` nearest cuisines by ingredient-usage distance: a prefix of
  /// the cuisine's full NearestCuisines order, sorted once at Build().
  std::span<const CuisineNeighbor> Nearest(CuisineId cuisine,
                                           size_t k) const {
    const std::vector<CuisineNeighbor>& all = nearest_[cuisine];
    return std::span<const CuisineNeighbor>(all).first(
        std::min(k, all.size()));
  }

  /// The ascending recipe indices whose ingredient set contains one id:
  /// the base segment, then the tail segment.
  struct PostingList {
    std::span<const uint32_t> base;
    std::span<const uint32_t> tail;

    size_t size() const { return base.size() + tail.size(); }
    bool empty() const { return base.empty() && tail.empty(); }
  };

  /// The posting list of `id`; empty for ids outside the corpus universe.
  PostingList Postings(IngredientId id) const {
    return {base_->List(id), tail_.List(id)};
  }

  /// Recipes in the posting tail: those added since the base was placed.
  size_t tail_recipes() const { return tail_.count; }

  /// Recipes containing *all* of `ids` (sorted unique required),
  /// optionally restricted to one cuisine, capped at `limit` results
  /// (ascending recipe index — deterministic).
  std::vector<uint32_t> SearchRecipes(std::span<const IngredientId> ids,
                                      std::optional<CuisineId> cuisine,
                                      size_t limit) const;

  /// Usage of one ingredient inside one cuisine.
  struct UsageRank {
    uint32_t count = 0;     ///< Recipes of the cuisine containing it.
    double fraction = 0.0;  ///< count / cuisine recipe count.
    uint32_t rank = 0;      ///< 1-based; ties broken by ascending id.
  };

  /// Frequency + rank of `id` within `cuisine`; nullopt when the cuisine
  /// never uses the ingredient.
  std::optional<UsageRank> Usage(CuisineId cuisine, IngredientId id) const;

  /// The cuisine's ingredient ids ordered by descending usage fraction
  /// (ties: ascending id) — the Zipf-style rank list of Singh & Bagler's
  /// culinary-pattern statistics.
  std::span<const IngredientId> RankedIngredients(CuisineId cuisine) const {
    return ranked_[cuisine];
  }

 private:
  /// Ingredient→recipe postings of `count` consecutive recipes, in CSR
  /// layout over the id universe [0, offsets.size() - 1): the list of id
  /// is recipes[offsets[id], offsets[id + 1]), ascending.
  struct Segment {
    uint32_t count = 0;
    std::vector<uint32_t> offsets;
    std::unique_ptr<uint32_t[]> recipes;

    std::span<const uint32_t> List(IngredientId id) const {
      if (static_cast<size_t>(id) + 1 >= offsets.size()) return {};
      return std::span<const uint32_t>(recipes.get() + offsets[id],
                                       offsets[id + 1] - offsets[id]);
    }
  };

  /// The postings of recipes [first, corpus.num_recipes()), whose list
  /// lengths over the id universe are `counts`, placed on `ranges`
  /// threads.
  static Segment Place(const RecipeCorpus& corpus, uint32_t first,
                       std::span<const uint32_t> counts, size_t ranges);

  /// Build() when `base` is null, else Extend() of the index owning it.
  static QueryIndex Derive(const RecipeCorpus& corpus,
                           std::shared_ptr<const Segment> base);

  /// The indexed corpus, for its cuisine column and per-cuisine recipe
  /// counts: a copy shares the corpus's storage, so the index never
  /// dangles and duplicates nothing.
  RecipeCorpus corpus_;
  std::vector<std::vector<OverrepresentationScore>> overrep_;
  std::shared_ptr<const UsageProfileCache> profiles_;
  /// nearest_[c] = every other non-empty cuisine, closest first.
  std::vector<std::vector<CuisineNeighbor>> nearest_;
  /// The postings of recipes [0, base_->count), shared by every index
  /// extended from the one that placed them, and of the rest.
  std::shared_ptr<const Segment> base_;
  Segment tail_;
  /// ranked_[c] = cuisine ingredients by descending fraction;
  /// rank_of_[c][i] = 1-based rank of profile(c).ingredients[i].
  std::vector<std::vector<IngredientId>> ranked_;
  std::vector<std::vector<uint32_t>> rank_of_;
};

}  // namespace culevo

#endif  // CULEVO_SERVICE_QUERY_INDEX_H_
