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
/// Immutable after Build(); safe to read concurrently.
class QueryIndex {
 public:
  /// Builds all tables from the corpus's presence counts plus the
  /// postings placement, its only pass over the recipes. Postings are
  /// placed by recipe range on up to `max_threads` threads (at most one
  /// per usable CPU, see ThreadsFor); the tables are the same whatever the
  /// count. Each table's build time is recorded in
  /// serve.index.{overrep,profiles,postings,ranks}_ms, the total in
  /// serve.index.build_ms.
  static QueryIndex Build(const RecipeCorpus& corpus,
                          size_t max_threads = SIZE_MAX);

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

  /// Ascending recipe indices whose ingredient set contains `id`; empty
  /// for ids outside the corpus universe.
  std::span<const uint32_t> Postings(IngredientId id) const;

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
  std::vector<std::vector<OverrepresentationScore>> overrep_;
  std::shared_ptr<const UsageProfileCache> profiles_;
  /// nearest_[c] = every other non-empty cuisine, closest first.
  std::vector<std::vector<CuisineNeighbor>> nearest_;
  /// Per-recipe cuisine column (copy; the index never dangles off the
  /// corpus it was built from).
  std::vector<CuisineId> cuisines_;
  /// Recipe count per cuisine (denominator of the usage fractions).
  std::vector<uint32_t> cuisine_recipes_;
  /// Ingredient→recipe postings in CSR layout over the id universe
  /// [0, posting_offsets_.size() - 1); posting_recipes_ holds
  /// posting_offsets_.back() entries.
  std::vector<uint32_t> posting_offsets_;
  std::unique_ptr<uint32_t[]> posting_recipes_;
  /// ranked_[c] = cuisine ingredients by descending fraction;
  /// rank_of_[c][i] = 1-based rank of profile(c).ingredients[i].
  std::vector<std::vector<IngredientId>> ranked_;
  std::vector<std::vector<uint32_t>> rank_of_;
};

}  // namespace culevo

#endif  // CULEVO_SERVICE_QUERY_INDEX_H_
