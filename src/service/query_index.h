#ifndef CULEVO_SERVICE_QUERY_INDEX_H_
#define CULEVO_SERVICE_QUERY_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
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
/// Each segment stores a recipe as its 16-bit offset inside its chunk of
/// kChunkRecipes recipes (the "array container" of Roaring bitmaps,
/// Chambi et al.), plus a directory of each id's slice of each chunk:
/// half the bytes of a uint32_t recipe index per posting.
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

  /// Recipes per posting chunk: the range of the 16-bit offset that a
  /// recipe is stored as.
  static constexpr uint32_t kChunkRecipes =
      uint32_t{std::numeric_limits<uint16_t>::max()} + 1;

  /// One id's postings in one segment (the base or the tail), read as
  /// ascending recipe indices. A view of the segment's storage.
  class PostingSegment {
   public:
    /// Decodes the stored offsets chunk by chunk. Two iterators are equal
    /// when they point at the same stored offset, so the begins of two
    /// views of one placement compare equal.
    class Iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = uint32_t;
      using difference_type = std::ptrdiff_t;
      using pointer = void;
      using reference = uint32_t;

      Iterator() = default;
      uint32_t operator*() const { return chunk_first_ + *at_; }
      Iterator& operator++() {
        ++at_;
        Settle();
        return *this;
      }
      Iterator operator++(int) {
        Iterator before = *this;
        ++*this;
        return before;
      }
      bool operator==(const Iterator& other) const { return at_ == other.at_; }

     private:
      friend class PostingSegment;
      Iterator(const PostingSegment& list, const uint16_t* at)
          : at_(at),
            offsets_(list.offsets_),
            chunk_end_(list.row_ + 1),
            last_(list.row_ + list.chunks_),
            chunk_first_(list.first_) {
        Settle();
      }
      /// Moves on to the chunk `at_` lies in, past every chunk that ends
      /// at it (an empty one, or the one just read).
      void Settle() {
        while (chunk_end_ < last_ && at_ == offsets_ + *chunk_end_) {
          ++chunk_end_;
          chunk_first_ += kChunkRecipes;
        }
      }

      const uint16_t* at_ = nullptr;
      const uint16_t* offsets_ = nullptr;
      /// The directory cursor where the current chunk's slice ends.
      const uint32_t* chunk_end_ = nullptr;
      const uint32_t* last_ = nullptr;
      /// The recipe index of the current chunk's offset 0.
      uint32_t chunk_first_ = 0;
    };

    PostingSegment() = default;

    size_t size() const { return row_[chunks_] - row_[0]; }
    bool empty() const { return size() == 0; }
    Iterator begin() const { return Iterator(*this, offsets_ + row_[0]); }
    Iterator end() const { return Iterator(*this, offsets_ + row_[chunks_]); }

    /// Whether `recipe` is on the list: a binary search of its chunk's
    /// slice alone.
    bool Contains(uint32_t recipe) const {
      if (recipe < first_) return false;
      const uint32_t chunk = (recipe - first_) / kChunkRecipes;
      if (chunk >= chunks_) return false;
      return std::binary_search(offsets_ + row_[chunk],
                                offsets_ + row_[chunk + 1],
                                static_cast<uint16_t>(recipe - first_));
    }

   private:
    friend class QueryIndex;
    /// The row of an id outside the universe: one cursor, no chunks.
    static constexpr uint32_t kNoRow[1] = {0};

    PostingSegment(const uint16_t* offsets, const uint32_t* row,
                   uint32_t first, uint32_t chunks)
        : offsets_(offsets), row_(row), first_(first), chunks_(chunks) {}

    /// The segment's stored offsets, and the id's directory row: chunks_
    /// + 1 cursors into them, chunk k's slice being [row_[k], row_[k+1]).
    const uint16_t* offsets_ = nullptr;
    const uint32_t* row_ = kNoRow;
    uint32_t first_ = 0;
    uint32_t chunks_ = 0;
  };

  /// The ascending recipe indices whose ingredient set contains one id:
  /// the base segment, then the tail segment.
  struct PostingList {
    PostingSegment base;
    PostingSegment tail;

    size_t size() const { return base.size() + tail.size(); }
    bool empty() const { return base.empty() && tail.empty(); }
  };

  /// The posting list of `id`; empty for ids outside the corpus universe.
  PostingList Postings(IngredientId id) const {
    return {base_->List(id), tail_.List(id)};
  }

  /// Recipes in the posting tail: those added since the base was placed.
  size_t tail_recipes() const { return tail_.count; }

  /// Bytes of the postings: the base's and the tail's stored offsets and
  /// directories (serve.index.postings_bytes).
  size_t postings_bytes() const { return base_->bytes() + tail_.bytes(); }

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
  /// Ingredient→recipe postings of `count` consecutive recipes from
  /// `first`, in `chunks` chunks of kChunkRecipes: recipe r lies in chunk
  /// k = (r - first) / kChunkRecipes and is stored as the offset r - first
  /// - k * kChunkRecipes. Over the id universe [0, universe()), row id of
  /// `directory` holds chunks + 1 cursors into `offsets`: the id's slice
  /// of chunk k is [row[k], row[k + 1]), so its whole list is [row[0],
  /// row[chunks]), and the last cursor of the last row is the total.
  struct Segment {
    uint32_t first = 0;
    uint32_t count = 0;
    uint32_t chunks = 0;
    std::vector<uint32_t> directory;
    std::unique_ptr<uint16_t[]> offsets;

    size_t universe() const { return directory.size() / (chunks + 1); }
    size_t bytes() const {
      const size_t postings = directory.empty() ? 0 : directory.back();
      return postings * sizeof(uint16_t) +
             directory.size() * sizeof(uint32_t);
    }
    PostingSegment List(IngredientId id) const {
      if (static_cast<size_t>(id) >= universe()) return {};
      return PostingSegment(
          offsets.get(),
          directory.data() + static_cast<size_t>(id) * (chunks + 1), first,
          chunks);
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
