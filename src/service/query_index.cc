#include "service/query_index.h"

#include <algorithm>
#include <memory>
#include <numeric>

#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace culevo {

// The list starts are a prefix sum of the counts. The recipes split into
// contiguous ranges, one per thread: each range but the last counts its
// ids, a pass over (id, range) turns the counts into each range's cursor
// into each list (the list start plus the counts of the ranges before
// it), and then every range places its recipes. A list holds its ranges'
// segments in range order and each range's recipes ascend, so every list
// comes out sorted, and every slot is written exactly once (no zero-fill
// first). A range may start inside a chunk: the range holding a chunk's
// first recipe writes that chunk's directory column, its cursors there.
QueryIndex::Segment QueryIndex::Place(const RecipeCorpus& corpus,
                                      uint32_t first,
                                      std::span<const uint32_t> counts,
                                      size_t ranges) {
  const size_t n = corpus.num_recipes() - first;
  Segment segment;
  segment.first = first;
  segment.count = static_cast<uint32_t>(n);
  segment.chunks =
      static_cast<uint32_t>((n + kChunkRecipes - 1) / kChunkRecipes);
  const size_t universe = counts.size();
  const size_t stride = segment.chunks + 1;
  segment.directory.resize(universe * stride);
  const auto first_recipe = [first, n, ranges](size_t range) {
    return static_cast<uint32_t>(first + range * n / ranges);
  };
  // Row r of `cursors` is range r's cursors; rows 1.. hold the counts of
  // ranges 0.. until the prefix pass (the last range's count is never
  // needed). Row 0 is the list starts; each list's end is its directory
  // row's last cursor.
  std::vector<uint32_t> cursors(ranges * universe, 0);
  uint32_t postings = 0;
  for (size_t id = 0; id < universe; ++id) {
    cursors[id] = postings;
    postings += counts[id];
    segment.directory[id * stride + segment.chunks] = postings;
  }
  segment.offsets = std::make_unique_for_overwrite<uint16_t[]>(postings);
  RunTasks(ranges - 1, ranges - 1, [&](size_t range) {
    uint32_t* const counted = cursors.data() + (range + 1) * universe;
    for (uint32_t r = first_recipe(range); r < first_recipe(range + 1); ++r) {
      for (IngredientId id : corpus.ingredients_of(r)) ++counted[id];
    }
  });
  for (size_t range = 1; range < ranges; ++range) {
    for (size_t id = 0; id < universe; ++id) {
      cursors[range * universe + id] += cursors[(range - 1) * universe + id];
    }
  }
  RunTasks(ranges, ranges, [&](size_t range) {
    uint32_t* const cursor = cursors.data() + range * universe;
    for (uint32_t r = first_recipe(range); r < first_recipe(range + 1); ++r) {
      const uint32_t at = r - first;
      if (at % kChunkRecipes == 0) {
        uint32_t* const column =
            segment.directory.data() + at / kChunkRecipes;
        for (size_t id = 0; id < universe; ++id) {
          column[id * stride] = cursor[id];
        }
      }
      for (IngredientId id : corpus.ingredients_of(r)) {
        segment.offsets[cursor[id]++] = static_cast<uint16_t>(at);
      }
    }
  });
  return segment;
}

QueryIndex QueryIndex::Build(const RecipeCorpus& corpus) {
  return Derive(corpus, nullptr);
}

QueryIndex QueryIndex::Extend(const QueryIndex& serving,
                              const RecipeCorpus& corpus) {
  return Derive(corpus, serving.base_);
}

QueryIndex QueryIndex::Derive(const RecipeCorpus& corpus,
                              std::shared_ptr<const Segment> base) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  static obs::Histogram* build_ms = registry.histogram("serve.index.build_ms");
  static obs::Histogram* overrep_ms =
      registry.histogram("serve.index.overrep_ms");
  static obs::Histogram* profiles_ms =
      registry.histogram("serve.index.profiles_ms");
  static obs::Histogram* postings_ms =
      registry.histogram("serve.index.postings_ms");
  static obs::Histogram* ranks_ms = registry.histogram("serve.index.ranks_ms");
  // Only a Build() records: an Extend() is timed by its caller (a delta
  // reload's serve.reload.index_ms).
  const auto timed = [built = base == nullptr](obs::Histogram* histogram) {
    return built ? histogram : nullptr;
  };
  const obs::ScopedTimer timer(timed(build_ms));

  QueryIndex index;
  index.corpus_ = corpus;

  // Per-cuisine overrepresentation tables, exactly the batch ranking.
  {
    const obs::ScopedTimer phase(timed(overrep_ms));
    index.overrep_.resize(kNumCuisines);
    for (int c = 0; c < kNumCuisines; ++c) {
      index.overrep_[static_cast<size_t>(c)] =
          ComputeOverrepresentation(corpus, static_cast<CuisineId>(c));
    }
  }

  // Usage profiles, and each cuisine's full nearest-neighbour order from
  // the batch NearestCuisines (top-k is a prefix of it).
  {
    const obs::ScopedTimer phase(timed(profiles_ms));
    index.profiles_ = std::make_shared<const UsageProfileCache>(corpus);
    index.nearest_.resize(kNumCuisines);
    for (int c = 0; c < kNumCuisines; ++c) {
      index.nearest_[static_cast<size_t>(c)] = NearestCuisines(
          *index.profiles_, static_cast<CuisineId>(c), kNumCuisines);
    }
  }

  // Ingredient→recipe postings. A world count is a posting-list length,
  // so a fresh base takes its list lengths from the presence counts and
  // covers every recipe, on the usable CPUs. The tail's list lengths are
  // the world counts less the base's, and its recipes are those past the
  // base, placed on this thread; over a fresh base they are all zero.
  {
    const obs::ScopedTimer phase(timed(postings_ms));
    const std::span<const uint32_t> world = corpus.presence();
    if (base == nullptr) {
      base = std::make_shared<const Segment>(Place(
          corpus, 0, world,
          ThreadsFor(corpus.num_recipes(), kRecipesPerThread)));
    }
    const uint32_t base_end = base->count;
    CULEVO_CHECK(base_end <= corpus.num_recipes());
    CULEVO_CHECK(base->universe() <= world.size());
    std::vector<uint32_t> tail_counts(world.begin(), world.end());
    for (size_t id = 0; id < base->universe(); ++id) {
      const size_t in_base =
          base->List(static_cast<IngredientId>(id)).size();
      CULEVO_CHECK(tail_counts[id] >= in_base);
      tail_counts[id] -= static_cast<uint32_t>(in_base);
    }
    index.tail_ = Place(corpus, base_end, tail_counts, 1);
    index.base_ = std::move(base);
  }

  // Per-cuisine usage-rank tables from the sparse profiles.
  {
    const obs::ScopedTimer phase(timed(ranks_ms));
    index.ranked_.resize(kNumCuisines);
    index.rank_of_.resize(kNumCuisines);
    for (int c = 0; c < kNumCuisines; ++c) {
      const CuisineUsageProfile& profile =
          index.profiles_->profile(static_cast<CuisineId>(c));
      const size_t n = profile.ingredients.size();
      std::vector<uint32_t> order(n);
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(),
                [&profile](uint32_t a, uint32_t b) {
                  if (profile.fractions[a] != profile.fractions[b]) {
                    return profile.fractions[a] > profile.fractions[b];
                  }
                  return profile.ingredients[a] < profile.ingredients[b];
                });
      std::vector<IngredientId>& ranked =
          index.ranked_[static_cast<size_t>(c)];
      std::vector<uint32_t>& rank_of =
          index.rank_of_[static_cast<size_t>(c)];
      ranked.resize(n);
      rank_of.resize(n);
      for (size_t pos = 0; pos < n; ++pos) {
        ranked[pos] = profile.ingredients[order[pos]];
        rank_of[order[pos]] = static_cast<uint32_t>(pos) + 1;
      }
    }
  }
  return index;
}

std::optional<QueryIndex::UsageRank> QueryIndex::Usage(
    CuisineId cuisine, IngredientId id) const {
  const CuisineUsageProfile& profile = profiles_->profile(cuisine);
  const auto it = std::lower_bound(profile.ingredients.begin(),
                                   profile.ingredients.end(), id);
  if (it == profile.ingredients.end() || *it != id) return std::nullopt;
  const size_t slot =
      static_cast<size_t>(it - profile.ingredients.begin());
  UsageRank usage;
  usage.fraction = profile.fractions[slot];
  usage.count = corpus_.presence(cuisine)[id];
  usage.rank = rank_of_[cuisine][slot];
  return usage;
}

std::vector<uint32_t> QueryIndex::SearchRecipes(
    std::span<const IngredientId> ids, std::optional<CuisineId> cuisine,
    size_t limit) const {
  std::vector<uint32_t> out;
  if (ids.empty() || limit == 0) return out;

  // Intersect postings starting from the rarest list; each candidate from
  // it is probed by binary search against the other lists, in the segment
  // and the chunk it falls in. The base segments come first, so the hits
  // ascend.
  std::vector<PostingList> lists;
  lists.reserve(ids.size());
  for (IngredientId id : ids) {
    const PostingList postings = Postings(id);
    if (postings.empty()) return out;
    lists.push_back(postings);
  }
  std::sort(lists.begin(), lists.end(),
            [](const PostingList& a, const PostingList& b) {
              return a.size() < b.size();
            });
  for (const bool in_tail : {false, true}) {
    const auto segment = [in_tail](const PostingList& list) {
      return in_tail ? list.tail : list.base;
    };
    for (uint32_t candidate : segment(lists[0])) {
      bool in_all = true;
      for (size_t i = 1; i < lists.size() && in_all; ++i) {
        in_all = segment(lists[i]).Contains(candidate);
      }
      if (!in_all) continue;
      if (cuisine.has_value() && corpus_.cuisine_of(candidate) != *cuisine) {
        continue;
      }
      out.push_back(candidate);
      if (out.size() == limit) return out;
    }
  }
  return out;
}

}  // namespace culevo
