#include "service/query_index.h"

#include <algorithm>
#include <memory>
#include <numeric>

#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "util/thread_pool.h"

namespace culevo {

QueryIndex QueryIndex::Build(const RecipeCorpus& corpus,
                             size_t max_threads) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  static obs::Histogram* build_ms = registry.histogram("serve.index.build_ms");
  static obs::Histogram* overrep_ms =
      registry.histogram("serve.index.overrep_ms");
  static obs::Histogram* profiles_ms =
      registry.histogram("serve.index.profiles_ms");
  static obs::Histogram* postings_ms =
      registry.histogram("serve.index.postings_ms");
  static obs::Histogram* ranks_ms = registry.histogram("serve.index.ranks_ms");
  const obs::ScopedTimer timer(build_ms);

  QueryIndex index;

  // Per-cuisine overrepresentation tables, exactly the batch ranking.
  {
    const obs::ScopedTimer phase(overrep_ms);
    index.overrep_.resize(kNumCuisines);
    for (int c = 0; c < kNumCuisines; ++c) {
      index.overrep_[static_cast<size_t>(c)] =
          ComputeOverrepresentation(corpus, static_cast<CuisineId>(c));
    }
  }

  // Usage profiles, and each cuisine's full nearest-neighbour order from
  // the batch NearestCuisines (top-k is a prefix of it).
  {
    const obs::ScopedTimer phase(profiles_ms);
    index.profiles_ = std::make_shared<const UsageProfileCache>(corpus);
    index.nearest_.resize(kNumCuisines);
    for (int c = 0; c < kNumCuisines; ++c) {
      index.nearest_[static_cast<size_t>(c)] = NearestCuisines(
          *index.profiles_, static_cast<CuisineId>(c), kNumCuisines);
    }
  }

  // Cuisine column copy for the search filter (the index must stay valid
  // even if the corpus it was built from is destroyed first).
  index.cuisines_.assign(corpus.cuisines().begin(), corpus.cuisines().end());
  index.cuisine_recipes_.resize(kNumCuisines);
  for (int c = 0; c < kNumCuisines; ++c) {
    index.cuisine_recipes_[static_cast<size_t>(c)] = static_cast<uint32_t>(
        corpus.num_recipes_in(static_cast<CuisineId>(c)));
  }

  // Ingredient→recipe postings, CSR over the id universe. A world count
  // is a posting-list length, so the list starts are a prefix sum of the
  // presence counts. The recipes split into contiguous ranges, one per
  // thread: each range but the last counts its ids, a pass over (id,
  // range) turns the counts into each range's cursor into each list (the
  // list start plus the counts of the ranges before it), and then every
  // range places its recipes. A list holds its ranges' segments in range
  // order and each range's recipes ascend, so every list comes out
  // sorted, and every slot is written exactly once (no zero-fill first).
  {
    const obs::ScopedTimer phase(postings_ms);
    const std::span<const uint32_t> world = corpus.presence();
    const size_t universe = world.size();
    index.posting_offsets_.assign(universe + 1, 0);
    std::partial_sum(world.begin(), world.end(),
                     index.posting_offsets_.begin() + 1);
    index.posting_recipes_ =
        std::make_unique_for_overwrite<uint32_t[]>(corpus.total_mentions());
    const size_t n = corpus.num_recipes();
    const size_t ranges = std::max<size_t>(
        1, std::min(max_threads, ThreadsFor(n, kRecipesPerThread)));
    const auto first_recipe = [n, ranges](size_t range) {
      return static_cast<uint32_t>(range * n / ranges);
    };
    // Row r of `cursors` is range r's cursors; rows 1.. first hold the
    // counts of ranges 0.. (the last range's count is never needed).
    std::vector<uint32_t> cursors(ranges * universe, 0);
    std::copy(index.posting_offsets_.begin(),
              index.posting_offsets_.end() - 1, cursors.begin());
    RunTasks(ranges - 1, ranges - 1, [&](size_t range) {
      uint32_t* const counts = cursors.data() + (range + 1) * universe;
      for (uint32_t r = first_recipe(range); r < first_recipe(range + 1);
           ++r) {
        for (IngredientId id : corpus.ingredients_of(r)) ++counts[id];
      }
    });
    for (size_t range = 1; range < ranges; ++range) {
      for (size_t id = 0; id < universe; ++id) {
        cursors[range * universe + id] += cursors[(range - 1) * universe + id];
      }
    }
    RunTasks(ranges, ranges, [&](size_t range) {
      uint32_t* const cursor = cursors.data() + range * universe;
      for (uint32_t r = first_recipe(range); r < first_recipe(range + 1);
           ++r) {
        for (IngredientId id : corpus.ingredients_of(r)) {
          index.posting_recipes_[cursor[id]++] = r;
        }
      }
    });
  }

  // Per-cuisine usage-rank tables from the sparse profiles.
  {
    const obs::ScopedTimer phase(ranks_ms);
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
  // Fractions are count / cuisine recipe count; the product is exact
  // (the fraction was produced by that very division), the +0.5 guards
  // the representable-but-inexact cases.
  usage.count = static_cast<uint32_t>(
      usage.fraction * static_cast<double>(cuisine_recipes_[cuisine]) + 0.5);
  usage.rank = rank_of_[cuisine][slot];
  return usage;
}

std::span<const uint32_t> QueryIndex::Postings(IngredientId id) const {
  if (static_cast<size_t>(id) + 1 >= posting_offsets_.size()) return {};
  return std::span<const uint32_t>(
      posting_recipes_.get() + posting_offsets_[id],
      posting_offsets_[id + 1] - posting_offsets_[id]);
}

std::vector<uint32_t> QueryIndex::SearchRecipes(
    std::span<const IngredientId> ids, std::optional<CuisineId> cuisine,
    size_t limit) const {
  std::vector<uint32_t> out;
  if (ids.empty() || limit == 0) return out;

  // Intersect postings starting from the rarest list; each candidate from
  // it is probed against the other lists by binary search.
  std::vector<std::span<const uint32_t>> lists;
  lists.reserve(ids.size());
  for (IngredientId id : ids) {
    std::span<const uint32_t> postings = Postings(id);
    if (postings.empty()) return out;
    lists.push_back(postings);
  }
  std::sort(lists.begin(), lists.end(),
            [](std::span<const uint32_t> a, std::span<const uint32_t> b) {
              return a.size() < b.size();
            });
  for (uint32_t candidate : lists[0]) {
    bool in_all = true;
    for (size_t i = 1; i < lists.size() && in_all; ++i) {
      in_all = std::binary_search(lists[i].begin(), lists[i].end(),
                                  candidate);
    }
    if (!in_all) continue;
    if (cuisine.has_value() && cuisines_[candidate] != *cuisine) continue;
    out.push_back(candidate);
    if (out.size() == limit) break;
  }
  return out;
}

}  // namespace culevo
