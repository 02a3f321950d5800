#include "service/query_index.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/overrepresentation.h"
#include "analysis/similarity.h"
#include "corpus/ingestion.h"
#include "lexicon/world_lexicon.h"
#include "obs/metrics.h"
#include "one_cpu_test_util.h"
#include "synth/generator.h"
#include "util/thread_pool.h"

namespace culevo {
namespace {

/// Recipe-presence counts by direct recipe scan, independent of
/// RecipeCorpus::presence: counts[c][id] and the world totals.
struct BruteCounts {
  std::vector<std::map<IngredientId, uint32_t>> cuisine =
      std::vector<std::map<IngredientId, uint32_t>>(kNumCuisines);
  std::map<IngredientId, uint32_t> world;
};

BruteCounts CountByScan(const RecipeCorpus& corpus) {
  BruteCounts counts;
  for (uint32_t r = 0; r < corpus.num_recipes(); ++r) {
    for (IngredientId id : corpus.ingredients_of(r)) {
      ++counts.cuisine[corpus.cuisine_of(r)][id];
      ++counts.world[id];
    }
  }
  return counts;
}

/// `counts` dense over the corpus universe [0, UniqueIngredients().back()
/// + 1), the shape of RecipeCorpus::presence.
std::vector<uint32_t> Dense(const RecipeCorpus& corpus,
                            const std::map<IngredientId, uint32_t>& counts) {
  const std::span<const IngredientId> unique = corpus.UniqueIngredients();
  std::vector<uint32_t> dense(unique.empty() ? 0 : unique.back() + 1u, 0);
  for (const auto& [id, count] : counts) dense[id] = count;
  return dense;
}

std::vector<uint32_t> AsVector(std::span<const uint32_t> counts) {
  return std::vector<uint32_t>(counts.begin(), counts.end());
}

/// A posting list's base segment followed by its tail segment.
std::vector<uint32_t> Flatten(QueryIndex::PostingList list) {
  std::vector<uint32_t> flat(list.base.begin(), list.base.end());
  flat.insert(flat.end(), list.tail.begin(), list.tail.end());
  return flat;
}

/// The first `n` recipes of `corpus`, rebuilt by a Builder.
RecipeCorpus Prefix(const RecipeCorpus& corpus, uint32_t n) {
  RecipeCorpus::Builder builder;
  for (uint32_t r = 0; r < n; ++r) {
    EXPECT_TRUE(builder.Add(corpus.cuisine_of(r), corpus.ingredients_of(r))
                    .ok());
  }
  return builder.Build();
}

/// Checks every table of `index`, an index of `corpus`, against the batch
/// entry points and brute-force references, for every cuisine.
void ExpectTablesMatchReferences(const RecipeCorpus& corpus,
                                 const QueryIndex& index) {
  const BruteCounts brute = CountByScan(corpus);
  const double n_world = static_cast<double>(corpus.num_recipes());
  EXPECT_EQ(AsVector(corpus.presence()), Dense(corpus, brute.world));

  for (int c = 0; c < kNumCuisines; ++c) {
    SCOPED_TRACE("cuisine " + std::to_string(c));
    const CuisineId cuisine = static_cast<CuisineId>(c);
    const std::map<IngredientId, uint32_t>& used = brute.cuisine[c];
    const double n_cuisine =
        static_cast<double>(corpus.num_recipes_in(cuisine));
    EXPECT_EQ(AsVector(corpus.presence(cuisine)), Dense(corpus, used));

    // Overrepresentation: the batch table, and Eq. 1 from the scan.
    const std::vector<OverrepresentationScore> batch =
        ComputeOverrepresentation(corpus, cuisine);
    const std::span<const OverrepresentationScore> overrep =
        index.Overrepresentation(cuisine);
    ASSERT_EQ(overrep.size(), batch.size());
    ASSERT_EQ(overrep.size(), used.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(overrep[i].ingredient, batch[i].ingredient);
      EXPECT_EQ(overrep[i].score, batch[i].score);
      EXPECT_EQ(overrep[i].cuisine_fraction, batch[i].cuisine_fraction);
      EXPECT_EQ(overrep[i].world_fraction, batch[i].world_fraction);
      const IngredientId id = overrep[i].ingredient;
      ASSERT_TRUE(used.count(id));
      EXPECT_EQ(overrep[i].cuisine_fraction, used.at(id) / n_cuisine);
      EXPECT_EQ(overrep[i].world_fraction, brute.world.at(id) / n_world);
    }

    // Profiles: the batch builder, and the scan's fractions.
    const CuisineUsageProfile expected = BuildUsageProfile(corpus, cuisine);
    const CuisineUsageProfile& profile = index.profiles().profile(cuisine);
    EXPECT_EQ(profile.ingredients, expected.ingredients);
    EXPECT_EQ(profile.fractions, expected.fractions);
    EXPECT_EQ(profile.norm, expected.norm);
    ASSERT_EQ(profile.ingredients.size(), used.size());
    size_t slot = 0;
    for (const auto& [id, count] : used) {
      EXPECT_EQ(profile.ingredients[slot], id);
      EXPECT_EQ(profile.fractions[slot], count / n_cuisine);
      ++slot;
    }

    // Usage and rank: a sort of the scan's counts, descending fraction
    // then ascending id.
    std::vector<std::pair<double, IngredientId>> by_usage;
    for (const auto& [id, count] : used) {
      by_usage.emplace_back(count / n_cuisine, id);
    }
    std::sort(by_usage.begin(), by_usage.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });
    const std::span<const IngredientId> ranked =
        index.RankedIngredients(cuisine);
    ASSERT_EQ(ranked.size(), by_usage.size());
    for (size_t pos = 0; pos < by_usage.size(); ++pos) {
      const IngredientId id = by_usage[pos].second;
      EXPECT_EQ(ranked[pos], id);
      const std::optional<QueryIndex::UsageRank> usage =
          index.Usage(cuisine, id);
      ASSERT_TRUE(usage.has_value());
      EXPECT_EQ(usage->count, used.at(id));
      EXPECT_EQ(usage->fraction, by_usage[pos].first);
      EXPECT_EQ(usage->rank, pos + 1);
    }
    for (const auto& [id, count] : brute.world) {
      if (!used.count(id)) {
        EXPECT_FALSE(index.Usage(cuisine, id).has_value()) << "id " << id;
      }
    }

    // Nearest: every k is a prefix of the batch order, bit for bit.
    for (size_t k : {size_t{1}, size_t{3}, size_t{kNumCuisines},
                     size_t{1000}}) {
      const std::vector<CuisineNeighbor> want =
          NearestCuisines(corpus, cuisine, k);
      const std::span<const CuisineNeighbor> got = index.Nearest(cuisine, k);
      ASSERT_EQ(got.size(), want.size()) << "k=" << k;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].cuisine, want[i].cuisine);
        EXPECT_EQ(got[i].distance, want[i].distance);
      }
    }
  }

  // Postings: a recipe scan per id, over the universe and past its end
  // (up to the last representable id).
  const std::span<const IngredientId> unique = corpus.UniqueIngredients();
  const size_t universe = unique.empty() ? 0 : unique.back() + 1u;
  const size_t end = std::min<size_t>(universe + 2, kInvalidIngredient + 1u);
  for (size_t id = 0; id < end; ++id) {
    std::vector<uint32_t> want;
    for (uint32_t r = 0; r < corpus.num_recipes(); ++r) {
      const std::span<const IngredientId> ids = corpus.ingredients_of(r);
      if (std::binary_search(ids.begin(), ids.end(), id)) want.push_back(r);
    }
    EXPECT_EQ(Flatten(index.Postings(static_cast<IngredientId>(id))), want)
        << "id " << id;
  }

  // Search: one- and two-id queries over ids spread across the universe,
  // in the whole corpus and in each cuisine, against a recipe scan,
  // uncapped and with a limit of 2.
  std::vector<IngredientId> picks;
  const size_t stride = std::max<size_t>(1, unique.size() / 10);
  for (size_t i = 0; i < unique.size(); i += stride) {
    picks.push_back(unique[i]);
  }
  for (size_t i = 0; i < picks.size(); ++i) {
    for (size_t j = i; j < picks.size(); ++j) {
      std::vector<IngredientId> query = {picks[i]};
      if (j > i) query.push_back(picks[j]);
      for (int c = -1; c < kNumCuisines; ++c) {
        const std::optional<CuisineId> cuisine =
            c < 0 ? std::nullopt
                  : std::optional<CuisineId>(static_cast<CuisineId>(c));
        std::vector<uint32_t> want;
        for (uint32_t r = 0; r < corpus.num_recipes(); ++r) {
          if (cuisine.has_value() && corpus.cuisine_of(r) != *cuisine) continue;
          if (std::ranges::includes(corpus.ingredients_of(r), query)) {
            want.push_back(r);
          }
        }
        EXPECT_EQ(index.SearchRecipes(query, cuisine, SIZE_MAX), want)
            << "ids " << picks[i] << "," << picks[j] << " cuisine " << c;
        if (want.size() > 2) want.erase(want.begin() + 2, want.end());
        EXPECT_EQ(index.SearchRecipes(query, cuisine, 2), want)
            << "ids " << picks[i] << "," << picks[j] << " cuisine " << c;
      }
    }
  }
}

/// Checks QueryIndex::Build(corpus), and Extend() of the index of the
/// corpus's first none, half and all of its recipes: a tail over every
/// recipe, over the second half and over none.
void ExpectIndexMatchesReferences(const RecipeCorpus& corpus) {
  {
    SCOPED_TRACE("Build");
    ExpectTablesMatchReferences(corpus, QueryIndex::Build(corpus));
  }
  const uint32_t n = static_cast<uint32_t>(corpus.num_recipes());
  for (const uint32_t base_n : {0u, n / 2, n}) {
    SCOPED_TRACE("Extend over a base of " + std::to_string(base_n) +
                 " recipes");
    const QueryIndex base = QueryIndex::Build(Prefix(corpus, base_n));
    EXPECT_EQ(base.tail_recipes(), 0u);
    const QueryIndex extended = QueryIndex::Extend(base, corpus);
    EXPECT_EQ(extended.tail_recipes(), n - base_n);
    ExpectTablesMatchReferences(corpus, extended);
  }
}

/// Deterministic recipes over ids [0, 40) in every cuisine but `skip`.
RecipeCorpus EveryCuisineBut(CuisineId skip) {
  RecipeCorpus::Builder builder;
  uint32_t state = 12345;
  const auto next = [&state](uint32_t bound) {
    state = state * 1103515245u + 12345u;
    return (state >> 16) % bound;
  };
  for (int c = 0; c < kNumCuisines; ++c) {
    if (c == skip) continue;
    for (int r = 0; r < 6 + c % 4; ++r) {
      std::vector<IngredientId> ids;
      for (uint32_t n = 1 + next(5); n > 0; --n) {
        ids.push_back(static_cast<IngredientId>(next(40)));
      }
      EXPECT_TRUE(builder.Add(static_cast<CuisineId>(c), ids).ok());
    }
  }
  return builder.Build();
}

TEST(QueryIndexTest, EmptyCorpus) {
  const RecipeCorpus corpus = RecipeCorpus::Builder().Build();
  ExpectIndexMatchesReferences(corpus);
  const QueryIndex index = QueryIndex::Build(corpus);
  EXPECT_TRUE(index.Postings(0).empty());
  EXPECT_TRUE(index.Nearest(0, 5).empty());
}

TEST(QueryIndexTest, SingleRecipe) {
  RecipeCorpus::Builder builder;
  ASSERT_TRUE(builder.Add(3, {4, 9, 2}).ok());
  ExpectIndexMatchesReferences(builder.Build());
}

TEST(QueryIndexTest, OneCuisineEmpty) {
  const RecipeCorpus corpus = EveryCuisineBut(7);
  ASSERT_EQ(corpus.num_recipes_in(7), 0u);
  ExpectIndexMatchesReferences(corpus);
  // The empty cuisine is nobody's neighbour.
  const QueryIndex index = QueryIndex::Build(corpus);
  for (int c = 0; c < kNumCuisines; ++c) {
    for (const CuisineNeighbor& n :
         index.Nearest(static_cast<CuisineId>(c), kNumCuisines)) {
      EXPECT_NE(n.cuisine, 7);
    }
  }
}

// Id 0 and the highest valid id: the universe spans the whole id space,
// almost all of it gaps.
TEST(QueryIndexTest, SparseIdUniverse) {
  const IngredientId high = kInvalidIngredient - 1;
  RecipeCorpus::Builder builder;
  ASSERT_TRUE(builder.Add(0, {0, high}).ok());
  ASSERT_TRUE(builder.Add(0, {0}).ok());
  ASSERT_TRUE(builder.Add(1, {high}).ok());
  ASSERT_TRUE(builder.Add(2, {0, 500, high}).ok());
  const RecipeCorpus corpus = builder.Build();
  ExpectIndexMatchesReferences(corpus);
  const QueryIndex index = QueryIndex::Build(corpus);
  EXPECT_EQ(index.Postings(high).size(), 3u);
  EXPECT_EQ(index.Postings(0).size(), 3u);
  EXPECT_TRUE(index.Postings(1).empty());
}

/// EveryCuisineBut(7) extended by four recipes: three in the previously
/// empty cuisine, and ids past the old universe [0, 40).
RecipeCorpus ExtendedCorpus() {
  IncrementalCorpus incremental =
      IncrementalCorpus::FromCorpus(EveryCuisineBut(7));
  const std::vector<std::vector<IngredientId>> added = {
      {1, 2, 3}, {2, 40, 41}, {41, 90}};
  for (const std::vector<IngredientId>& ids : added) {
    EXPECT_TRUE(incremental.Add(7, ids).ok());
  }
  EXPECT_TRUE(incremental.Add(0, std::vector<IngredientId>{90, 5}).ok());
  Result<RecipeCorpus> extended = incremental.Materialize();
  EXPECT_TRUE(extended.ok()) << extended.status();
  return extended.ok() ? std::move(*extended) : RecipeCorpus();
}

TEST(QueryIndexTest, CorpusExtendedIncrementally) {
  const RecipeCorpus extended = ExtendedCorpus();
  ASSERT_EQ(extended.num_recipes_in(7), 3u);
  ExpectIndexMatchesReferences(extended);
  // The tail over exactly the appended recipes, as a delta reload places
  // it: the universe widens from 40 ids to 91.
  const RecipeCorpus base_corpus = EveryCuisineBut(7);
  const QueryIndex base = QueryIndex::Build(base_corpus);
  const QueryIndex next = QueryIndex::Extend(base, extended);
  EXPECT_EQ(next.tail_recipes(), 4u);
  ExpectTablesMatchReferences(extended, next);
  EXPECT_TRUE(next.Postings(90).base.empty());
  EXPECT_EQ(next.Postings(90).tail.size(), 2u);
}

// A second delta extends the first one's index: the tail grows to every
// recipe past the first base, and the base is shared, not placed again.
TEST(QueryIndexTest, ExtensionOfAnExtensionKeepsTheFirstBase) {
  const RecipeCorpus extended = ExtendedCorpus();
  const uint32_t base_n = static_cast<uint32_t>(extended.num_recipes()) - 4;
  const QueryIndex base = QueryIndex::Build(Prefix(extended, base_n));
  const QueryIndex once =
      QueryIndex::Extend(base, Prefix(extended, base_n + 2));
  const QueryIndex twice = QueryIndex::Extend(once, extended);
  EXPECT_EQ(once.tail_recipes(), 2u);
  EXPECT_EQ(twice.tail_recipes(), 4u);
  ExpectTablesMatchReferences(extended, twice);
  size_t shared_lists = 0;
  for (IngredientId id = 0; id < 40; ++id) {
    const QueryIndex::PostingSegment first = base.Postings(id).base;
    if (first.empty()) continue;
    // Iterators compare by the stored offset they point at.
    EXPECT_TRUE(once.Postings(id).base.begin() == first.begin())
        << "id " << id;
    EXPECT_TRUE(twice.Postings(id).base.begin() == first.begin())
        << "id " << id;
    ++shared_lists;
  }
  EXPECT_GT(shared_lists, 0u);
}

TEST(QueryIndexTest, RecordsPerTableBuildTimers) {
  QueryIndex::Build(EveryCuisineBut(7));
  const obs::MetricsSnapshot metrics =
      obs::MetricsRegistry::Get().Snapshot();
  for (const char* name :
       {"serve.index.build_ms",
        "serve.index.overrep_ms", "serve.index.profiles_ms",
        "serve.index.postings_ms", "serve.index.ranks_ms"}) {
    ASSERT_TRUE(metrics.histograms.count(name)) << name;
    EXPECT_GE(metrics.histograms.at(name).count, 1) << name;
  }
}

/// Checks that two indexes of `corpus` hold the same tables, bit for bit.
void ExpectSameIndex(const RecipeCorpus& corpus, const QueryIndex& one,
                     const QueryIndex& all) {
  const std::span<const IngredientId> unique = corpus.UniqueIngredients();
  const size_t universe = unique.back() + 1u;
  for (size_t id = 0; id < universe + 2; ++id) {
    const std::vector<uint32_t> a =
        Flatten(one.Postings(static_cast<IngredientId>(id)));
    const std::vector<uint32_t> b =
        Flatten(all.Postings(static_cast<IngredientId>(id)));
    ASSERT_EQ(a, b) << "id " << id;
    ASSERT_TRUE(std::is_sorted(b.begin(), b.end())) << "id " << id;
    ASSERT_EQ(b.size(), id < universe ? corpus.presence()[id] : 0u);
  }
  for (int c = 0; c < kNumCuisines; ++c) {
    SCOPED_TRACE("cuisine " + std::to_string(c));
    const CuisineId cuisine = static_cast<CuisineId>(c);
    const std::span<const OverrepresentationScore> a =
        one.Overrepresentation(cuisine);
    const std::span<const OverrepresentationScore> b =
        all.Overrepresentation(cuisine);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].ingredient, b[i].ingredient);
      EXPECT_EQ(a[i].score, b[i].score);
      EXPECT_EQ(a[i].cuisine_fraction, b[i].cuisine_fraction);
      EXPECT_EQ(a[i].world_fraction, b[i].world_fraction);
    }
    const std::span<const CuisineNeighbor> near_a =
        one.Nearest(cuisine, kNumCuisines);
    const std::span<const CuisineNeighbor> near_b =
        all.Nearest(cuisine, kNumCuisines);
    ASSERT_EQ(near_a.size(), near_b.size());
    for (size_t i = 0; i < near_a.size(); ++i) {
      EXPECT_EQ(near_a[i].cuisine, near_b[i].cuisine);
      EXPECT_EQ(near_a[i].distance, near_b[i].distance);
    }
    EXPECT_TRUE(std::ranges::equal(one.RankedIngredients(cuisine),
                                   all.RankedIngredients(cuisine)));
    for (IngredientId id : corpus.UniqueIngredients(cuisine)) {
      const std::optional<QueryIndex::UsageRank> a_usage =
          one.Usage(cuisine, id);
      const std::optional<QueryIndex::UsageRank> b_usage =
          all.Usage(cuisine, id);
      ASSERT_TRUE(a_usage.has_value() && b_usage.has_value()) << id;
      EXPECT_EQ(a_usage->count, b_usage->count);
      EXPECT_EQ(a_usage->fraction, b_usage->fraction);
      EXPECT_EQ(a_usage->rank, b_usage->rank);
    }
  }
}

// Postings are placed by recipe range on the CPUs the process may use;
// every table must come out bit for bit as on one CPU, and as in an
// extension whose tail over the last 1% of the recipes is placed on the
// calling thread, which runs no task of a parallel loop.
TEST(QueryIndexTest, ParallelBuildMatchesOneCpuBuild) {
  if (UsableCpus() < 2) GTEST_SKIP() << "this process may use one CPU";
  const Result<RecipeCorpus> world = SynthesizeWorldCorpus(WorldLexicon());
  ASSERT_TRUE(world.ok()) << world.status();
  ASSERT_GE(ThreadsFor(world->num_recipes(), kRecipesPerThread), 2u);
  const obs::Histogram* task_ms =
      obs::MetricsRegistry::Get().histogram("threadpool.task_ms");
  const auto tasks = [task_ms] { return task_ms->Snapshot().count; };
  const QueryIndex one = [&] {
    const OneCpuScope pin;
    EXPECT_EQ(UsableCpus(), 1u);
    return QueryIndex::Build(*world);
  }();
  const int64_t before_all = tasks();
  const QueryIndex all = QueryIndex::Build(*world);
  EXPECT_GT(tasks(), before_all);
  const uint32_t n = static_cast<uint32_t>(world->num_recipes());
  const QueryIndex base = QueryIndex::Build(Prefix(*world, n - n / 100));
  const int64_t before_tail = tasks();
  const QueryIndex extended = QueryIndex::Extend(base, *world);
  EXPECT_EQ(tasks(), before_tail);
  EXPECT_EQ(extended.tail_recipes(), n / 100);
  {
    SCOPED_TRACE("one CPU");
    ExpectSameIndex(*world, one, all);
  }
  {
    SCOPED_TRACE("tail");
    ExpectSameIndex(*world, extended, all);
  }
}

/// Each id's posting list, from one pass over the recipes of `corpus`.
std::vector<std::vector<uint32_t>> PostingsByScan(const RecipeCorpus& corpus) {
  const std::span<const IngredientId> unique = corpus.UniqueIngredients();
  std::vector<std::vector<uint32_t>> lists(
      unique.empty() ? 0 : unique.back() + 1u);
  for (uint32_t r = 0; r < corpus.num_recipes(); ++r) {
    for (IngredientId id : corpus.ingredients_of(r)) lists[id].push_back(r);
  }
  return lists;
}

/// Checks every posting list of `index`, an index of `corpus`, against
/// `want` (PostingsByScan), and one- and two-id searches over ids of every
/// frequency, in the whole corpus and in every eighth cuisine, uncapped
/// and cut halfway through their hits, against intersections of `want`.
void ExpectPostingsMatch(const RecipeCorpus& corpus,
                         const std::vector<std::vector<uint32_t>>& want,
                         const QueryIndex& index) {
  for (size_t id = 0; id < want.size() + 2; ++id) {
    const std::vector<uint32_t> got =
        Flatten(index.Postings(static_cast<IngredientId>(id)));
    if (id < want.size()) {
      EXPECT_EQ(got, want[id]) << "id " << id;
    } else {
      EXPECT_TRUE(got.empty()) << "id " << id;
    }
  }
  // Ids from the most used to the least, at ranks 0, 1, 5, 21, ...
  std::vector<IngredientId> by_use(corpus.UniqueIngredients().begin(),
                                   corpus.UniqueIngredients().end());
  std::stable_sort(by_use.begin(), by_use.end(),
                   [&want](IngredientId a, IngredientId b) {
                     return want[a].size() > want[b].size();
                   });
  std::vector<IngredientId> picks;
  for (size_t rank = 0; rank < by_use.size(); rank = 4 * rank + 1) {
    picks.push_back(by_use[rank]);
  }
  picks.push_back(by_use.back());
  for (size_t i = 0; i < picks.size(); ++i) {
    for (size_t j = i; j < picks.size(); ++j) {
      std::vector<IngredientId> query = {picks[i]};
      std::vector<uint32_t> hits = want[picks[i]];
      if (j > i) {
        query.push_back(picks[j]);
        std::vector<uint32_t> both;
        std::ranges::set_intersection(hits, want[picks[j]],
                                      std::back_inserter(both));
        hits = std::move(both);
      }
      std::sort(query.begin(), query.end());
      for (int c = -1; c < kNumCuisines; c += c < 0 ? 1 : 8) {
        const std::optional<CuisineId> cuisine =
            c < 0 ? std::nullopt
                  : std::optional<CuisineId>(static_cast<CuisineId>(c));
        std::vector<uint32_t> in_cuisine;
        for (const uint32_t r : hits) {
          if (!cuisine.has_value() || corpus.cuisine_of(r) == *cuisine) {
            in_cuisine.push_back(r);
          }
        }
        EXPECT_EQ(index.SearchRecipes(query, cuisine, SIZE_MAX), in_cuisine)
            << "ids " << picks[i] << "," << picks[j] << " cuisine " << c;
        const size_t limit = std::max<size_t>(1, in_cuisine.size() / 2);
        in_cuisine.resize(std::min(limit, in_cuisine.size()));
        EXPECT_EQ(index.SearchRecipes(query, cuisine, limit), in_cuisine)
            << "ids " << picks[i] << "," << picks[j] << " cuisine " << c
            << " limit " << limit;
      }
    }
  }
}

// The scale-1.0 world spans three chunks. Its postings and searches must
// match a scan of its recipes for a Build, and for an Extend whose tail
// starts inside a chunk and crosses a chunk boundary (a base of 30,000
// recipes), whose base ends on a chunk boundary (65,536) and whose base
// spans two chunks (100,000).
TEST(QueryIndexTest, PostingsAcrossChunkBoundaries) {
  const Result<RecipeCorpus> world = SynthesizeWorldCorpus(WorldLexicon());
  ASSERT_TRUE(world.ok()) << world.status();
  const uint32_t n = static_cast<uint32_t>(world->num_recipes());
  ASSERT_GT(n, 2 * QueryIndex::kChunkRecipes);
  const std::vector<std::vector<uint32_t>> want = PostingsByScan(*world);
  {
    SCOPED_TRACE("Build");
    ExpectPostingsMatch(*world, want, QueryIndex::Build(*world));
  }
  for (const uint32_t base_n : {30000u, QueryIndex::kChunkRecipes, 100000u}) {
    SCOPED_TRACE("Extend over a base of " + std::to_string(base_n) +
                 " recipes");
    const QueryIndex base = QueryIndex::Build(Prefix(*world, base_n));
    const QueryIndex extended = QueryIndex::Extend(base, *world);
    ASSERT_EQ(extended.tail_recipes(), n - base_n);
    ExpectPostingsMatch(*world, want, extended);
  }
}

}  // namespace
}  // namespace culevo
