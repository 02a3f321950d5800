#include "service/query_index.h"

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/overrepresentation.h"
#include "analysis/similarity.h"
#include "corpus/ingestion.h"
#include "obs/metrics.h"

namespace culevo {
namespace {

/// Recipe-presence counts by direct recipe scan, independent of
/// PresenceCounts: counts[c][id] and the world totals.
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

/// Checks every table of QueryIndex::Build(corpus) against the batch
/// entry points and brute-force references, for every cuisine.
void ExpectIndexMatchesReferences(const RecipeCorpus& corpus) {
  const QueryIndex index = QueryIndex::Build(corpus);
  const BruteCounts brute = CountByScan(corpus);
  const double n_world = static_cast<double>(corpus.num_recipes());

  for (int c = 0; c < kNumCuisines; ++c) {
    SCOPED_TRACE("cuisine " + std::to_string(c));
    const CuisineId cuisine = static_cast<CuisineId>(c);
    const std::map<IngredientId, uint32_t>& used = brute.cuisine[c];
    const double n_cuisine =
        static_cast<double>(corpus.num_recipes_in(cuisine));

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
    const std::span<const uint32_t> got =
        index.Postings(static_cast<IngredientId>(id));
    EXPECT_EQ(std::vector<uint32_t>(got.begin(), got.end()), want)
        << "id " << id;
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

TEST(QueryIndexTest, CorpusExtendedIncrementally) {
  IncrementalCorpus incremental =
      IncrementalCorpus::FromCorpus(EveryCuisineBut(7));
  // New recipes in the previously empty cuisine, plus ids past the old
  // universe.
  const std::vector<std::vector<IngredientId>> added = {
      {1, 2, 3}, {2, 40, 41}, {41, 90}};
  for (const std::vector<IngredientId>& ids : added) {
    ASSERT_TRUE(incremental.Add(7, ids).ok());
  }
  ASSERT_TRUE(incremental.Add(0, std::vector<IngredientId>{90, 5}).ok());
  Result<RecipeCorpus> extended = incremental.Materialize();
  ASSERT_TRUE(extended.ok()) << extended.status();
  ASSERT_EQ(extended->num_recipes_in(7), 3u);
  ExpectIndexMatchesReferences(*extended);
}

TEST(QueryIndexTest, RecordsPerTableBuildTimers) {
  QueryIndex::Build(EveryCuisineBut(7));
  const obs::MetricsSnapshot metrics =
      obs::MetricsRegistry::Get().Snapshot();
  for (const char* name :
       {"serve.index.build_ms", "serve.index.counts_ms",
        "serve.index.overrep_ms", "serve.index.profiles_ms",
        "serve.index.postings_ms", "serve.index.ranks_ms"}) {
    ASSERT_TRUE(metrics.histograms.count(name)) << name;
    EXPECT_GE(metrics.histograms.at(name).count, 1) << name;
  }
}

}  // namespace
}  // namespace culevo
