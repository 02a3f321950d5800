#include "core/copy_mutate.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/distributions.h"
#include "util/hash.h"
#include "util/rng.h"

namespace culevo {

const char* ReplacementPolicyName(ReplacementPolicy policy) {
  switch (policy) {
    case ReplacementPolicy::kRandom:
      return "CM-R";
    case ReplacementPolicy::kSameCategory:
      return "CM-C";
    case ReplacementPolicy::kMixture:
      return "CM-M";
  }
  return "CM-?";
}

CopyMutateModel::CopyMutateModel(const Lexicon* lexicon, ModelParams params)
    : lexicon_(lexicon), params_(params) {
  CULEVO_CHECK(lexicon_ != nullptr);
  CULEVO_CHECK(params_.initial_pool > 0);
  CULEVO_CHECK(params_.mutations >= 0);
  CULEVO_CHECK(params_.mixture_cross_prob >= 0.0 &&
               params_.mixture_cross_prob <= 1.0);
}

std::string CopyMutateModel::name() const {
  return ReplacementPolicyName(params_.policy);
}

uint64_t CopyMutateModel::ConfigFingerprint() const {
  uint64_t hash = EvolutionModel::ConfigFingerprint();
  hash = HashCombine(hash, static_cast<uint64_t>(params_.policy));
  hash = HashCombine(hash, static_cast<uint64_t>(params_.initial_pool));
  hash = HashCombine(hash, static_cast<uint64_t>(params_.mutations));
  hash = HashCombine(hash, std::bit_cast<uint64_t>(params_.mixture_cross_prob));
  hash = HashCombine(hash, std::bit_cast<uint64_t>(params_.insert_prob));
  hash = HashCombine(hash, std::bit_cast<uint64_t>(params_.delete_prob));
  // The size envelope and a 0 fill the slots that once held the
  // settable size bounds and the fitness kind (uniform was 0), which keeps
  // the value every existing run manifest carries.
  hash = HashCombine(hash, static_cast<uint64_t>(kMinRecipeSize));
  hash = HashCombine(hash, static_cast<uint64_t>(kMaxRecipeSize));
  hash = HashCombine(hash, uint64_t{0});
  return hash;
}

namespace {

/// Call-local generation statistics, flushed to the metrics registry once
/// per GenerateInto call (per-event registry traffic would dominate the loop).
struct GenStats {
  uint64_t recipes = 0;
  uint64_t items = 0;
  uint64_t mutations_accepted = 0;
  uint64_t mutations_rejected = 0;
  uint64_t pool_growths = 0;
  uint64_t inserts = 0;
  uint64_t deletes = 0;

  void Flush() const {
    static obs::Counter* recipes_c =
        obs::MetricsRegistry::Get().counter("sim.generate.recipes");
    static obs::Counter* items_c =
        obs::MetricsRegistry::Get().counter("sim.generate.items");
    static obs::Counter* accepted_c = obs::MetricsRegistry::Get().counter(
        "sim.generate.mutations.accepted");
    static obs::Counter* rejected_c = obs::MetricsRegistry::Get().counter(
        "sim.generate.mutations.rejected");
    static obs::Counter* growths_c =
        obs::MetricsRegistry::Get().counter("sim.generate.pool_growths");
    static obs::Counter* inserts_c =
        obs::MetricsRegistry::Get().counter("sim.generate.inserts");
    static obs::Counter* deletes_c =
        obs::MetricsRegistry::Get().counter("sim.generate.deletes");
    recipes_c->Increment(static_cast<int64_t>(recipes));
    items_c->Increment(static_cast<int64_t>(items));
    accepted_c->Increment(static_cast<int64_t>(mutations_accepted));
    rejected_c->Increment(static_cast<int64_t>(mutations_rejected));
    growths_c->Increment(static_cast<int64_t>(pool_growths));
    inserts_c->Increment(static_cast<int64_t>(inserts));
    deletes_c->Increment(static_cast<int64_t>(deletes));
  }
};

/// Mutable per-replica state of Algorithm 1's ingredient pool I0, with a
/// per-category view for the CM-C / CM-M replacement draws. All storage is
/// flat and sized up front: the category index is one `total`-sized array
/// partitioned by precomputed per-category bases, maintained incrementally
/// as members join (members never leave the pool), so a Push is two array
/// writes and a SampleSameCategory is one bounded draw into a slice.
class IngredientPool {
 public:
  IngredientPool(const CuisineContext& context, const Lexicon& lexicon) {
    const size_t total = context.ingredients.size();
    category_of_.resize(total);
    std::array<uint32_t, kNumCategories> counts{};
    for (size_t p = 0; p < total; ++p) {
      const auto c =
          static_cast<uint8_t>(lexicon.category(context.ingredients[p]));
      category_of_[p] = c;
      ++counts[c];
    }
    uint32_t base = 0;
    for (int c = 0; c < kNumCategories; ++c) {
      cat_base_[c] = base;
      cat_fill_[c] = 0;
      base += counts[static_cast<size_t>(c)];
    }
    cat_members_.resize(total);
    members_.reserve(total);
  }

  /// Initializes I0 with `m` random ingredients; the rest stay in the
  /// reserve (Algorithm 1 line 5: I <- I - I0). `scratch`/`sample_buf` are
  /// reusable workspaces.
  void Init(int m, Rng* rng, SampleScratch* scratch,
            std::vector<uint32_t>* sample_buf) {
    const auto total = static_cast<uint32_t>(category_of_.size());
    const uint32_t m0 = std::min<uint32_t>(static_cast<uint32_t>(m), total);
    sample_buf->clear();
    SampleWithoutReplacementInto(rng, total, m0, scratch, sample_buf);
    for (uint32_t pick : *sample_buf) {
      Push(pick);
      scratch->Set(pick);
    }
    reserve_.reserve(total - m0);
    for (uint32_t p = 0; p < total; ++p) {
      if (!scratch->Test(p)) reserve_.push_back(p);
    }
    for (uint32_t pick : *sample_buf) scratch->Clear(pick);
  }

  size_t size() const { return members_.size(); }
  bool reserve_empty() const { return reserve_.empty(); }

  /// Moves one random unused ingredient into the pool (lines 20-25).
  void GrowFromReserve(Rng* rng) {
    CULEVO_DCHECK(!reserve_.empty());
    const size_t k = rng->NextBounded(reserve_.size());
    const PoolPos pos = reserve_[k];
    reserve_[k] = reserve_.back();
    reserve_.pop_back();
    Push(pos);
  }

  PoolPos SampleUniform(Rng* rng) const {
    return members_[rng->NextBounded(members_.size())];
  }

  /// Uniform draw from the pool members sharing `i`'s category; falls back
  /// to the whole pool if the category is not represented (cannot happen
  /// for an `i` that itself came from the pool, but keeps the API total).
  PoolPos SampleSameCategory(Rng* rng, PoolPos i) const {
    const int c = category_of_[i];
    const uint32_t fill = cat_fill_[c];
    if (fill == 0) return SampleUniform(rng);
    return cat_members_[cat_base_[c] + rng->NextBounded(fill)];
  }

  const std::vector<PoolPos>& members() const { return members_; }

 private:
  void Push(PoolPos pos) {
    members_.push_back(pos);
    const int c = category_of_[pos];
    cat_members_[cat_base_[c] + cat_fill_[c]++] = pos;
  }

  std::vector<uint8_t> category_of_;
  std::vector<PoolPos> members_;
  std::vector<PoolPos> reserve_;
  std::vector<PoolPos> cat_members_;
  std::array<uint32_t, kNumCategories> cat_base_{};
  std::array<uint32_t, kNumCategories> cat_fill_{};
};

/// Appends a fresh recipe of `size` distinct pool members to the store.
void SampleRecipeFromPool(const IngredientPool& pool, int size, Rng* rng,
                          SampleScratch* scratch,
                          std::vector<uint32_t>* sample_buf,
                          RecipeStore* store) {
  const std::vector<PoolPos>& members = pool.members();
  const uint32_t k = std::min<uint32_t>(
      static_cast<uint32_t>(size), static_cast<uint32_t>(members.size()));
  sample_buf->clear();
  SampleWithoutReplacementInto(
      rng, static_cast<uint32_t>(members.size()), k, scratch, sample_buf);
  store->BeginRecipe();
  for (uint32_t idx : *sample_buf) store->AppendToOpen(members[idx]);
  store->Commit();
}

/// The initial recipe pool: n0 = m/φ recipes of s̄ pool ingredients each.
size_t InitialRecipeCount(const CuisineContext& context, size_t pool_size) {
  return std::min(
      context.target_recipes,
      std::max<size_t>(1, static_cast<size_t>(std::lround(
                              static_cast<double>(pool_size) /
                              context.phi))));
}

}  // namespace

Status CopyMutateModel::GenerateInto(const CuisineContext& context,
                                     uint64_t seed,
                                     RecipeStore* store) const {
  CULEVO_RETURN_IF_ERROR(ValidateCuisineContext(context));

  Rng rng(seed);
  // Step 1: one U(0,1) fitness per cuisine ingredient, by pool position.
  std::vector<double> fitness(context.ingredients.size());
  for (double& f : fitness) f = rng.NextDouble();

  IngredientPool pool(context, *lexicon_);
  SampleScratch scratch;
  std::vector<uint32_t> sample_buf;
  pool.Init(params_.initial_pool, &rng, &scratch, &sample_buf);

  store->Reset(context.target_recipes,
               context.target_recipes *
                   static_cast<size_t>(context.mean_recipe_size));
  GenStats stats;

  const size_t n0 = InitialRecipeCount(context, pool.size());
  for (size_t i = 0; i < n0; ++i) {
    SampleRecipeFromPool(pool, context.mean_recipe_size, &rng, &scratch,
                         &sample_buf, store);
  }

  // `in_recipe` mirrors the membership of the currently open recipe — the
  // O(1) replacement for the seed engine's linear Contains scan. Bits are
  // set while a copy is being mutated and cleared at commit, so the mask
  // is all-zero between recipes.
  SampleScratch in_recipe;
  in_recipe.Reserve(static_cast<uint32_t>(context.ingredients.size()));

  while (store->num_recipes() < context.target_recipes) {
    const double ratio = static_cast<double>(pool.size()) /
                         static_cast<double>(store->num_recipes());
    if (ratio >= context.phi || pool.reserve_empty()) {
      // Copy a mother recipe and apply M fitness-gated point mutations.
      store->BeginRecipeFrom(rng.NextBounded(store->num_recipes()));
      std::span<PoolPos> recipe = store->open();
      for (PoolPos pos : recipe) in_recipe.Set(pos);
      for (int g = 0; g < params_.mutations; ++g) {
        const size_t slot = rng.NextBounded(recipe.size());
        const PoolPos i = recipe[slot];
        PoolPos j = i;
        switch (params_.policy) {
          case ReplacementPolicy::kRandom:
            j = pool.SampleUniform(&rng);
            break;
          case ReplacementPolicy::kSameCategory:
            j = pool.SampleSameCategory(&rng, i);
            break;
          case ReplacementPolicy::kMixture:
            j = rng.NextBool(params_.mixture_cross_prob)
                    ? pool.SampleUniform(&rng)
                    : pool.SampleSameCategory(&rng, i);
            break;
        }
        if (fitness[j] > fitness[i] && !in_recipe.Test(j)) {
          recipe[slot] = j;
          in_recipe.Clear(i);
          in_recipe.Set(j);
          ++stats.mutations_accepted;
        } else {
          ++stats.mutations_rejected;
        }
      }
      // §VII extension: variable recipe sizes (no-ops with the paper's
      // default probabilities of zero).
      if (static_cast<int>(store->open_size()) < kMaxRecipeSize &&
          rng.NextBool(params_.insert_prob)) {
        const PoolPos extra = pool.SampleUniform(&rng);
        if (!in_recipe.Test(extra)) {
          store->AppendToOpen(extra);
          in_recipe.Set(extra);
          ++stats.inserts;
        }
      }
      if (static_cast<int>(store->open_size()) > kMinRecipeSize &&
          rng.NextBool(params_.delete_prob)) {
        const size_t victim = rng.NextBounded(store->open_size());
        in_recipe.Clear(store->open()[victim]);
        store->EraseFromOpen(victim);
        ++stats.deletes;
      }
      for (PoolPos pos : store->open()) in_recipe.Clear(pos);
      store->Commit();
    } else {
      pool.GrowFromReserve(&rng);
      ++stats.pool_growths;
    }
  }

  stats.recipes = store->num_recipes();
  stats.items = store->num_items();
  stats.Flush();
  return Status::Ok();
}

std::unique_ptr<CopyMutateModel> MakeCmR(const Lexicon* lexicon) {
  ModelParams params;
  params.policy = ReplacementPolicy::kRandom;
  params.mutations = 4;
  return std::make_unique<CopyMutateModel>(lexicon, params);
}

std::unique_ptr<CopyMutateModel> MakeCmC(const Lexicon* lexicon) {
  ModelParams params;
  params.policy = ReplacementPolicy::kSameCategory;
  params.mutations = 6;
  return std::make_unique<CopyMutateModel>(lexicon, params);
}

std::unique_ptr<CopyMutateModel> MakeCmM(const Lexicon* lexicon) {
  ModelParams params;
  params.policy = ReplacementPolicy::kMixture;
  params.mutations = 6;
  return std::make_unique<CopyMutateModel>(lexicon, params);
}

}  // namespace culevo
