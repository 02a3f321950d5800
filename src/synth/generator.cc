#include "synth/generator.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "util/check.h"
#include "util/distributions.h"
#include "util/rng.h"
#include "util/strings.h"

namespace culevo {
namespace {

/// Size of the primitive recipe pool each cuisine evolves from.
constexpr int kSeedPool = 24;
/// Per-ingredient probability of replacement when a recipe is copied.
constexpr double kMutationRate = 0.35;
/// Probability that a recipe is composed fresh from the preference
/// distribution instead of copied from the pool.
constexpr double kNoveltyRate = 0.08;
/// Probability that a copied recipe's size is resampled from the
/// truncated-normal size distribution (trimming or extending the copy).
/// Keeps per-cuisine size distributions Gaussian (Fig. 1) while
/// preserving inherited combination structure.
constexpr double kSizeResampleRate = 0.5;
/// Standard deviation of every cuisine's recipe-size distribution.
constexpr double kSizeStddev = 3.0;

/// Registry handles for the corpus-synthesis hot path, resolved once.
struct SynthMetrics {
  obs::Counter* recipes_generated;
  obs::Counter* recipes_fresh;
  obs::Counter* recipes_copied;
  obs::Counter* mutations_applied;
  obs::Histogram* cuisine_ms;
  obs::Histogram* world_ms;

  static const SynthMetrics& Get() {
    static const SynthMetrics metrics = {
        obs::MetricsRegistry::Get().counter("synth.recipes_generated"),
        obs::MetricsRegistry::Get().counter("synth.recipes_fresh"),
        obs::MetricsRegistry::Get().counter("synth.recipes_copied"),
        obs::MetricsRegistry::Get().counter("synth.mutations_applied"),
        obs::MetricsRegistry::Get().histogram("synth.cuisine_ms"),
        obs::MetricsRegistry::Get().histogram("synth.world_ms"),
    };
    return metrics;
  }
};

/// Per-cuisine sampling machinery derived from a CuisineProfile.
class ProfileSamplers {
 public:
  ProfileSamplers(const Lexicon& lexicon, const CuisineProfile& profile)
      : profile_(profile), global_(profile.preference) {
    category_positions_.resize(kNumCategories);
    for (size_t pos = 0; pos < profile.vocabulary.size(); ++pos) {
      const int cat =
          static_cast<int>(lexicon.category(profile.vocabulary[pos]));
      category_positions_[static_cast<size_t>(cat)].push_back(pos);
    }
    category_samplers_.reserve(kNumCategories);
    for (int cat = 0; cat < kNumCategories; ++cat) {
      const std::vector<size_t>& positions =
          category_positions_[static_cast<size_t>(cat)];
      if (positions.empty()) {
        category_samplers_.emplace_back();
        continue;
      }
      std::vector<double> weights;
      weights.reserve(positions.size());
      for (size_t pos : positions) {
        weights.push_back(profile.preference[pos]);
      }
      category_samplers_.emplace_back(DiscreteSampler(weights));
    }
  }

  /// Preference-weighted draw from the full vocabulary.
  IngredientId SampleGlobal(Rng* rng) const {
    return profile_.vocabulary[global_.Sample(rng)];
  }

  /// Preference-weighted draw restricted to `category`; falls back to the
  /// full vocabulary if the category is absent from this cuisine.
  IngredientId SampleInCategory(Rng* rng, Category category) const {
    const int cat = static_cast<int>(category);
    const std::optional<DiscreteSampler>& sampler =
        category_samplers_[static_cast<size_t>(cat)];
    if (!sampler.has_value()) return SampleGlobal(rng);
    const size_t local = sampler->Sample(rng);
    return profile_
        .vocabulary[category_positions_[static_cast<size_t>(cat)][local]];
  }

  /// Preference rank of `id` in the vocabulary (0 = most preferred).
  size_t RankOf(IngredientId id) const {
    for (size_t pos = 0; pos < profile_.vocabulary.size(); ++pos) {
      if (profile_.vocabulary[pos] == id) return pos;
    }
    return profile_.vocabulary.size();
  }

  /// A fresh recipe of `size` distinct preference-weighted ingredients.
  std::vector<IngredientId> SampleFreshRecipe(Rng* rng, int size) const {
    std::vector<IngredientId> out;
    out.reserve(static_cast<size_t>(size));
    int guard = 0;
    while (static_cast<int>(out.size()) < size && guard < size * 200) {
      ++guard;
      const IngredientId id = SampleGlobal(rng);
      if (std::find(out.begin(), out.end(), id) == out.end()) {
        out.push_back(id);
      }
    }
    // Pathologically small vocabularies: fill with unused ids in order.
    if (static_cast<int>(out.size()) < size) {
      for (IngredientId id : profile_.vocabulary) {
        if (static_cast<int>(out.size()) >= size) break;
        if (std::find(out.begin(), out.end(), id) == out.end()) {
          out.push_back(id);
        }
      }
    }
    return out;
  }

 private:
  const CuisineProfile& profile_;
  DiscreteSampler global_;
  std::vector<std::vector<size_t>> category_positions_;
  std::vector<std::optional<DiscreteSampler>> category_samplers_;
};

bool Contains(const std::vector<IngredientId>& recipe, IngredientId id) {
  return std::find(recipe.begin(), recipe.end(), id) != recipe.end();
}

}  // namespace

Status SynthesizeCuisine(const Lexicon& lexicon,
                         const CuisineProfile& profile,
                         const SynthConfig& config, int count,
                         RecipeCorpus::Builder* builder) {
  if (count <= 0) {
    return Status::InvalidArgument("recipe count must be positive");
  }
  if (profile.vocabulary.size() <
      static_cast<size_t>(profile.max_recipe_size)) {
    return Status::FailedPrecondition(StrFormat(
        "vocabulary of cuisine %s too small (%zu) for max recipe size %d",
        std::string(CuisineAt(profile.cuisine).code).c_str(),
        profile.vocabulary.size(), profile.max_recipe_size));
  }

  const SynthMetrics& metrics = SynthMetrics::Get();
  obs::ScopedTimer cuisine_timer(metrics.cuisine_ms);

  Rng rng(DeriveSeed(config.seed, 0xA000 + profile.cuisine));
  const ProfileSamplers samplers(lexicon, profile);

  // The cuisine's creative liberty modulates how aggressively recipes drift
  // when copied: conservative cuisines (low liberty) re-use combinations
  // nearly verbatim, producing steeper combination-popularity curves;
  // liberal cuisines flatten them. This is what lets the model-fitting
  // experiment (Fig. 4) discriminate CM-R / CM-C / CM-M per cuisine.
  const double effective_mutation_rate =
      kMutationRate * (0.18 + 1.40 * profile.liberty);
  const double effective_novelty_rate =
      kNoveltyRate * (0.50 + 1.00 * profile.liberty);

  const auto sample_size = [&]() {
    return SampleTruncatedNormalInt(&rng, profile.mean_recipe_size,
                                    kSizeStddev, profile.min_recipe_size,
                                    profile.max_recipe_size);
  };

  std::vector<std::vector<IngredientId>> pool;
  pool.reserve(static_cast<size_t>(count));
  const int seeds = std::min(kSeedPool, count);
  for (int i = 0; i < seeds; ++i) {
    pool.push_back(samplers.SampleFreshRecipe(&rng, sample_size()));
  }
  metrics.recipes_fresh->Increment(seeds);

  while (static_cast<int>(pool.size()) < count) {
    if (rng.NextBool(effective_novelty_rate)) {
      pool.push_back(samplers.SampleFreshRecipe(&rng, sample_size()));
      metrics.recipes_fresh->Increment();
      continue;
    }
    // Copy a mother recipe and mutate it.
    metrics.recipes_copied->Increment();
    std::vector<IngredientId> recipe = pool[rng.NextBounded(pool.size())];
    for (size_t i = 0; i < recipe.size(); ++i) {
      if (!rng.NextBool(effective_mutation_rate)) continue;
      const bool cross_category = rng.NextBool(profile.liberty);
      const IngredientId replacement =
          cross_category
              ? samplers.SampleGlobal(&rng)
              : samplers.SampleInCategory(&rng,
                                          lexicon.category(recipe[i]));
      if (!Contains(recipe, replacement)) {
        recipe[i] = replacement;
        metrics.mutations_applied->Increment();
      }
    }
    // Size resampling: every copy draws a fresh truncated-normal target
    // size and the recipe is trimmed / extended to it. Content is
    // inherited; size is not — this keeps the per-cuisine recipe-size
    // distributions Gaussian (Fig. 1) instead of letting lineage
    // correlations make them lumpy.
    if (!rng.NextBool(kSizeResampleRate)) {
      pool.push_back(std::move(recipe));
      continue;
    }
    const int target_size = sample_size();
    while (static_cast<int>(recipe.size()) > target_size) {
      // Trim the least-preferred ingredient so the recipe's popular
      // combination core survives the resize.
      size_t worst = 0;
      size_t worst_rank = 0;
      for (size_t k = 0; k < recipe.size(); ++k) {
        const size_t rank = samplers.RankOf(recipe[k]);
        if (rank >= worst_rank) {
          worst_rank = rank;
          worst = k;
        }
      }
      recipe.erase(recipe.begin() + static_cast<long>(worst));
    }
    int guard = 0;
    while (static_cast<int>(recipe.size()) < target_size && guard < 400) {
      ++guard;
      const IngredientId extra = samplers.SampleGlobal(&rng);
      if (!Contains(recipe, extra)) recipe.push_back(extra);
    }
    pool.push_back(std::move(recipe));
  }

  metrics.recipes_generated->Increment(static_cast<int64_t>(pool.size()));
  for (std::vector<IngredientId>& recipe : pool) {
    CULEVO_RETURN_IF_ERROR(builder->Add(profile.cuisine, std::move(recipe)));
  }
  return Status::Ok();
}

Result<RecipeCorpus> SynthesizeWorldCorpus(const Lexicon& lexicon,
                                           const SynthConfig& config) {
  if (config.scale <= 0.0 || config.scale > 1.0) {
    return Status::InvalidArgument("scale must be in (0, 1]");
  }
  obs::ScopedTimer world_timer(SynthMetrics::Get().world_ms);
  RecipeCorpus::Builder builder;
  for (int c = 0; c < kNumCuisines; ++c) {
    const CuisineId cuisine = static_cast<CuisineId>(c);
    const CuisineProfile profile =
        BuildCuisineProfile(lexicon, cuisine, config.seed);
    const int count = std::max(
        30, static_cast<int>(std::lround(
                CuisineAt(cuisine).paper_recipes * config.scale)));
    CULEVO_RETURN_IF_ERROR(
        SynthesizeCuisine(lexicon, profile, config, count, &builder));
  }
  return builder.Build();
}

}  // namespace culevo
