#include "core/recipe_generator.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "util/strings.h"

namespace culevo {
namespace {

// Copy-mutate intensity: point mutations applied to the copied mother
// recipe before constraint repair.
constexpr int kMutations = 4;

bool Contains(const std::vector<IngredientId>& recipe, IngredientId id) {
  return std::find(recipe.begin(), recipe.end(), id) != recipe.end();
}

}  // namespace

RecipeGenerator::RecipeGenerator(const RecipeCorpus* corpus,
                                 CuisineId cuisine, const Lexicon* lexicon,
                                 uint64_t seed)
    : corpus_(corpus),
      lexicon_(lexicon),
      cuisine_(cuisine),
      rng_(DeriveSeed(seed, 0x6E0 + cuisine)) {
  for (uint32_t index = 0; index < corpus->num_recipes(); ++index) {
    if (corpus->cuisine_of(index) == cuisine) recipes_.push_back(index);
  }
  // Create checked that the corpus universe fits the lexicon.
  const std::span<const uint32_t> counts = corpus->presence(cuisine);
  popularity_.assign(lexicon->size(), 0);
  std::copy(counts.begin(), counts.end(), popularity_.begin());
  for (size_t id = 0; id < popularity_.size(); ++id) {
    if (popularity_[id] > 0) {
      by_popularity_.push_back(static_cast<IngredientId>(id));
    }
  }
  std::sort(by_popularity_.begin(), by_popularity_.end(),
            [this](IngredientId a, IngredientId b) {
              if (popularity_[a] != popularity_[b]) {
                return popularity_[a] > popularity_[b];
              }
              return a < b;
            });
}

Result<RecipeGenerator> RecipeGenerator::Create(const RecipeCorpus* corpus,
                                                CuisineId cuisine,
                                                const Lexicon* lexicon,
                                                uint64_t seed) {
  if (corpus == nullptr || lexicon == nullptr) {
    return Status::InvalidArgument("corpus and lexicon must be non-null");
  }
  if (cuisine >= kNumCuisines || corpus->num_recipes_in(cuisine) == 0) {
    return Status::FailedPrecondition(
        "cuisine has no recipes to seed generation from");
  }
  CULEVO_RETURN_IF_ERROR(CheckIdsInLexicon(*corpus, *lexicon, "corpus"));
  return RecipeGenerator(corpus, cuisine, lexicon, seed);
}

bool RecipeGenerator::Allowed(IngredientId id,
                              const GenerationConstraints& c) const {
  const Category category = lexicon_->category(id);
  for (Category excluded : c.excluded_categories) {
    if (category == excluded) return false;
  }
  return true;
}

double RecipeGenerator::Typicality(
    const std::vector<IngredientId>& recipe) const {
  // Mean pairwise PMI over the cuisine's recipes.
  const double n = static_cast<double>(recipes_.size());
  if (recipe.size() < 2) return 0.0;

  // Count joint occurrences of the recipe's pairs with one corpus pass.
  std::unordered_map<uint32_t, size_t> joint;
  const auto key = [&](size_t i, size_t j) {
    return static_cast<uint32_t>(i * recipe.size() + j);
  };
  for (uint32_t index : recipes_) {
    const std::span<const IngredientId> r = corpus_->ingredients_of(index);
    bool present[40];
    for (size_t i = 0; i < recipe.size(); ++i) {
      present[i] = std::binary_search(r.begin(), r.end(), recipe[i]);
    }
    for (size_t i = 0; i < recipe.size(); ++i) {
      if (!present[i]) continue;
      for (size_t j = i + 1; j < recipe.size(); ++j) {
        if (present[j]) ++joint[key(i, j)];
      }
    }
  }

  double total = 0.0;
  size_t pairs = 0;
  for (size_t i = 0; i < recipe.size(); ++i) {
    for (size_t j = i + 1; j < recipe.size(); ++j) {
      ++pairs;
      const auto it = joint.find(key(i, j));
      const double p_ab =
          it == joint.end() ? 0.5 / n
                            : static_cast<double>(it->second) / n;
      const double p_a =
          std::max(0.5, static_cast<double>(popularity_[recipe[i]])) / n;
      const double p_b =
          std::max(0.5, static_cast<double>(popularity_[recipe[j]])) / n;
      total += std::log2(p_ab / (p_a * p_b));
    }
  }
  return pairs > 0 ? total / static_cast<double>(pairs) : 0.0;
}

double RecipeGenerator::Novelty(
    const std::vector<IngredientId>& recipe) const {
  double max_jaccard = 0.0;
  for (uint32_t index : recipes_) {
    const std::span<const IngredientId> other =
        corpus_->ingredients_of(index);
    size_t intersection = 0;
    size_t i = 0;
    size_t j = 0;
    while (i < recipe.size() && j < other.size()) {
      if (recipe[i] == other[j]) {
        ++intersection;
        ++i;
        ++j;
      } else if (recipe[i] < other[j]) {
        ++i;
      } else {
        ++j;
      }
    }
    const size_t union_size = recipe.size() + other.size() - intersection;
    const double jaccard = union_size == 0
                               ? 0.0
                               : static_cast<double>(intersection) /
                                     static_cast<double>(union_size);
    max_jaccard = std::max(max_jaccard, jaccard);
    if (max_jaccard == 1.0) break;
  }
  return 1.0 - max_jaccard;
}

Result<NovelRecipe> RecipeGenerator::Generate(
    const GenerationConstraints& constraints) {
  const int target =
      std::clamp(constraints.target_size, kMinRecipeSize, kMaxRecipeSize);

  // Validate constraints.
  for (IngredientId id : constraints.must_include) {
    if (id >= lexicon_->size()) {
      return Status::InvalidArgument("must_include id out of range");
    }
    if (!Allowed(id, constraints)) {
      return Status::InvalidArgument(StrFormat(
          "ingredient '%s' is both required and excluded",
          lexicon_->name(id).c_str()));
    }
  }
  if (static_cast<int>(constraints.must_include.size()) > target) {
    return Status::InvalidArgument(
        "must_include larger than the target recipe size");
  }
  std::vector<IngredientId> candidates;
  for (IngredientId id : by_popularity_) {
    if (Allowed(id, constraints)) candidates.push_back(id);
  }
  if (static_cast<int>(candidates.size()) < target) {
    return Status::InvalidArgument(
        "constraints leave too few candidate ingredients");
  }

  // 1. Copy a mother recipe (the copy step of culinary evolution).
  const std::span<const IngredientId> mother =
      corpus_->ingredients_of(recipes_[rng_.NextBounded(recipes_.size())]);
  std::vector<IngredientId> recipe;
  for (IngredientId id : mother) {
    if (Allowed(id, constraints)) recipe.push_back(id);
  }

  // 2. Point mutations: popularity-weighted replacement (mutate step).
  for (int g = 0; g < kMutations && !recipe.empty(); ++g) {
    const size_t slot = rng_.NextBounded(recipe.size());
    // Popularity-weighted draw: sample a corpus recipe, then one of its
    // ingredients — this reproduces the empirical usage distribution.
    const std::span<const IngredientId> donor =
        corpus_->ingredients_of(recipes_[rng_.NextBounded(recipes_.size())]);
    const IngredientId replacement =
        donor[rng_.NextBounded(donor.size())];
    if (Allowed(replacement, constraints) &&
        !Contains(recipe, replacement)) {
      recipe[slot] = replacement;
    }
  }

  // 3. Constraint repair: force inclusions, then fix the size.
  for (IngredientId id : constraints.must_include) {
    if (!Contains(recipe, id)) recipe.push_back(id);
  }
  const auto removable = [&](IngredientId id) {
    return std::find(constraints.must_include.begin(),
                     constraints.must_include.end(),
                     id) == constraints.must_include.end();
  };
  while (static_cast<int>(recipe.size()) > target) {
    const size_t slot = rng_.NextBounded(recipe.size());
    if (removable(recipe[slot])) {
      recipe.erase(recipe.begin() + static_cast<long>(slot));
    }
  }
  int guard = 0;
  while (static_cast<int>(recipe.size()) < target && guard < 4000) {
    ++guard;
    const std::span<const IngredientId> donor =
        corpus_->ingredients_of(recipes_[rng_.NextBounded(recipes_.size())]);
    const IngredientId extra = donor[rng_.NextBounded(donor.size())];
    if (Allowed(extra, constraints) && !Contains(recipe, extra)) {
      recipe.push_back(extra);
    }
  }
  // Deterministic fallback for very tight constraints.
  for (IngredientId id : candidates) {
    if (static_cast<int>(recipe.size()) >= target) break;
    if (!Contains(recipe, id)) recipe.push_back(id);
  }

  std::sort(recipe.begin(), recipe.end());
  NovelRecipe out;
  out.typicality = Typicality(recipe);
  out.novelty = Novelty(recipe);
  out.ingredients = std::move(recipe);
  return out;
}

Result<std::vector<NovelRecipe>> RecipeGenerator::GenerateBatch(
    const GenerationConstraints& constraints, int count) {
  if (count <= 0) {
    return Status::InvalidArgument("count must be positive");
  }
  std::vector<NovelRecipe> batch;
  batch.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    Result<NovelRecipe> recipe = Generate(constraints);
    if (!recipe.ok()) return recipe.status();
    batch.push_back(std::move(recipe).value());
  }
  std::sort(batch.begin(), batch.end(),
            [](const NovelRecipe& a, const NovelRecipe& b) {
              return a.typicality > b.typicality;
            });
  return batch;
}

}  // namespace culevo
