#ifndef CULEVO_CORE_RECIPE_GENERATOR_H_
#define CULEVO_CORE_RECIPE_GENERATOR_H_

#include <cstdint>
#include <vector>

#include "corpus/recipe_corpus.h"
#include "lexicon/lexicon.h"
#include "util/rng.h"
#include "util/status.h"

namespace culevo {

/// Dietary / culinary constraints for novel-recipe generation — the
/// application the paper's conclusion motivates ("recipe generation
/// algorithms aimed at dietary interventions").
struct GenerationConstraints {
  /// Desired ingredient count; clamped to the paper's recipe-size
  /// envelope [kMinRecipeSize, kMaxRecipeSize].
  int target_size = 9;
  /// Ingredients that must appear.
  std::vector<IngredientId> must_include;
  /// Whole categories to avoid (e.g. kMeat + kFish + kSeafood for a
  /// vegetarian intervention).
  std::vector<Category> excluded_categories;
};

/// A proposed recipe with quality scores.
struct NovelRecipe {
  std::vector<IngredientId> ingredients;  ///< Sorted, unique.
  /// Mean pairwise PMI of the recipe's ingredient pairs within the source
  /// cuisine (higher = more culturally typical combinations).
  double typicality = 0.0;
  /// 1 - max Jaccard similarity against every corpus recipe of the
  /// cuisine (1 = nothing like it exists, 0 = exact copy).
  double novelty = 0.0;
};

/// Copy-mutate-based constrained recipe proposer for one cuisine.
///
/// Mirrors the evolutionary mechanism the paper identifies: a mother
/// recipe is copied from the cuisine and point-mutated with popularity-
/// weighted replacements, then repaired to satisfy the constraints.
/// Thread-compatible (one instance per thread).
class RecipeGenerator {
 public:
  /// `corpus` and `lexicon` must outlive the generator. Fails with
  /// FailedPrecondition if the cuisine is empty or the corpus uses an id
  /// outside the lexicon.
  static Result<RecipeGenerator> Create(const RecipeCorpus* corpus,
                                        CuisineId cuisine,
                                        const Lexicon* lexicon,
                                        uint64_t seed);

  /// Proposes one recipe. Fails with InvalidArgument on unsatisfiable
  /// constraints (e.g. a must_include ingredient in an excluded category,
  /// or the constraints leave fewer than target_size candidate
  /// ingredients).
  Result<NovelRecipe> Generate(const GenerationConstraints& constraints);

  /// Proposes `count` recipes, sorted by descending typicality.
  Result<std::vector<NovelRecipe>> GenerateBatch(
      const GenerationConstraints& constraints, int count);

  CuisineId cuisine() const { return cuisine_; }

 private:
  RecipeGenerator(const RecipeCorpus* corpus, CuisineId cuisine,
                  const Lexicon* lexicon, uint64_t seed);

  bool Allowed(IngredientId id,
               const GenerationConstraints& constraints) const;
  double Typicality(const std::vector<IngredientId>& recipe) const;
  double Novelty(const std::vector<IngredientId>& recipe) const;

  const RecipeCorpus* corpus_;
  const Lexicon* lexicon_;
  CuisineId cuisine_;
  Rng rng_;
  /// The cuisine's recipe indices, ascending: the mother and donor
  /// recipes are drawn from it by position.
  std::vector<uint32_t> recipes_;
  /// Cuisine popularity (presence counts) per ingredient id.
  std::vector<size_t> popularity_;
  /// Ingredients of the cuisine sorted by descending popularity.
  std::vector<IngredientId> by_popularity_;
};

}  // namespace culevo

#endif  // CULEVO_CORE_RECIPE_GENERATOR_H_
