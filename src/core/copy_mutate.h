#ifndef CULEVO_CORE_COPY_MUTATE_H_
#define CULEVO_CORE_COPY_MUTATE_H_

#include <memory>
#include <string>

#include "core/evolution_model.h"
#include "lexicon/lexicon.h"

namespace culevo {

/// How the replacement ingredient j is drawn from the pool I0 (Section V).
enum class ReplacementPolicy {
  kRandom,        ///< CM-R: uniformly from I0.
  kSameCategory,  ///< CM-C: uniformly from I0 ∩ category(i).
  kMixture,       ///< CM-M: cross-category with probability
                  ///< `mixture_cross_prob`, else same-category.
};

const char* ReplacementPolicyName(ReplacementPolicy policy);

/// Parameters of Algorithm 1 and its culevo extensions.
struct ModelParams {
  ReplacementPolicy policy = ReplacementPolicy::kRandom;
  /// Initial ingredient-pool size m (paper: 20).
  int initial_pool = 20;
  /// Mutations per copied recipe M (paper: 4 for CM-R, 6 for CM-C/CM-M).
  int mutations = 4;
  /// CM-M only: probability a mutation draws from the whole pool instead
  /// of the mutated ingredient's category (paper: exactly 0.5).
  double mixture_cross_prob = 0.5;
  /// §VII extension — variable recipe sizes. With these probabilities a
  /// copied recipe also gains / loses one ingredient (0 = paper
  /// behaviour), staying inside [kMinRecipeSize, kMaxRecipeSize].
  double insert_prob = 0.0;
  double delete_prob = 0.0;
};

/// The copy-mutate culinary-evolution model (Algorithm 1). One class
/// implements CM-R / CM-C / CM-M via ModelParams::policy.
///
/// Faithful-reading notes (DESIGN.md §5): the loop keeps the pool-to-recipe
/// ratio ∂ = m/n tracking φ — when ∂ >= φ a recipe is copied and mutated,
/// otherwise one unused ingredient enters the pool; the initial recipe pool
/// has n0 = m/φ recipes of s̄ ingredients sampled without replacement from
/// I0; fitness is uniform U(0,1) per cuisine ingredient (Step 1); a
/// mutation replaces i with j only if fitness(j) > fitness(i) and j is not
/// already in the recipe (recipes are ingredient sets).
class CopyMutateModel : public EvolutionModel {
 public:
  /// `lexicon` must outlive the model (category lookups for CM-C / CM-M).
  CopyMutateModel(const Lexicon* lexicon, ModelParams params);

  std::string name() const override;

  /// Folds every ModelParams knob into the fingerprint: name() only says
  /// "CM-M", but two mixture probabilities generate different pools.
  uint64_t ConfigFingerprint() const override;

  const ModelParams& params() const { return params_; }

  /// Draw-for-draw identical to the seed engine's RNG schedule, so fixed
  /// seeds reproduce the original output exactly.
  Status GenerateInto(const CuisineContext& context, uint64_t seed,
                      RecipeStore* store) const override;

 private:
  const Lexicon* lexicon_;
  ModelParams params_;
};

/// Paper-parameterized factories (Section VI: m=20; M=4 for CM-R, 6 for
/// CM-C and CM-M; mixture probability 0.5).
std::unique_ptr<CopyMutateModel> MakeCmR(const Lexicon* lexicon);
std::unique_ptr<CopyMutateModel> MakeCmC(const Lexicon* lexicon);
std::unique_ptr<CopyMutateModel> MakeCmM(const Lexicon* lexicon);

}  // namespace culevo

#endif  // CULEVO_CORE_COPY_MUTATE_H_
