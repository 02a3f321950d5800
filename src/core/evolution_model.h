#ifndef CULEVO_CORE_EVOLUTION_MODEL_H_
#define CULEVO_CORE_EVOLUTION_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "corpus/recipe_corpus.h"
#include "core/recipe_store.h"
#include "lexicon/lexicon.h"
#include "util/status.h"

namespace culevo {

/// The per-cuisine quantities Algorithm 1 consumes: the cuisine's
/// ingredient list I, the average recipe size s̄, the target recipe count
/// N, and φ = |I| / N (ratio of total ingredients to total recipes).
struct CuisineContext {
  CuisineId cuisine = 0;
  /// All ingredients of the cuisine (the algorithm's I), sorted.
  std::vector<IngredientId> ingredients;
  /// Empirical presence fraction per ingredient, aligned with
  /// `ingredients`. No model reads it; the checkpoint manifest hashes it
  /// (HashCuisineContext), so a journal never resumes against another
  /// corpus of the same shape.
  std::vector<double> popularity;
  int mean_recipe_size = 9;  ///< s̄, rounded to an integer.
  size_t target_recipes = 0; ///< N.
  double phi = 0.0;          ///< φ = |I| / N.
};

/// Extracts a CuisineContext from an empirical corpus. Returns
/// FailedPrecondition if the cuisine is empty or s̄ exceeds |I|.
Result<CuisineContext> ContextFromCorpus(const RecipeCorpus& corpus,
                                         CuisineId cuisine);

/// Checks the invariants every model needs of a context: positive target,
/// non-empty ingredient list that fits PoolPos, positive φ, and positive
/// s̄ (an s̄ of zero would ask the mutation loop to index into an empty
/// recipe — an out-of-bounds read in release builds).
Status ValidateCuisineContext(const CuisineContext& context);

/// Interface of the culinary-evolution models (Section V). GenerateInto()
/// must be deterministic in (context, seed) and safe to call concurrently.
class EvolutionModel {
 public:
  virtual ~EvolutionModel() = default;

  /// Short display name: "CM-R", "CM-C", "CM-M", "NM", ...
  virtual std::string name() const = 0;

  /// Hash of everything that changes what GenerateInto() produces for a
  /// fixed (context, seed) — the model's identity in a checkpoint manifest
  /// (core/run_journal.h). Two models with equal fingerprints must be
  /// output-identical; models with tunable parameters override this to
  /// fold them in (name() alone cannot tell two CM-M mixture ratios
  /// apart). The base implementation hashes name() only, which is correct
  /// for parameter-free models.
  virtual uint64_t ConfigFingerprint() const;

  /// Evolves context.target_recipes recipes into `store` (reset first) as
  /// context-ingredient positions in draw order (unsorted), distinct within
  /// each recipe. RunSimulation mines the store as it stands;
  /// StoreTransactions (core/simulation.h) is the reference projection to
  /// sorted ingredient ids.
  virtual Status GenerateInto(const CuisineContext& context, uint64_t seed,
                              RecipeStore* store) const = 0;
};

}  // namespace culevo

#endif  // CULEVO_CORE_EVOLUTION_MODEL_H_
