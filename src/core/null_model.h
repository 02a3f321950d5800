#ifndef CULEVO_CORE_NULL_MODEL_H_
#define CULEVO_CORE_NULL_MODEL_H_

#include <string>

#include "core/evolution_model.h"

namespace culevo {

/// The paper's control: no copying, no mutation. Each iteration creates a
/// brand-new recipe of s̄ ingredients sampled uniformly without replacement
/// from the current ingredient pool I0; the pool-growth bookkeeping
/// (∂ = m/n vs φ) is identical to the copy-mutate models ("all the other
/// steps remain as it is", Section V).
class NullModel : public EvolutionModel {
 public:
  /// `initial_pool` is m (paper: 20, as for the copy-mutate models).
  explicit NullModel(int initial_pool = 20);

  std::string name() const override { return "NM"; }

  Status GenerateInto(const CuisineContext& context, uint64_t seed,
                      RecipeStore* store) const override;

 private:
  int initial_pool_;
};

}  // namespace culevo

#endif  // CULEVO_CORE_NULL_MODEL_H_
