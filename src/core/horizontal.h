#ifndef CULEVO_CORE_HORIZONTAL_H_
#define CULEVO_CORE_HORIZONTAL_H_

#include <cstdint>
#include <vector>

#include "analysis/transactions.h"
#include "core/evolution_model.h"
#include "lexicon/lexicon.h"
#include "util/status.h"

namespace culevo {

/// §VII future-work extension: cuisines do not evolve in isolation —
/// recipes also propagate *horizontally* between regions. With probability
/// `migration_prob` a copy-mutate step picks its mother recipe from a
/// uniformly chosen *other* cuisine's evolved pool; mutations still replace
/// ingredients from the local pool, so imported recipes assimilate over
/// time. migration_prob = 0 reduces to independent CM-R evolutions with
/// the paper's m = 20 and M = 4.
struct HorizontalConfig {
  double migration_prob = 0.05;
  uint64_t seed = 42;
};

/// Evolves all `contexts` jointly under horizontal transmission. Steps are
/// interleaved round-robin, weighted by each cuisine's remaining target, so
/// that pools co-evolve in time. Fitness is a single world-wide U(0,1)
/// table (intrinsic ingredient properties are region-independent).
///
/// Element k of the result holds the recipes evolved for contexts[k]'s
/// cuisine, one ingredient-id transaction per recipe. Migrated recipes can
/// hold ids outside that context's ingredient list, so they have no
/// RecipeStore position form.
Result<std::vector<TransactionSet>> EvolveHorizontalWorld(
    const std::vector<CuisineContext>& contexts, const Lexicon& lexicon,
    const HorizontalConfig& config);

}  // namespace culevo

#endif  // CULEVO_CORE_HORIZONTAL_H_
