#ifndef CULEVO_ANALYSIS_CATEGORY_USAGE_H_
#define CULEVO_ANALYSIS_CATEGORY_USAGE_H_

#include <array>
#include <vector>

#include "corpus/recipe_corpus.h"
#include "lexicon/lexicon.h"

namespace culevo {

/// Mean ingredients-per-recipe from each category for each cuisine:
/// result[cuisine][category]. Empty cuisines yield all-zero rows.
std::vector<std::array<double, kNumCategories>> CategoryUsageMatrix(
    const RecipeCorpus& corpus, const Lexicon& lexicon);

}  // namespace culevo

#endif  // CULEVO_ANALYSIS_CATEGORY_USAGE_H_
