#ifndef CULEVO_CORPUS_CUISINE_H_
#define CULEVO_CORPUS_CUISINE_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace culevo {

/// Dense cuisine (geo-cultural region) identifier.
using CuisineId = uint8_t;

/// The paper's 25 geo-cultural regions.
inline constexpr int kNumCuisines = 25;

/// Fig. 1's recipe-size envelope: sizes are "gaussian and bounded between
/// 2 and 38" in every cuisine. The synthetic corpus draws its sizes inside
/// it, and the copy-mutate size extension and the recipe generator keep
/// theirs inside it.
inline constexpr int kMinRecipeSize = 2;
inline constexpr int kMaxRecipeSize = 38;

/// Static description of one world cuisine, including the calibration
/// targets published in Table I of the paper and the synthesis parameters
/// culevo uses to reproduce the paper's per-cuisine behaviour (DESIGN.md §2).
struct CuisineInfo {
  std::string_view code;  ///< Short code, e.g. "ITA".
  std::string_view name;  ///< Display name, e.g. "Italy".
  int paper_recipes;      ///< Recipe count in Table I.
  int paper_ingredients;  ///< Unique-ingredient count in Table I.
  /// Table I's top-5 overrepresented ingredients (canonical lexicon names).
  std::array<std::string_view, 5> top_ingredients;
  /// Mean recipe size used for synthesis; the paper reports a global
  /// average of ~9 ingredients with cuisine-level variation.
  double mean_recipe_size;
  /// "Creative liberty": probability that a synthetic mutation crosses
  /// category boundaries. 0 = strictly in-category (CM-C-like),
  /// 1 = unrestricted (CM-R-like). Chosen per cuisine so the Section-VI
  /// winner pattern reproduces (see DESIGN.md §2).
  double liberty;
};

/// All 25 cuisines in a fixed order; index == CuisineId.
const std::array<CuisineInfo, kNumCuisines>& WorldCuisines();

/// Info for one cuisine. Precondition: id < kNumCuisines.
const CuisineInfo& CuisineAt(CuisineId id);

/// Looks a cuisine up by its short code (case-insensitive).
Result<CuisineId> CuisineFromCode(std::string_view code);

/// Total recipes across Table I (158544 in the paper).
int TotalPaperRecipes();

}  // namespace culevo

#endif  // CULEVO_CORPUS_CUISINE_H_
