#include "corpus/cuisine.h"

#include "util/check.h"
#include "util/strings.h"

namespace culevo {
namespace {

// Table I of the paper, plus culevo's synthesis calibration (mean recipe
// size and creative-liberty; DESIGN.md §2). The liberty values encode the
// Section-VI per-cuisine winners: near 0 where CM-C won (SP, ME,
// ITA, SCND), ~0.08 where CM-R won (KOR, CBN, JPN — the small cuisines),
// ~0.3 where CM-M won (ANZ, CHN), intermediate values elsewhere.
//
// Note: the per-cuisine recipe counts in Table I sum to 158460, not the
// 158544 quoted in the abstract; we embed the table as printed.
const std::array<CuisineInfo, kNumCuisines> kCuisines = {{
    {"AFR", "Africa", 5465, 442,
     {"Cumin", "Cinnamon", "Olive", "Cilantro", "Paprika"}, 9.4, 0.20},
    {"ANZ", "Australia & NZ", 6169, 463,
     {"Butter", "Egg", "Sugar", "Flour", "Coconut"}, 8.6, 0.30},
    {"IRL", "Republic of Ireland", 2702, 378,
     {"Potato", "Butter", "Cream", "Flour", "Baking Powder"}, 8.4, 0.10},
    {"CAN", "Canada", 7725, 483,
     {"Baking Powder", "Sugar", "Butter", "Flour", "Vanilla"}, 8.8, 0.15},
    {"CBN", "Caribbean", 3887, 417,
     {"Lime", "Rum", "Pineapple", "Allspice", "Thyme"}, 9.2, 0.20},
    {"CHN", "China", 7123, 442,
     {"Soybean Sauce", "Sesame", "Ginger", "Corn", "Chicken"}, 9.0, 0.30},
    {"DACH", "DACH Countries", 4641, 430,
     {"Flour", "Egg", "Butter", "Sugar", "Swiss Cheese"}, 8.7, 0.12},
    {"EE", "Eastern Europe", 3179, 383,
     {"Flour", "Egg", "Butter", "Cream", "Salt"}, 8.5, 0.18},
    {"FRA", "France", 9590, 511,
     {"Butter", "Egg", "Vanilla", "Milk", "Cream"}, 9.1, 0.07},
    {"GRC", "Greece", 5286, 405,
     {"Olive", "Feta Cheese", "Oregano", "Lemon Juice", "Tomato"}, 9.3,
     0.10},
    {"INSC", "Indian Subcontinent", 10531, 462,
     {"Cayenne", "Turmeric", "Cumin", "Cilantro", "Garam Masala"}, 10.4,
     0.15},
    {"ITA", "Italy", 23179, 506,
     {"Olive", "Parmesan Cheese", "Basil", "Garlic", "Tomato"}, 9.2, 0.00},
    {"JPN", "Japan", 2884, 382,
     {"Soybean Sauce", "Sesame", "Ginger", "Vinegar", "Sake"}, 8.6, 0.20},
    {"KOR", "Korea", 1228, 291,
     {"Sesame", "Soybean Sauce", "Garlic", "Sugar", "Ginger"}, 9.0, 0.20},
    {"MEX", "Mexico", 16065, 467,
     {"Tortilla", "Cilantro", "Lime", "Cumin", "Tomato"}, 9.5, 0.30},
    {"ME", "Middle East", 4858, 423,
     {"Olive", "Lemon Juice", "Parsley", "Cumin", "Mint"}, 9.4, 0.00},
    {"SCND", "Scandinavia", 3026, 377,
     {"Sugar", "Flour", "Butter", "Egg", "Milk"}, 8.5, 0.01},
    {"SAM", "South America", 7458, 457,
     {"Beef", "Onion", "Pepper", "Garlic", "Mushroom"}, 9.0, 0.35},
    {"SEA", "South East Asia", 2523, 361,
     {"Fish", "Sugar", "Soybean Sauce", "Garlic", "Lime"}, 9.3, 0.40},
    {"SP", "Spain", 4154, 413,
     {"Olive", "Paprika", "Garlic", "Tomato", "Parsley"}, 9.1, 0.00},
    {"THA", "Thailand", 3795, 378,
     {"Fish", "Lime", "Cilantro", "Coconut Milk", "Soybean Sauce"}, 9.6,
     0.38},
    {"USA", "USA", 16026, 592,
     {"Butter", "Sugar", "Vanilla", "Flour", "Mustard"}, 8.9, 0.25},
    {"BN", "Belgium-Netherlands", 1116, 323,
     {"Butter", "Flour", "Egg", "Sugar", "Milk"}, 8.4, 0.12},
    {"CAM", "Central America", 470, 294,
     {"Salt", "Tomato", "Onion", "Macaroni", "Celery"}, 8.8, 0.25},
    {"UK", "United Kingdom", 5380, 456,
     {"Butter", "Flour", "Egg", "Sugar", "Milk"}, 8.7, 0.18},
}};

}  // namespace

const std::array<CuisineInfo, kNumCuisines>& WorldCuisines() {
  return kCuisines;
}

const CuisineInfo& CuisineAt(CuisineId id) {
  CULEVO_CHECK(id < kNumCuisines);
  return kCuisines[id];
}

Result<CuisineId> CuisineFromCode(std::string_view code) {
  const std::string upper = ToLower(code);
  for (int i = 0; i < kNumCuisines; ++i) {
    if (ToLower(kCuisines[static_cast<size_t>(i)].code) == upper) {
      return static_cast<CuisineId>(i);
    }
  }
  return Status::NotFound("unknown cuisine code: " + std::string(code));
}

int TotalPaperRecipes() {
  int total = 0;
  for (const CuisineInfo& info : kCuisines) total += info.paper_recipes;
  return total;
}

}  // namespace culevo
