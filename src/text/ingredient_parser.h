#ifndef CULEVO_TEXT_INGREDIENT_PARSER_H_
#define CULEVO_TEXT_INGREDIENT_PARSER_H_

#include <optional>
#include <string>
#include <string_view>

namespace culevo {

/// Units recognized by the ingredient-line parser, normalized to a
/// canonical spelling.
enum class Unit {
  kNone = 0,
  kTeaspoon,
  kTablespoon,
  kCup,
  kOunce,
  kPound,
  kGram,
  kKilogram,
  kMilliliter,
  kLiter,
  kPinch,
  kDash,
  kClove,
  kSlice,
  kCan,
  kPackage,
  kBunch,
  kPiece,
};

/// A parsed raw recipe-ingredient line, e.g.
///   "2 1/2 cups finely chopped red onion"
///     -> quantity 2.5, unit kCup, preparation "finely chopped",
///        mention "red onion".
struct ParsedIngredientLine {
  std::optional<double> quantity;  ///< Absent when the line has no amount.
  Unit unit = Unit::kNone;
  /// Leading preparation words stripped from the mention ("chopped",
  /// "fresh", ...), space-joined; may be empty.
  std::string preparation;
  /// The ingredient mention to resolve against the lexicon.
  std::string mention;
};

/// Parses one raw ingredient line. Handles integer, decimal, fraction
/// ("1/2"), mixed ("2 1/2"), and unicode-vulgar-fraction-free inputs;
/// recognizes unit words with plural forms and abbreviations (tsp, tbsp,
/// oz, lb, g, kg, ml, l, c). Never fails: unparseable prefixes simply end
/// up in `mention`.
ParsedIngredientLine ParseIngredientLine(std::string_view raw);

}  // namespace culevo

#endif  // CULEVO_TEXT_INGREDIENT_PARSER_H_
