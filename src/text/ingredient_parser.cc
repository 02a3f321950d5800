#include "text/ingredient_parser.h"

#include <array>
#include <cctype>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "text/normalize.h"
#include "text/tokenizer.h"
#include "util/strings.h"

namespace culevo {
namespace {

struct UnitAlias {
  std::string_view surface;
  Unit unit;
};

// Normalized (lowercase, stem-free) unit surfaces. Plural forms are listed
// explicitly because unit words are matched before stemming.
constexpr std::array<UnitAlias, 44> kUnitAliases = {{
    {"teaspoon", Unit::kTeaspoon},   {"teaspoons", Unit::kTeaspoon},
    {"tsp", Unit::kTeaspoon},        {"tsps", Unit::kTeaspoon},
    {"tablespoon", Unit::kTablespoon}, {"tablespoons", Unit::kTablespoon},
    {"tbsp", Unit::kTablespoon},     {"tbsps", Unit::kTablespoon},
    {"tbs", Unit::kTablespoon},      {"cup", Unit::kCup},
    {"cups", Unit::kCup},            {"c", Unit::kCup},
    {"ounce", Unit::kOunce},         {"ounces", Unit::kOunce},
    {"oz", Unit::kOunce},            {"pound", Unit::kPound},
    {"pounds", Unit::kPound},        {"lb", Unit::kPound},
    {"lbs", Unit::kPound},           {"gram", Unit::kGram},
    {"grams", Unit::kGram},          {"g", Unit::kGram},
    {"kilogram", Unit::kKilogram},   {"kilograms", Unit::kKilogram},
    {"kg", Unit::kKilogram},         {"milliliter", Unit::kMilliliter},
    {"milliliters", Unit::kMilliliter}, {"ml", Unit::kMilliliter},
    {"liter", Unit::kLiter},         {"liters", Unit::kLiter},
    {"l", Unit::kLiter},             {"pinch", Unit::kPinch},
    {"pinches", Unit::kPinch},       {"dash", Unit::kDash},
    {"dashes", Unit::kDash},         {"clove", Unit::kClove},
    {"cloves", Unit::kClove},        {"slice", Unit::kSlice},
    {"slices", Unit::kSlice},        {"can", Unit::kCan},
    {"cans", Unit::kCan},            {"package", Unit::kPackage},
    {"bunch", Unit::kBunch},         {"piece", Unit::kPiece},
}};

// Preparation words commonly prefixed to the actual ingredient.
constexpr std::array<std::string_view, 18> kPreparationWords = {
    "chopped",  "minced",  "diced",    "sliced",  "grated", "shredded",
    "crushed",  "ground",  "finely",   "coarsely", "freshly", "fresh",
    "frozen",   "cooked",  "uncooked", "melted",  "softened", "beaten",
};

bool LooksLikeNumberToken(const std::string& token) {
  bool digit_seen = false;
  for (char c : token) {
    if (c >= '0' && c <= '9') {
      digit_seen = true;
    } else if (c != '.' && c != '/') {
      return false;
    }
  }
  return digit_seen;
}

// Parses "3", "2.5", or "1/2". Returns false on malformed fractions.
bool ParseNumberToken(const std::string& token, double* out) {
  const size_t slash = token.find('/');
  if (slash == std::string::npos) {
    return ParseDouble(token, out);
  }
  double numerator = 0.0;
  double denominator = 0.0;
  if (!ParseDouble(token.substr(0, slash), &numerator)) return false;
  if (!ParseDouble(token.substr(slash + 1), &denominator)) return false;
  if (denominator == 0.0) return false;
  *out = numerator / denominator;
  return true;
}

Unit LookupUnit(const std::string& token) {
  for (const UnitAlias& alias : kUnitAliases) {
    if (token == alias.surface) return alias.unit;
  }
  return Unit::kNone;
}

bool IsPreparationWord(const std::string& token) {
  for (std::string_view word : kPreparationWords) {
    if (token == word) return true;
  }
  return false;
}

}  // namespace

ParsedIngredientLine ParseIngredientLine(std::string_view raw) {
  ParsedIngredientLine parsed;
  // Note: NormalizeMention maps '/' to a space, so fractions are split
  // into separate tokens; re-detect them positionally below.
  std::vector<std::string> tokens;
  {
    // Custom pre-pass that keeps '.' and '/' inside number tokens.
    std::string cleaned;
    cleaned.reserve(raw.size());
    for (char c : raw) {
      const unsigned char b = static_cast<unsigned char>(c);
      if ((b >= '0' && b <= '9') || c == '.' || c == '/') {
        cleaned.push_back(c);
      } else if (b < 0x80) {
        const char lower = static_cast<char>(
            std::tolower(static_cast<unsigned char>(b)));
        cleaned.push_back(
            (lower >= 'a' && lower <= 'z') ? lower : ' ');
      } else {
        cleaned.push_back(' ');
      }
    }
    tokens = SplitAndTrim(cleaned, ' ');
  }

  size_t i = 0;
  // 1. Quantity: one or two leading number tokens ("2", "2 1/2").
  double quantity = 0.0;
  bool has_quantity = false;
  while (i < tokens.size() && LooksLikeNumberToken(tokens[i])) {
    double value = 0.0;
    if (!ParseNumberToken(tokens[i], &value)) break;
    quantity += value;
    has_quantity = true;
    ++i;
    if (i >= 2 + 1) break;  // At most two number tokens.
  }
  if (has_quantity) parsed.quantity = quantity;

  // 2. Unit word (optionally followed by "of").
  if (i < tokens.size()) {
    const Unit unit = LookupUnit(tokens[i]);
    if (unit != Unit::kNone) {
      parsed.unit = unit;
      ++i;
      if (i < tokens.size() && tokens[i] == "of") ++i;
    }
  }

  // 3. Preparation words.
  std::vector<std::string> preparation;
  while (i < tokens.size() && IsPreparationWord(tokens[i])) {
    preparation.push_back(tokens[i]);
    ++i;
  }
  parsed.preparation = Join(preparation, " ");

  // 4. The remainder is the ingredient mention, re-normalized so callers
  //    can hand it straight to Lexicon::ResolveMention.
  std::vector<std::string> rest(tokens.begin() + static_cast<long>(i),
                                tokens.end());
  parsed.mention = NormalizeMention(Join(rest, " "));
  return parsed;
}

}  // namespace culevo
