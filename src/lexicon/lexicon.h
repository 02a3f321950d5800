#ifndef CULEVO_LEXICON_LEXICON_H_
#define CULEVO_LEXICON_LEXICON_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "lexicon/category.h"
#include "text/phrase_trie.h"
#include "util/status.h"

namespace culevo {

/// Dense ingredient-entity identifier; indices into Lexicon storage.
using IngredientId = uint16_t;

inline constexpr IngredientId kInvalidIngredient = 0xFFFF;

/// One standardized ingredient entity (Section II of the paper).
struct IngredientEntry {
  std::string name;         ///< Canonical display name, e.g. "Soybean Sauce".
  Category category;        ///< One of the 21 categories.
  bool compound = false;    ///< True for multi-ingredient entities
                            ///< ("Ginger Garlic Paste").
};

/// The standardized ingredient dictionary with alias resolution.
///
/// Mirrors the paper's FlavorDB-derived lexicon: each entity has a canonical
/// name, a category, optional aliases, and a compound flag. Mentions are
/// resolved with the Bagler–Singh aliasing protocol: normalize, stem, then
/// longest-phrase match (compound entities win over their parts).
class Lexicon {
 public:
  Lexicon() = default;

  /// Registers a new entity. The canonical name (normalized + stemmed) is
  /// automatically an alias. Fails with AlreadyExists if the normalized
  /// name collides with an existing alias.
  Result<IngredientId> Add(std::string_view name, Category category,
                           bool compound = false);

  /// Registers an extra surface form for `id` ("soy sauce" -> Soybean
  /// Sauce). Fails with AlreadyExists on collisions, NotFound on bad id.
  Status AddAlias(IngredientId id, std::string_view alias);

  size_t size() const { return entries_.size(); }

  /// Precondition: id < size().
  const IngredientEntry& entry(IngredientId id) const;
  const std::string& name(IngredientId id) const { return entry(id).name; }
  Category category(IngredientId id) const { return entry(id).category; }
  bool is_compound(IngredientId id) const { return entry(id).compound; }

  /// Exact lookup of one mention (whole string must match one alias after
  /// normalization + stemming). Returns nullopt if unknown.
  std::optional<IngredientId> Find(std::string_view mention) const;

  /// Longest-match scan over a free-text mention; returns each matched
  /// entity once, in order of first appearance. Unknown words are skipped.
  /// "fresh ginger garlic paste and ginger" -> {GingerGarlicPaste, Ginger}.
  std::vector<IngredientId> ResolveMention(std::string_view mention) const;

  /// All entity ids, 0..size()-1.
  std::vector<IngredientId> AllIds() const;

  /// Number of compound entities.
  size_t num_compounds() const { return num_compounds_; }

 private:
  /// Canonical alias key: normalized and stemmed.
  static std::string AliasKey(std::string_view surface);

  std::vector<IngredientEntry> entries_;
  PhraseTrie alias_trie_;
  std::unordered_map<std::string, IngredientId> alias_map_;
  size_t num_compounds_ = 0;
};

}  // namespace culevo

#endif  // CULEVO_LEXICON_LEXICON_H_
