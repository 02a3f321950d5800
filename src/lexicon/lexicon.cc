#include "lexicon/lexicon.h"

#include "text/normalize.h"
#include "text/stemmer.h"
#include "text/tokenizer.h"
#include "util/check.h"
#include "util/strings.h"

namespace culevo {

std::string Lexicon::AliasKey(std::string_view surface) {
  return StemPhrase(NormalizeMention(surface));
}

Result<IngredientId> Lexicon::Add(std::string_view name, Category category,
                                  bool compound) {
  if (entries_.size() >= kInvalidIngredient) {
    return Status::OutOfRange("lexicon full (65535 entities)");
  }
  const std::string key = AliasKey(name);
  if (key.empty()) {
    return Status::InvalidArgument("ingredient name normalizes to empty: '" +
                                   std::string(name) + "'");
  }
  if (alias_map_.count(key) != 0) {
    return Status::AlreadyExists("duplicate ingredient alias: '" + key + "'");
  }
  const IngredientId id = static_cast<IngredientId>(entries_.size());
  entries_.push_back(IngredientEntry{std::string(name), category, compound});
  alias_map_.emplace(key, id);
  alias_trie_.Insert(TokenizeNormalized(key), id);
  if (compound) ++num_compounds_;
  return id;
}

Status Lexicon::AddAlias(IngredientId id, std::string_view alias) {
  if (id >= entries_.size()) {
    return Status::NotFound(
        StrFormat("no ingredient with id %u", unsigned{id}));
  }
  const std::string key = AliasKey(alias);
  if (key.empty()) {
    return Status::InvalidArgument("alias normalizes to empty: '" +
                                   std::string(alias) + "'");
  }
  auto it = alias_map_.find(key);
  if (it != alias_map_.end()) {
    if (it->second == id) return Status::Ok();  // Idempotent.
    return Status::AlreadyExists("alias '" + key +
                                 "' already maps to a different entity");
  }
  alias_map_.emplace(key, id);
  alias_trie_.Insert(TokenizeNormalized(key), id);
  return Status::Ok();
}

const IngredientEntry& Lexicon::entry(IngredientId id) const {
  CULEVO_CHECK(id < entries_.size());
  return entries_[id];
}

std::optional<IngredientId> Lexicon::Find(std::string_view mention) const {
  auto it = alias_map_.find(AliasKey(mention));
  if (it == alias_map_.end()) return std::nullopt;
  return it->second;
}

std::vector<IngredientId> Lexicon::ResolveMention(
    std::string_view mention) const {
  const std::vector<std::string> tokens =
      TokenizeNormalized(AliasKey(mention));
  std::vector<IngredientId> out;
  for (int64_t value : alias_trie_.ScanAll(tokens)) {
    const IngredientId id = static_cast<IngredientId>(value);
    bool seen = false;
    for (IngredientId existing : out) {
      if (existing == id) {
        seen = true;
        break;
      }
    }
    if (!seen) out.push_back(id);
  }
  return out;
}

std::vector<IngredientId> Lexicon::AllIds() const {
  std::vector<IngredientId> ids(entries_.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<IngredientId>(i);
  }
  return ids;
}

}  // namespace culevo
