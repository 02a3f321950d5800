#include "corpus/corpus_io.h"

#include <optional>
#include <span>

#include "util/csv.h"
#include "util/failpoint.h"
#include "util/strings.h"

namespace culevo {

Result<RecipeCorpus> ParseCorpusTsv(std::string_view text,
                                    const Lexicon& lexicon,
                                    bool skip_unknown) {
  RecipeCorpus::Builder builder;
  // Prepass: a '\n' per recipe and a ';' per extra mention bound the column
  // sizes, so the builder reserves once instead of reallocating its way up
  // through a million-recipe corpus.
  size_t newlines = 0;
  size_t semis = 0;
  for (const char c : text) {
    if (c == '\n') {
      ++newlines;
    } else if (c == ';') {
      ++semis;
    }
  }
  builder.Reserve(newlines + 1, newlines + 1 + semis);

  std::vector<IngredientId> ids;  // Reused across lines.
  size_t line_no = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t eol = text.find('\n', pos);
    const std::string_view line =
        eol == std::string_view::npos ? text.substr(pos)
                                      : text.substr(pos, eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    const std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    CULEVO_FAILPOINT("corpus.parse.row");
    const size_t tab = trimmed.find('\t');
    if (tab == std::string_view::npos ||
        trimmed.find('\t', tab + 1) != std::string_view::npos) {
      return Status::InvalidArgument(StrFormat(
          "corpus line %zu: expected cuisine<TAB>ingredients", line_no));
    }
    Result<CuisineId> cuisine = CuisineFromCode(Trim(trimmed.substr(0, tab)));
    if (!cuisine.ok()) {
      return Status::InvalidArgument(
          StrFormat("corpus line %zu: %s", line_no,
                    cuisine.status().message().c_str()));
    }
    ids.clear();
    const std::string_view mentions = trimmed.substr(tab + 1);
    size_t field_pos = 0;
    while (field_pos <= mentions.size()) {
      const size_t semi = mentions.find(';', field_pos);
      const std::string_view field =
          semi == std::string_view::npos
              ? mentions.substr(field_pos)
              : mentions.substr(field_pos, semi - field_pos);
      field_pos = semi == std::string_view::npos ? mentions.size() + 1
                                                 : semi + 1;
      const std::string_view mention = Trim(field);
      if (mention.empty()) continue;
      std::optional<IngredientId> id = lexicon.Find(mention);
      if (!id.has_value()) {
        // Fall back to the scanning protocol for free-form mentions.
        std::vector<IngredientId> resolved = lexicon.ResolveMention(mention);
        if (resolved.empty()) {
          if (skip_unknown) continue;
          return Status::NotFound(StrFormat(
              "corpus line %zu: unknown ingredient '%.*s'", line_no,
              static_cast<int>(mention.size()), mention.data()));
        }
        ids.insert(ids.end(), resolved.begin(), resolved.end());
        continue;
      }
      ids.push_back(*id);
    }
    if (ids.empty() && skip_unknown) continue;
    Status status =
        builder.Add(cuisine.value(), std::span<const IngredientId>(ids));
    if (!status.ok()) {
      return Status::InvalidArgument(StrFormat(
          "corpus line %zu: %s", line_no, status.message().c_str()));
    }
  }
  return builder.Build();
}

std::string FormatCorpusTsv(const RecipeCorpus& corpus,
                            const Lexicon& lexicon) {
  std::string out = "# culevo corpus: cuisine\tingredient;ingredient;...\n";
  for (uint32_t i = 0; i < corpus.num_recipes(); ++i) {
    const RecipeView view = corpus.recipe(i);
    out += CuisineAt(view.cuisine).code;
    out += '\t';
    bool first = true;
    for (IngredientId id : view.ingredients) {
      if (!first) out += ';';
      out += lexicon.name(id);
      first = false;
    }
    out += '\n';
  }
  return out;
}

Status WriteCorpusTsv(const std::string& path, const RecipeCorpus& corpus,
                      const Lexicon& lexicon) {
  return WriteStringToFile(path, FormatCorpusTsv(corpus, lexicon));
}

}  // namespace culevo
