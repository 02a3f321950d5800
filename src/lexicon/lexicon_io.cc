#include "lexicon/lexicon_io.h"

#include "util/csv.h"
#include "util/strings.h"

namespace culevo {

Result<Lexicon> ParseLexiconTsv(std::string_view text) {
  Lexicon lexicon;
  size_t line_no = 0;
  for (const std::string& line : Split(text, '\n')) {
    ++line_no;
    const std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    const std::vector<std::string> fields = Split(trimmed, '\t');
    if (fields.size() < 3) {
      return Status::InvalidArgument(
          StrFormat("lexicon line %zu: expected >= 3 tab-separated fields",
                    line_no));
    }
    Result<Category> category = CategoryFromName(fields[0]);
    if (!category.ok()) {
      return Status::InvalidArgument(
          StrFormat("lexicon line %zu: %s", line_no,
                    category.status().message().c_str()));
    }
    long long compound = 0;
    if (!ParseInt64(fields[2], &compound) ||
        (compound != 0 && compound != 1)) {
      return Status::InvalidArgument(
          StrFormat("lexicon line %zu: compound flag must be 0 or 1",
                    line_no));
    }
    Result<IngredientId> id =
        lexicon.Add(Trim(fields[1]), category.value(), compound == 1);
    if (!id.ok()) {
      return Status::InvalidArgument(StrFormat(
          "lexicon line %zu: %s", line_no, id.status().message().c_str()));
    }
    if (fields.size() >= 4) {
      for (const std::string& alias : SplitAndTrim(fields[3], ';')) {
        Status status = lexicon.AddAlias(id.value(), alias);
        if (!status.ok()) {
          return Status::InvalidArgument(StrFormat(
              "lexicon line %zu: %s", line_no, status.message().c_str()));
        }
      }
    }
  }
  return lexicon;
}

std::string FormatLexiconTsv(const Lexicon& lexicon) {
  std::string out =
      "# culevo lexicon: category\tname\tcompound\taliases\n";
  for (size_t i = 0; i < lexicon.size(); ++i) {
    const IngredientId id = static_cast<IngredientId>(i);
    const IngredientEntry& e = lexicon.entry(id);
    out += std::string(CategoryName(e.category));
    out += '\t';
    out += e.name;
    out += '\t';
    out += e.compound ? '1' : '0';
    out += "\t\n";
  }
  return out;
}

Status WriteLexiconTsv(const std::string& path, const Lexicon& lexicon) {
  return WriteStringToFile(path, FormatLexiconTsv(lexicon));
}

}  // namespace culevo
