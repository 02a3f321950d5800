#ifndef CULEVO_LEXICON_LEXICON_IO_H_
#define CULEVO_LEXICON_LEXICON_IO_H_

#include <string>
#include <string_view>

#include "lexicon/lexicon.h"
#include "util/status.h"

namespace culevo {

/// Lexicon serialization format: one entity per line,
///   category<TAB>name<TAB>compound(0|1)<TAB>alias1;alias2;...
/// Lines starting with '#' and blank lines are ignored. Aliases column may
/// be empty or absent.
Result<Lexicon> ParseLexiconTsv(std::string_view text);

/// Serializes in the format accepted by ParseLexiconTsv. Aliases other than
/// the canonical name are not stored in Lexicon by surface form, so the
/// alias column is emitted empty; round-tripping preserves entities.
std::string FormatLexiconTsv(const Lexicon& lexicon);

Status WriteLexiconTsv(const std::string& path, const Lexicon& lexicon);

}  // namespace culevo

#endif  // CULEVO_LEXICON_LEXICON_IO_H_
