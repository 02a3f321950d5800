#ifndef CULEVO_CORPUS_CORPUS_IO_H_
#define CULEVO_CORPUS_CORPUS_IO_H_

#include <string>
#include <string_view>

#include "corpus/recipe_corpus.h"
#include "lexicon/lexicon.h"
#include "util/status.h"

namespace culevo {

/// Corpus serialization format: one recipe per line,
///   cuisine_code<TAB>ingredient name;ingredient name;...
/// Lines starting with '#' and blank lines are ignored. Ingredient names
/// are resolved through `lexicon` with the full aliasing protocol;
/// unresolvable mentions make parsing fail (use `skip_unknown` to drop them
/// instead, mirroring real data-cleaning pipelines).
Result<RecipeCorpus> ParseCorpusTsv(std::string_view text,
                                    const Lexicon& lexicon,
                                    bool skip_unknown = false);

/// Serializes in the format accepted by ParseCorpusTsv (canonical names).
std::string FormatCorpusTsv(const RecipeCorpus& corpus,
                            const Lexicon& lexicon);

Status WriteCorpusTsv(const std::string& path, const RecipeCorpus& corpus,
                      const Lexicon& lexicon);

}  // namespace culevo

#endif  // CULEVO_CORPUS_CORPUS_IO_H_
