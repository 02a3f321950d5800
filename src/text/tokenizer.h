#ifndef CULEVO_TEXT_TOKENIZER_H_
#define CULEVO_TEXT_TOKENIZER_H_

#include <string>
#include <string_view>
#include <vector>

namespace culevo {

/// Splits normalized text (see NormalizeMention) into word tokens.
std::vector<std::string> TokenizeNormalized(std::string_view normalized);

}  // namespace culevo

#endif  // CULEVO_TEXT_TOKENIZER_H_
