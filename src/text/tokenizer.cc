#include "text/tokenizer.h"

#include "util/strings.h"

namespace culevo {

std::vector<std::string> TokenizeNormalized(std::string_view normalized) {
  return SplitAndTrim(normalized, ' ');
}

}  // namespace culevo
