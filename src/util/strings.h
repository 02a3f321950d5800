#ifndef CULEVO_UTIL_STRINGS_H_
#define CULEVO_UTIL_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace culevo {

/// Splits `text` on `sep`. Adjacent separators yield empty fields; an empty
/// input yields a single empty field (CSV semantics).
std::vector<std::string> Split(std::string_view text, char sep);

/// Splits and drops empty fields after trimming whitespace from each field.
std::vector<std::string> SplitAndTrim(std::string_view text, char sep);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

/// ASCII lowercase copy.
std::string ToLower(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Parses a whole string as a value; returns false on trailing garbage.
bool ParseInt64(std::string_view text, long long* out);
bool ParseDouble(std::string_view text, double* out);

}  // namespace culevo

#endif  // CULEVO_UTIL_STRINGS_H_
