#ifndef CULEVO_UTIL_FLAGS_H_
#define CULEVO_UTIL_FLAGS_H_

#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace culevo {

/// Minimal command-line flag parser for the benchmark and example binaries.
///
/// Accepts `--name=value`, `--name value`, and bare boolean `--name`.
/// Everything that does not start with `--` is collected as a positional
/// argument.
class FlagParser {
 public:
  /// Parses argv; returns InvalidArgument on duplicate flags.
  Status Parse(int argc, const char* const* argv);

  /// As above, and InvalidArgument naming a `--name` that is not one of
  /// `known` (the flags the binary reads), so that a misspelled flag is
  /// refused instead of silently ignored.
  Status Parse(int argc, const char* const* argv,
               const std::vector<std::string_view>& known);

  bool Has(const std::string& name) const;

  /// Typed getters with defaults. A value that does not parse as the
  /// getter's type is a usage error: the getter prints
  /// `InvalidArgument: invalid value '<value>' for --<name>` to stderr and
  /// exits the process with status 2, as every binary does when Parse
  /// fails.
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  long long GetInt(const std::string& name, long long default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  /// GetInt for a flag whose value must lie in [min, max]; a value outside
  /// is refused as RefuseValue refuses it.
  int GetIntIn(const std::string& name, int default_value, int min,
               int max = std::numeric_limits<int>::max()) const;

  /// Refuses the value given for `--name` as the typed getters refuse one
  /// that does not parse (same line, exit status 2). For a value that
  /// parses but lies outside what the binary accepts.
  [[noreturn]] void RefuseValue(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace culevo

#endif  // CULEVO_UTIL_FLAGS_H_
