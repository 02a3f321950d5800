#ifndef CULEVO_UTIL_CSV_H_
#define CULEVO_UTIL_CSV_H_

#include <string>
#include <string_view>

#include "util/status.h"

namespace culevo {

/// Reads a whole file into a string. Failpoints: `io.read.open`,
/// `io.read.stream`.
Result<std::string> ReadFileToString(const std::string& path);

/// Writes a string to a file atomically (temp file + fsync + rename — see
/// WriteFileAtomic).
Status WriteStringToFile(const std::string& path, std::string_view content);

}  // namespace culevo

#endif  // CULEVO_UTIL_CSV_H_
