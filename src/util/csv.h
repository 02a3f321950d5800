#ifndef CULEVO_UTIL_CSV_H_
#define CULEVO_UTIL_CSV_H_

#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace culevo {

/// Parsed delimiter-separated content: rows of string fields.
struct DsvTable {
  std::vector<std::vector<std::string>> rows;

  size_t num_rows() const { return rows.size(); }
};

/// Parses delimiter-separated text. Supports RFC-4180-style double-quote
/// quoting (embedded delimiters, quotes doubled). Handles \n and \r\n line
/// endings. A trailing newline does not produce an empty final row.
Result<DsvTable> ParseDsv(std::string_view text, char delimiter);

/// Reads and parses a delimiter-separated file.
Result<DsvTable> ReadDsvFile(const std::string& path, char delimiter);

/// Serializes rows, quoting any field containing the delimiter, a quote,
/// or a newline, and a row's only field when it is empty.
std::string FormatDsv(const DsvTable& table, char delimiter);

/// Writes `table` to `path` atomically (via util/file_io.h's
/// WriteFileAtomic): on any failure the previous destination file is left
/// intact, never a truncated partial.
Status WriteDsvFile(const std::string& path, const DsvTable& table,
                    char delimiter);

/// Reads a whole file into a string. Failpoints: `io.read.open`,
/// `io.read.stream`.
Result<std::string> ReadFileToString(const std::string& path);

/// Writes a string to a file atomically (temp file + fsync + rename with
/// bounded retry — see WriteFileAtomic).
Status WriteStringToFile(const std::string& path, std::string_view content);

}  // namespace culevo

#endif  // CULEVO_UTIL_CSV_H_
