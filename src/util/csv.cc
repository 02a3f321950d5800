#include "util/csv.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>

#include "util/failpoint.h"
#include "util/file_io.h"
#include "util/strings.h"

namespace culevo {

Result<DsvTable> ParseDsv(std::string_view text, char delimiter) {
  DsvTable table;
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool row_has_content = false;

  const auto end_field = [&]() {
    row.push_back(std::move(field));
    field.clear();
  };
  const auto end_row = [&]() {
    end_field();
    table.rows.push_back(std::move(row));
    row.clear();
    row_has_content = false;
  };

  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field.push_back(c);
      }
      continue;
    }
    if (c == '"') {
      if (!field.empty()) {
        return Status::InvalidArgument(StrFormat(
            "unexpected quote inside unquoted field at offset %zu", i));
      }
      in_quotes = true;
      row_has_content = true;
    } else if (c == delimiter) {
      end_field();
      row_has_content = true;
    } else if (c == '\r' && i + 1 < text.size() && text[i + 1] == '\n') {
      // Unquoted CRLF line ending: drop the \r, let the \n end the row.
      // (A quoted \r is data and is handled in the in_quotes branch.)
    } else if (c == '\n') {
      if (row_has_content || !field.empty() || !row.empty()) end_row();
    } else {
      field.push_back(c);
      row_has_content = true;
    }
  }
  if (in_quotes) {
    return Status::InvalidArgument("unterminated quoted field at end of input");
  }
  if (row_has_content || !field.empty() || !row.empty()) end_row();
  return table;
}

Result<DsvTable> ReadDsvFile(const std::string& path, char delimiter) {
  Result<std::string> content = ReadFileToString(path);
  if (!content.ok()) return content.status();
  return ParseDsv(content.value(), delimiter);
}

namespace {

bool NeedsQuoting(const std::string& field, char delimiter) {
  for (char c : field) {
    if (c == delimiter || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

void AppendField(std::string* out, const std::string& field, char delimiter) {
  if (!NeedsQuoting(field, delimiter)) {
    out->append(field);
    return;
  }
  out->push_back('"');
  for (char c : field) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

}  // namespace

std::string FormatDsv(const DsvTable& table, char delimiter) {
  std::string out;
  for (const std::vector<std::string>& row : table.rows) {
    if (row.size() == 1 && row[0].empty()) {
      // Unquoted, this row would be a bare newline, which reads back as no
      // row at all.
      out.append("\"\"\n");
      continue;
    }
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out.push_back(delimiter);
      AppendField(&out, row[i], delimiter);
    }
    out.push_back('\n');
  }
  return out;
}

Status WriteDsvFile(const std::string& path, const DsvTable& table,
                    char delimiter) {
  return WriteStringToFile(path, FormatDsv(table, delimiter));
}

Result<std::string> ReadFileToString(const std::string& path) {
  CULEVO_FAILPOINT("io.read.open");
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IOError("cannot open for reading: " + path);
  // One byte past the size fstat reports, so the read that sees EOF needs
  // no room; a file that grows meanwhile (or reports no size, like a pipe)
  // doubles the buffer.
  struct stat st;
  std::string content(::fstat(fd, &st) == 0 && st.st_size > 0
                          ? static_cast<size_t>(st.st_size) + 1
                          : 1,
                      '\0');
  size_t filled = 0;
  ssize_t n = 0;
  while ((n = ::read(fd, content.data() + filled, content.size() - filled))) {
    if (n < 0 && errno != EINTR) break;
    if (n > 0) filled += static_cast<size_t>(n);
    if (filled == content.size()) content.resize(2 * filled);
  }
  ::close(fd);
  content.resize(filled);
  CULEVO_FAILPOINT("io.read.stream");
  if (n < 0) return Status::IOError("read failure: " + path);
  return content;
}

Status WriteStringToFile(const std::string& path, std::string_view content) {
  return WriteFileAtomic(path, content);
}

}  // namespace culevo
