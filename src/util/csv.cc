#include "util/csv.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>

#include "util/failpoint.h"
#include "util/file_io.h"

namespace culevo {

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
