#ifndef CULEVO_UTIL_FILE_IO_H_
#define CULEVO_UTIL_FILE_IO_H_

#include <string>
#include <string_view>

#include "util/status.h"

namespace culevo {

/// Writes all of `data` to `fd`, looping over partial writes and EINTR.
/// `path` names the file in the IOError.
Status WriteAll(int fd, std::string_view data, const std::string& path);

/// One atomic replacement of a file, written in pieces: Open creates a
/// unique temp file in the target directory (skipping a name a crashed
/// process left taken), Write appends to it, and Commit flushes it (fsync
/// when `sync` is set), renames it over the target and fsyncs the
/// directory. Readers — and crashes at any point — observe either the
/// complete previous file or the complete new one, never a truncated
/// hybrid: the target keeps its old bytes until Commit succeeds. A failed
/// step, or destroying the writer before Commit, unlinks the temp file.
/// Nothing is retried.
///
/// Metrics: `io.write.atomic` (successful commits).
///
/// Failpoints: `io.write.open` (Open), `io.write.write` (each Write),
/// `io.write.sync` and `io.write.rename` (Commit), each inside its step.
class AtomicFileWriter {
 public:
  AtomicFileWriter() = default;
  ~AtomicFileWriter();
  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  /// Starts replacing `path`, abandoning any uncommitted replacement.
  Status Open(std::string path, bool sync);
  /// Appends `data` to the replacement; a failure abandons it.
  Status Write(std::string_view data);
  /// Publishes the replacement. The writer is closed afterwards, whether
  /// or not Commit succeeded; Write and Commit are then refused until the
  /// next Open.
  Status Commit();

 private:
  /// Closes the temp file and unlinks it, if there is one.
  void Abandon();

  std::string path_;
  std::string temp_;
  int fd_ = -1;
  bool sync_ = true;
};

/// Writes `content` to `path` atomically through one AtomicFileWriter
/// Open–Write–Commit. With `sync`, a crash right after an OK return
/// cannot lose the content. A failed step's status returns at once; the
/// target keeps its old bytes and no temp file is left.
///
/// Metrics and failpoints: AtomicFileWriter's.
Status WriteFileAtomic(const std::string& path, std::string_view content,
                       bool sync = true);

}  // namespace culevo

#endif  // CULEVO_UTIL_FILE_IO_H_
