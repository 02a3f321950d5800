#include "util/file_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <utility>

#include "obs/metrics.h"
#include "util/failpoint.h"
#include "util/strings.h"

namespace culevo {
namespace {

Status ErrnoStatus(const char* op, const std::string& path) {
  return Status::IOError(
      StrFormat("%s %s: %s", op, path.c_str(), std::strerror(errno)));
}

/// Unique-enough temp name in the same directory as `path` (rename(2) is
/// only atomic within one filesystem). The counter disambiguates
/// concurrent writers inside this process; O_EXCL catches the rest, such
/// as a temp file that a crashed process with the same pid left behind.
std::string TempPathFor(const std::string& path) {
  static std::atomic<uint64_t> counter{0};
  return StrFormat("%s.tmp-%d-%llu", path.c_str(),
                   static_cast<int>(::getpid()),
                   static_cast<unsigned long long>(
                       counter.fetch_add(1, std::memory_order_relaxed)));
}

}  // namespace

Status WriteAll(int fd, std::string_view data, const std::string& path) {
  while (!data.empty()) {
    const ssize_t n = ::write(fd, data.data(), data.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write failure", path);
    }
    data.remove_prefix(static_cast<size_t>(n));
  }
  return Status::Ok();
}

AtomicFileWriter::~AtomicFileWriter() { Abandon(); }

void AtomicFileWriter::Abandon() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  if (!temp_.empty()) ::unlink(temp_.c_str());
  temp_.clear();
}

Status AtomicFileWriter::Open(std::string path, bool sync) {
  Abandon();
  path_ = std::move(path);
  sync_ = sync;
  CULEVO_RETURN_IF_ERROR(FailpointCheck("io.write.open"));
  std::string temp;
  do {
    temp = TempPathFor(path_);
    fd_ = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  } while (fd_ < 0 && errno == EEXIST);
  if (fd_ < 0) return ErrnoStatus("cannot open for writing", temp);
  temp_ = std::move(temp);
  return Status::Ok();
}

Status AtomicFileWriter::Write(std::string_view data) {
  if (fd_ < 0) return Status::FailedPrecondition("atomic writer is not open");
  Status status = FailpointCheck("io.write.write");
  if (status.ok()) status = WriteAll(fd_, data, temp_);
  if (!status.ok()) Abandon();
  return status;
}

Status AtomicFileWriter::Commit() {
  if (fd_ < 0) return Status::FailedPrecondition("atomic writer is not open");
  Status status = FailpointCheck("io.write.sync");
  if (status.ok() && sync_ && ::fsync(fd_) != 0) {
    status = ErrnoStatus("fsync failure", temp_);
  }
  const int fd = std::exchange(fd_, -1);
  if (::close(fd) != 0 && status.ok()) {
    status = ErrnoStatus("close failure", temp_);
  }
  if (status.ok()) status = FailpointCheck("io.write.rename");
  if (status.ok() && ::rename(temp_.c_str(), path_.c_str()) != 0) {
    status = ErrnoStatus("rename failure", path_);
  }
  if (!status.ok()) {
    Abandon();
    return status;
  }
  temp_.clear();

  if (sync_) {
    // Persist the directory entry; best-effort (some filesystems reject
    // directory fsync) — the data itself is already durable.
    const size_t slash = path_.find_last_of('/');
    const std::string dir = slash == std::string::npos
                                ? std::string(".")
                                : path_.substr(0, slash + 1);
    const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dir_fd >= 0) {
      ::fsync(dir_fd);
      ::close(dir_fd);
    }
  }
  static obs::Counter* atomic_writes =
      obs::MetricsRegistry::Get().counter("io.write.atomic");
  atomic_writes->Increment();
  return Status::Ok();
}

Status WriteFileAtomic(const std::string& path, std::string_view content,
                       bool sync) {
  AtomicFileWriter writer;
  CULEVO_RETURN_IF_ERROR(writer.Open(path, sync));
  CULEVO_RETURN_IF_ERROR(writer.Write(content));
  return writer.Commit();
}

}  // namespace culevo
