#include "util/file_io.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/csv.h"
#include "util/failpoint.h"
#include "util/strings.h"

namespace culevo {
namespace {

/// The pre-fault-tolerance write path, kept here as the regression
/// baseline for WriteFileAtomic: truncate `path` in place, then stream the
/// bytes. A failure mid-write (failpoint `io.write.stream`) leaves a
/// corrupt partial file.
Status WriteStringToFileTruncating(const std::string& path,
                                   std::string_view content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  CULEVO_FAILPOINT("io.write.stream");
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  out.flush();
  if (!out) return Status::IOError("write failure: " + path);
  return Status::Ok();
}

class FileIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/culevo_file_io_test.txt";
    std::remove(path_.c_str());
  }
  void TearDown() override {
    Failpoints::Get().DisarmAll();
    std::remove(path_.c_str());
    for (const std::string& temp : TempFiles()) std::remove(temp.c_str());
  }

  std::string ReadBack() {
    Result<std::string> content = ReadFileToString(path_);
    return content.ok() ? content.value() : "<unreadable>";
  }

  /// The temp files of writers replacing `path_`, as `<path_>.tmp-...`,
  /// sorted.
  std::vector<std::string> TempFiles() {
    const std::string file = std::filesystem::path(path_).filename().string();
    std::vector<std::string> temps;
    for (const auto& entry : std::filesystem::directory_iterator(
             std::filesystem::path(path_).parent_path())) {
      const std::string name = entry.path().filename().string();
      if (name.rfind(file + ".tmp-", 0) == 0) {
        temps.push_back(path_ + name.substr(file.size()));
      }
    }
    std::sort(temps.begin(), temps.end());
    return temps;
  }

  std::string path_;
};

TEST_F(FileIoTest, WritesNewFile) {
  ASSERT_TRUE(WriteFileAtomic(path_, "hello\n", /*sync=*/false).ok());
  EXPECT_EQ(ReadBack(), "hello\n");
}

TEST_F(FileIoTest, OverwritesExistingFile) {
  ASSERT_TRUE(WriteFileAtomic(path_, "first", /*sync=*/false).ok());
  ASSERT_TRUE(WriteFileAtomic(path_, "second", /*sync=*/false).ok());
  EXPECT_EQ(ReadBack(), "second");
}

TEST_F(FileIoTest, SyncedWriteAlsoWorks) {
  ASSERT_TRUE(WriteFileAtomic(path_, "durable").ok());
  EXPECT_EQ(ReadBack(), "durable");
}

TEST_F(FileIoTest, MissingDirectoryFails) {
  EXPECT_FALSE(
      WriteFileAtomic("/nonexistent-dir/x.txt", "x", /*sync=*/false).ok());
}

// The regression pair the fault-tolerance work exists for: the old
// truncate-in-place path destroys the previous artifact when the write
// fails mid-stream, the atomic path cannot.
TEST_F(FileIoTest, TruncatingWriteCorruptsOnMidStreamFailure) {
  ASSERT_TRUE(WriteFileAtomic(path_, "precious artifact", /*sync=*/false).ok());
  Failpoints::Get().Arm("io.write.stream");
  EXPECT_FALSE(WriteStringToFileTruncating(path_, "replacement").ok());
  // The destination was already truncated when the failure hit: the old
  // content is gone and automation would read a corrupt empty artifact.
  EXPECT_EQ(ReadBack(), "");
}

TEST_F(FileIoTest, AtomicWriteLeavesDestinationIntactOnFailure) {
  ASSERT_TRUE(WriteFileAtomic(path_, "precious artifact", /*sync=*/false).ok());
  for (const char* site :
       {"io.write.open", "io.write.write", "io.write.rename"}) {
    SCOPED_TRACE(site);
    Failpoints::Get().Arm(site);
    EXPECT_FALSE(WriteFileAtomic(path_, "replacement", /*sync=*/false).ok());
    Failpoints::Get().DisarmAll();
    // The write failed, yet the previous artifact is byte-identical.
    EXPECT_EQ(ReadBack(), "precious artifact");
  }
}

TEST_F(FileIoTest, SyncFailureAlsoLeavesDestinationIntact) {
  ASSERT_TRUE(WriteFileAtomic(path_, "precious artifact").ok());
  Failpoints::Get().Arm("io.write.sync");
  EXPECT_FALSE(WriteFileAtomic(path_, "replacement").ok());
  Failpoints::Get().DisarmAll();
  EXPECT_EQ(ReadBack(), "precious artifact");
}

// A failed write returns its step's status at once: each armed site is hit
// once, the target keeps its bytes and no temp file is left.
TEST_F(FileIoTest, FailedWriteIsNotRetried) {
  ASSERT_TRUE(WriteFileAtomic(path_, "precious artifact", /*sync=*/false).ok());
  for (const char* site : {"io.write.open", "io.write.write", "io.write.sync",
                           "io.write.rename"}) {
    SCOPED_TRACE(site);
    Failpoints::Get().Arm(site);
    EXPECT_EQ(WriteFileAtomic(path_, "replacement", /*sync=*/false).code(),
              StatusCode::kIOError);
    EXPECT_EQ(Failpoints::Get().HitCount(site), 1);
    Failpoints::Get().DisarmAll();
    EXPECT_EQ(ReadBack(), "precious artifact");
    EXPECT_TRUE(TempFiles().empty());
  }
  // A real error, counted by a failpoint that never fires.
  Failpoints::ArmSpec pass_through;
  pass_through.skip = 1'000'000;
  Failpoints::Get().Arm("io.write.open", pass_through);
  EXPECT_EQ(WriteFileAtomic("/nonexistent-dir/x.txt", "x", /*sync=*/false)
                .code(),
            StatusCode::kIOError);
  EXPECT_EQ(Failpoints::Get().HitCount("io.write.open"), 1);
}

TEST_F(FileIoTest, InjectedStatusPropagatesVerbatim) {
  Failpoints::ArmSpec spec;
  spec.status = Status::Internal("disk on fire");
  Failpoints::Get().Arm("io.write.open", spec);
  const Status status = WriteFileAtomic(path_, "x", /*sync=*/false);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
}

// The streaming writer: `path` keeps its old bytes through every Write and
// changes only at Commit.
TEST_F(FileIoTest, StreamingWriterReplacesThePathOnlyAtCommit) {
  ASSERT_TRUE(WriteFileAtomic(path_, "precious artifact", /*sync=*/false).ok());
  AtomicFileWriter writer;
  ASSERT_TRUE(writer.Open(path_, /*sync=*/false).ok());
  for (const char* piece : {"new ", "artifact"}) {
    ASSERT_TRUE(writer.Write(piece).ok());
    EXPECT_EQ(ReadBack(), "precious artifact");
  }
  EXPECT_EQ(TempFiles().size(), 1u);
  obs::Counter* atomic_writes =
      obs::MetricsRegistry::Get().counter("io.write.atomic");
  const int64_t before = atomic_writes->Value();
  ASSERT_TRUE(writer.Commit().ok());
  EXPECT_EQ(atomic_writes->Value(), before + 1);
  EXPECT_EQ(ReadBack(), "new artifact");
  EXPECT_TRUE(TempFiles().empty());
  // Committed, the writer is closed.
  EXPECT_EQ(writer.Write("more").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(writer.Commit().code(), StatusCode::kFailedPrecondition);
}

TEST_F(FileIoTest, UncommittedWriterLeavesNoTempFile) {
  ASSERT_TRUE(WriteFileAtomic(path_, "precious artifact", /*sync=*/false).ok());
  {
    AtomicFileWriter writer;
    ASSERT_TRUE(writer.Open(path_, /*sync=*/false).ok());
    ASSERT_TRUE(writer.Write("half a replacement").ok());
    EXPECT_EQ(TempFiles().size(), 1u);
  }
  EXPECT_TRUE(TempFiles().empty());
  EXPECT_EQ(ReadBack(), "precious artifact");

  // Opening again abandons the first replacement too.
  AtomicFileWriter writer;
  ASSERT_TRUE(writer.Open(path_, /*sync=*/false).ok());
  ASSERT_TRUE(writer.Write("abandoned").ok());
  ASSERT_TRUE(writer.Open(path_, /*sync=*/false).ok());
  EXPECT_EQ(TempFiles().size(), 1u);
  ASSERT_TRUE(writer.Write("second").ok());
  ASSERT_TRUE(writer.Commit().ok());
  EXPECT_EQ(ReadBack(), "second");
  EXPECT_TRUE(TempFiles().empty());
}

// A step that fails closes the writer and unlinks its temp file, and is
// not retried.
TEST_F(FileIoTest, FailedStepUnlinksItsTempFile) {
  ASSERT_TRUE(WriteFileAtomic(path_, "precious artifact", /*sync=*/false).ok());
  for (const char* site :
       {"io.write.write", "io.write.sync", "io.write.rename"}) {
    SCOPED_TRACE(site);
    AtomicFileWriter writer;
    ASSERT_TRUE(writer.Open(path_, /*sync=*/false).ok());
    ASSERT_TRUE(writer.Write("replace").ok());
    Failpoints::Get().Arm(site);
    Status status = writer.Write("ment");
    if (status.ok()) status = writer.Commit();
    EXPECT_EQ(status.code(), StatusCode::kIOError);
    EXPECT_EQ(Failpoints::Get().HitCount(site), 1);
    Failpoints::Get().DisarmAll();
    EXPECT_TRUE(TempFiles().empty());
    EXPECT_EQ(ReadBack(), "precious artifact");
    EXPECT_EQ(writer.Commit().code(), StatusCode::kFailedPrecondition);
  }
}

// A temp file that a crashed process with this process's pid left behind
// holds a name this process would take next: Open takes the one after.
TEST_F(FileIoTest, OpenSkipsATempNameThatIsTaken) {
  std::string probe;
  {
    AtomicFileWriter writer;
    ASSERT_TRUE(writer.Open(path_, /*sync=*/false).ok());
    ASSERT_EQ(TempFiles().size(), 1u);
    probe = TempFiles()[0];
  }
  // `probe` is "<path>.tmp-<pid>-<n>"; the next writers take n + 1, ...
  const std::string stem = StrFormat("%s.tmp-%d-", path_.c_str(),
                                     static_cast<int>(::getpid()));
  ASSERT_EQ(probe.rfind(stem, 0), 0u) << probe;
  const unsigned long long n = std::stoull(probe.substr(stem.size()));
  std::vector<std::string> stale;
  for (unsigned long long k = n + 1; k <= n + 4; ++k) {
    // Written in place: a WriteFileAtomic would take a temp name itself.
    stale.push_back(stem + std::to_string(k));
    std::ofstream(stale.back()) << "stale";
  }
  std::sort(stale.begin(), stale.end());
  AtomicFileWriter writer;
  ASSERT_TRUE(writer.Open(path_, /*sync=*/false).ok());
  ASSERT_TRUE(writer.Write("fresh").ok());
  ASSERT_TRUE(writer.Commit().ok());
  EXPECT_EQ(ReadBack(), "fresh");
  // The stale files are not the writer's to touch.
  EXPECT_EQ(TempFiles(), stale);
  for (const std::string& file : stale) {
    EXPECT_EQ(ReadFileToString(file).value(), "stale");
    std::remove(file.c_str());
  }
}

TEST_F(FileIoTest, WriteStringToFileIsAtomicNow) {
  // util/csv.h's WriteStringToFile routes through WriteFileAtomic, so the
  // mid-stream corruption above is unreachable through the public artifact
  // writers.
  ASSERT_TRUE(WriteStringToFile(path_, "precious artifact").ok());
  Failpoints::Get().Arm("io.write.rename");
  EXPECT_FALSE(WriteStringToFile(path_, "replacement").ok());
  Failpoints::Get().DisarmAll();
  EXPECT_EQ(ReadBack(), "precious artifact");
}

}  // namespace
}  // namespace culevo
