// Corruption-matrix tests for the generic checksummed journal layer
// (util/checkpoint.h): roundtrips, torn/bit-flipped tails, version and
// magic mismatches, failpoint-driven write/read failures, the
// quarantine-then-rewrite protocol, and the appending writer under a
// SIGKILL and a short write. Domain-level resume semantics are in
// checkpoint_resume_test.cc.

#include "util/checkpoint.h"

#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/csv.h"
#include "util/failpoint.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/strings.h"

namespace culevo {
namespace {

/// Creates (or replaces) the journal at `path`, seeded with `records`,
/// as RunJournal::Open does, and leaves `writer` open for Append.
Status OpenSeeded(JournalWriter* writer, const std::string& path,
                  const std::vector<std::string>& records,
                  JournalWriter::Options options) {
  CULEVO_RETURN_IF_ERROR(writer->Begin(path, options));
  for (const std::string& record : records) {
    CULEVO_RETURN_IF_ERROR(writer->Seed(record));
  }
  return writer->Commit();
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/culevo_checkpoint_test.journal";
  }
  void TearDown() override { Failpoints::Get().DisarmAll(); }

  /// A fresh journal holding `payloads`, written through JournalWriter.
  void WriteJournal(const std::vector<std::string>& payloads) {
    JournalWriter writer;
    JournalWriter::Options options;
    options.sync = false;
    ASSERT_TRUE(OpenSeeded(&writer, path_, {}, options).ok());
    for (const std::string& payload : payloads) {
      ASSERT_TRUE(writer.Append(payload).ok());
    }
  }

  std::string ReadRaw() {
    Result<std::string> raw = ReadFileToString(path_);
    EXPECT_TRUE(raw.ok());
    return raw.ok() ? raw.value() : std::string();
  }

  std::string path_;
};

/// Lowers the soft RLIMIT_FSIZE to `bytes` with SIGXFSZ ignored, so a
/// write past the limit fails with EFBIG instead of killing the process.
/// Restores both on destruction.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t bytes) {
    struct sigaction ignore {};
    ignore.sa_handler = SIG_IGN;
    EXPECT_EQ(::sigaction(SIGXFSZ, &ignore, &old_action_), 0);
    EXPECT_EQ(::getrlimit(RLIMIT_FSIZE, &old_limit_), 0);
    struct rlimit limit = old_limit_;
    limit.rlim_cur = bytes;
    EXPECT_EQ(::setrlimit(RLIMIT_FSIZE, &limit), 0);
  }
  ~FileSizeLimit() {
    ::setrlimit(RLIMIT_FSIZE, &old_limit_);
    ::sigaction(SIGXFSZ, &old_action_, nullptr);
  }
  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;

 private:
  struct sigaction old_action_ {};
  struct rlimit old_limit_ {};
};

TEST_F(CheckpointTest, ChecksumIsDeterministicAndContentSensitive) {
  EXPECT_EQ(JournalChecksum("abc"), JournalChecksum("abc"));
  EXPECT_NE(JournalChecksum("abc"), JournalChecksum("abd"));
  EXPECT_NE(JournalChecksum(""), JournalChecksum(" "));
}

// The journal's FNV-1a-64 (which version-1 snapshots also carry) must
// stay the standard one: record lines already on disk carry its values.
TEST_F(CheckpointTest, ChecksumIsStandardFnv1a64) {
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ull);
  EXPECT_EQ(Fnv1a64("bar", Fnv1a64("foo")), Fnv1a64("foobar"));
  EXPECT_EQ(JournalChecksum("foobar"), Fnv1a64("foobar"));

  // A record line as the journal has always written it still verifies.
  ASSERT_TRUE(WriteStringToFile(
                  path_, JournalHeader(kJournalFormatVersion) +
                             "\n7462020f0cdefae0 replica 3 ok\n")
                  .ok());
  Result<JournalContents> contents = ReadJournal(path_);
  ASSERT_TRUE(contents.ok()) << contents.status();
  EXPECT_EQ(contents->records, std::vector<std::string>{"replica 3 ok"});
  EXPECT_EQ(contents->quarantined_records, 0);
}

TEST_F(CheckpointTest, WriteReadRoundtrip) {
  WriteJournal({"kind=a x=1", "kind=b y=2", ""});
  Result<JournalContents> contents = ReadJournal(path_);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents->records,
            (std::vector<std::string>{"kind=a x=1", "kind=b y=2", ""}));
  EXPECT_EQ(contents->quarantined_records, 0);
  EXPECT_FALSE(contents->tail_quarantined());
}

TEST_F(CheckpointTest, OpenSeedsWithExistingRecordsAndFlushesImmediately) {
  JournalWriter writer;
  JournalWriter::Options options;
  options.sync = false;
  ASSERT_TRUE(OpenSeeded(&writer, path_, {"one", "two"}, options).ok());
  EXPECT_EQ(writer.num_records(), 2u);
  // Valid on disk before any Append: an interrupted run that never
  // completes a record still leaves a resumable journal.
  Result<JournalContents> contents = ReadJournal(path_);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents->records, (std::vector<std::string>{"one", "two"}));
}

// Begin and Seed write to a replacement; the journal keeps its old bytes,
// and Append is refused, until Commit publishes it.
TEST_F(CheckpointTest, SeededJournalReplacesTheOldOneAtCommit) {
  WriteJournal({"old"});
  const std::string old_bytes = ReadRaw();
  JournalWriter writer;
  JournalWriter::Options options;
  options.sync = false;
  ASSERT_TRUE(writer.Begin(path_, options).ok());
  ASSERT_TRUE(writer.Seed("one").ok());
  EXPECT_EQ(writer.Seed("two\nlines").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(writer.Append("early").code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(writer.Seed("two").ok());
  EXPECT_EQ(ReadRaw(), old_bytes);

  ASSERT_TRUE(writer.Commit().ok());
  EXPECT_EQ(writer.Seed("late").code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(writer.Append("three").ok());
  EXPECT_EQ(writer.num_records(), 3u);
  Result<JournalContents> contents = ReadJournal(path_);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents->records,
            (std::vector<std::string>{"one", "two", "three"}));
}

TEST_F(CheckpointTest, MissingFileIsNotFound) {
  Result<JournalContents> contents =
      ReadJournal(::testing::TempDir() + "/culevo_no_such.journal");
  EXPECT_EQ(contents.status().code(), StatusCode::kNotFound);
}

TEST_F(CheckpointTest, BadMagicIsInvalidArgument) {
  ASSERT_TRUE(
      WriteStringToFile(path_, "NOT-A-JOURNAL 1\nwhatever\n").ok());
  EXPECT_EQ(ReadJournal(path_).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CheckpointTest, NewerFormatVersionIsRefused) {
  std::string content = JournalHeader(kJournalFormatVersion + 1);
  content.push_back('\n');
  content.append(FormatJournalRecord("record"));
  ASSERT_TRUE(WriteStringToFile(path_, content).ok());
  EXPECT_EQ(ReadJournal(path_).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(CheckpointTest, BitFlipQuarantinesTailButSalvagesPrefix) {
  WriteJournal({"first", "second", "third"});
  std::string raw = ReadRaw();
  // Flip one payload byte of the *second* record.
  const size_t pos = raw.find("second");
  ASSERT_NE(pos, std::string::npos);
  raw[pos] = 'S';
  ASSERT_TRUE(WriteStringToFile(path_, raw).ok());

  Result<JournalContents> contents = ReadJournal(path_);
  ASSERT_TRUE(contents.ok());  // corruption never fails the read
  EXPECT_EQ(contents->records, (std::vector<std::string>{"first"}));
  EXPECT_EQ(contents->quarantined_records, 2);  // "Second" and "third"
  EXPECT_TRUE(contents->tail_quarantined());
}

TEST_F(CheckpointTest, TruncationQuarantinesTornTail) {
  WriteJournal({"first", "second"});
  std::string raw = ReadRaw();
  // Chop mid-way through the last record (drops its newline).
  raw.resize(raw.size() - 4);
  ASSERT_TRUE(WriteStringToFile(path_, raw).ok());

  Result<JournalContents> contents = ReadJournal(path_);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents->records, (std::vector<std::string>{"first"}));
  EXPECT_EQ(contents->quarantined_records, 1);
}

TEST_F(CheckpointTest, TruncatedChecksumReadsAsCorruptNotShortNumber) {
  WriteJournal({"first"});
  std::string raw = ReadRaw();
  // Replace the record line with one whose checksum field is too short.
  const size_t line_start = raw.find('\n') + 1;
  raw.resize(line_start);
  raw += "abc first\n";
  ASSERT_TRUE(WriteStringToFile(path_, raw).ok());

  Result<JournalContents> contents = ReadJournal(path_);
  ASSERT_TRUE(contents.ok());
  EXPECT_TRUE(contents->records.empty());
  EXPECT_EQ(contents->quarantined_records, 1);
}

TEST_F(CheckpointTest, QuarantinedPrefixIsDurablyRewrittenOnContinue) {
  WriteJournal({"first", "second", "third"});
  std::string raw = ReadRaw();
  const size_t pos = raw.find("second");
  raw[pos] = 'X';
  ASSERT_TRUE(WriteStringToFile(path_, raw).ok());

  Result<JournalContents> salvaged = ReadJournal(path_);
  ASSERT_TRUE(salvaged.ok());

  // Continue the journal from the salvaged prefix, as a resuming run
  // does: the corrupt tail is gone from disk after the next append.
  JournalWriter writer;
  JournalWriter::Options options;
  options.sync = false;
  ASSERT_TRUE(OpenSeeded(&writer, path_, salvaged->records, options).ok());
  ASSERT_TRUE(writer.Append("fourth").ok());

  Result<JournalContents> reread = ReadJournal(path_);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(reread->records, (std::vector<std::string>{"first", "fourth"}));
  EXPECT_EQ(reread->quarantined_records, 0);
}

TEST_F(CheckpointTest, PayloadWithNewlineIsRejected) {
  JournalWriter writer;
  JournalWriter::Options options;
  options.sync = false;
  ASSERT_TRUE(OpenSeeded(&writer, path_, {}, options).ok());
  EXPECT_EQ(writer.Append("two\nlines").code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CheckpointTest, WriteFailpointRollsBackInMemoryImage) {
  JournalWriter writer;
  JournalWriter::Options options;
  options.sync = false;
  ASSERT_TRUE(OpenSeeded(&writer, path_, {}, options).ok());
  ASSERT_TRUE(writer.Append("first").ok());

  Failpoints::ArmSpec spec;
  spec.fires = 1;
  Failpoints::Get().Arm("ckpt.write.record", spec);
  EXPECT_FALSE(writer.Append("lost").ok());
  Failpoints::Get().DisarmAll();

  // The failed record must not be smuggled in by the next success.
  ASSERT_TRUE(writer.Append("second").ok());
  Result<JournalContents> contents = ReadJournal(path_);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents->records,
            (std::vector<std::string>{"first", "second"}));
}

TEST_F(CheckpointTest, ReadFailpointFailsTheRead) {
  WriteJournal({"first"});
  Failpoints::Get().Arm("ckpt.read.journal");
  EXPECT_FALSE(ReadJournal(path_).ok());
}

TEST_F(CheckpointTest, CorruptFailpointForcesQuarantinePath) {
  WriteJournal({"first", "second"});
  // Treats the first record as corrupt without hand-crafting bit flips.
  Failpoints::Get().Arm("ckpt.read.corrupt");
  Result<JournalContents> contents = ReadJournal(path_);
  ASSERT_TRUE(contents.ok());
  EXPECT_TRUE(contents->records.empty());
  EXPECT_EQ(contents->quarantined_records, 2);
}

TEST_F(CheckpointTest, MetricsCountWritesLoadsAndCorruption) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  obs::Counter* written = registry.counter("ckpt.records_written");
  obs::Counter* bytes = registry.counter("ckpt.bytes_written");
  obs::Counter* loaded = registry.counter("ckpt.records_loaded");
  obs::Counter* corrupt = registry.counter("ckpt.corrupt_records");
  const int64_t written0 = written->Value();
  const int64_t bytes0 = bytes->Value();
  const int64_t loaded0 = loaded->Value();
  const int64_t corrupt0 = corrupt->Value();

  WriteJournal({"first", "second"});
  EXPECT_EQ(written->Value() - written0, 2);
  EXPECT_GT(bytes->Value() - bytes0, 0);

  std::string raw = ReadRaw();
  raw[raw.find("second")] = 'X';
  ASSERT_TRUE(WriteStringToFile(path_, raw).ok());
  ASSERT_TRUE(ReadJournal(path_).ok());
  EXPECT_EQ(loaded->Value() - loaded0, 1);
  EXPECT_EQ(corrupt->Value() - corrupt0, 1);
}

// Each append writes its own record line and nothing else.
TEST_F(CheckpointTest, AppendWritesOnlyItsOwnRecord) {
  obs::Counter* bytes = obs::MetricsRegistry::Get().counter(
      "ckpt.bytes_written");
  JournalWriter writer;
  JournalWriter::Options options;
  options.sync = false;
  ASSERT_TRUE(OpenSeeded(&writer, path_, {"seeded"}, options).ok());
  const uint64_t opened_size = std::filesystem::file_size(path_);

  const int64_t bytes0 = bytes->Value();
  int64_t appended = 0;
  for (const std::string& payload :
       {std::string("first"), std::string("kind=replica k=1"),
        std::string(300, 'y'), std::string()}) {
    ASSERT_TRUE(writer.Append(payload).ok());
    appended += static_cast<int64_t>(FormatJournalRecord(payload).size());
  }
  EXPECT_EQ(bytes->Value() - bytes0, appended);
  EXPECT_EQ(std::filesystem::file_size(path_),
            opened_size + static_cast<uint64_t>(appended));
  EXPECT_EQ(writer.num_records(), 5u);
}

// A writer SIGKILLed between (or inside) appends leaves a prefix of what
// it appended, with at most the record it was writing quarantined, and
// the salvaged prefix continues cleanly.
TEST_F(CheckpointTest, KilledWriterLeavesAReadablePrefix) {
  const auto payload = [](int i) {
    return StrFormat("record %d ", i) +
           std::string(static_cast<size_t>(i * 37 % 512), 'x');
  };
  Rng rng(17);
  for (int trial = 0; trial < 5; ++trial) {
    std::remove(path_.c_str());
    const off_t kill_at =
        1024 + static_cast<off_t>(rng.NextBounded(64 * 1024));
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      JournalWriter writer;
      if (!OpenSeeded(&writer, path_, {}, {.sync = false}).ok()) ::_exit(1);
      for (int i = 0;; ++i) {
        if (!writer.Append(payload(i)).ok()) ::_exit(2);
        // Past any kill point: wait for the SIGKILL without growing the
        // file further.
        while (i > 4096) ::pause();
      }
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    struct stat st {};
    while ((::stat(path_.c_str(), &st) != 0 || st.st_size < kill_at) &&
           std::chrono::steady_clock::now() < deadline) {
    }
    ::kill(child, SIGKILL);
    int wait_status = 0;
    ASSERT_EQ(::waitpid(child, &wait_status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(wait_status)) << "trial " << trial;

    Result<JournalContents> salvaged = ReadJournal(path_);
    ASSERT_TRUE(salvaged.ok()) << salvaged.status();
    EXPECT_LE(salvaged->quarantined_records, 1) << "trial " << trial;
    ASSERT_FALSE(salvaged->records.empty()) << "trial " << trial;
    for (size_t i = 0; i < salvaged->records.size(); ++i) {
      ASSERT_EQ(salvaged->records[i], payload(static_cast<int>(i)))
          << "trial " << trial;
    }

    JournalWriter writer;
    ASSERT_TRUE(
        OpenSeeded(&writer, path_, salvaged->records, {.sync = false}).ok());
    ASSERT_TRUE(writer.Append("after").ok());
    Result<JournalContents> reread = ReadJournal(path_);
    ASSERT_TRUE(reread.ok());
    std::vector<std::string> expected = salvaged->records;
    expected.push_back("after");
    EXPECT_EQ(reread->records, expected);
    EXPECT_EQ(reread->quarantined_records, 0);
  }
}

// An append cut off part-way (here by the file-size limit) fails, and the
// partial record is truncated away: the next append succeeds and nothing
// is quarantined.
TEST_F(CheckpointTest, ShortWriteIsTruncatedAway) {
  JournalWriter writer;
  ASSERT_TRUE(OpenSeeded(&writer, path_, {}, {.sync = false}).ok());
  ASSERT_TRUE(writer.Append("first").ok());
  const uint64_t size = std::filesystem::file_size(path_);
  Status cut;
  {
    FileSizeLimit limit(static_cast<rlim_t>(size + 10));
    cut = writer.Append(std::string(100, 'x'));
  }
  // EFBIG comes only after the first 10 bytes of the record landed.
  EXPECT_EQ(cut.code(), StatusCode::kIOError) << cut;
  EXPECT_NE(cut.message().find("File too large"), std::string::npos) << cut;
  EXPECT_EQ(std::filesystem::file_size(path_), size);

  ASSERT_TRUE(writer.Append("second").ok());
  Result<JournalContents> contents = ReadJournal(path_);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents->records,
            (std::vector<std::string>{"first", "second"}));
  EXPECT_EQ(contents->quarantined_records, 0);
}

// When the partial record cannot be truncated away, no record may follow
// it: every later append is refused.
TEST_F(CheckpointTest, FailedRollbackRefusesLaterAppends) {
  JournalWriter writer;
  ASSERT_TRUE(OpenSeeded(&writer, path_, {}, {.sync = false}).ok());
  ASSERT_TRUE(writer.Append("first").ok());
  const uint64_t size = std::filesystem::file_size(path_);
  Failpoints::Get().Arm("ckpt.write.rollback");
  {
    FileSizeLimit limit(static_cast<rlim_t>(size + 10));
    EXPECT_FALSE(writer.Append(std::string(100, 'x')).ok());
  }
  Failpoints::Get().DisarmAll();

  EXPECT_EQ(writer.Append("second").code(), StatusCode::kFailedPrecondition);
  Result<JournalContents> contents = ReadJournal(path_);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents->records, std::vector<std::string>{"first"});
  EXPECT_EQ(contents->quarantined_records, 1);
}

}  // namespace
}  // namespace culevo
