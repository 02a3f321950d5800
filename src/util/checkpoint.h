#ifndef CULEVO_UTIL_CHECKPOINT_H_
#define CULEVO_UTIL_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/file_io.h"
#include "util/status.h"

namespace culevo {

/// Versioned, checksummed record journal — the durability primitive under
/// the crash-recovery subsystem (core/run_journal.h builds the domain
/// layer on top; DESIGN.md §10 documents the format).
///
/// On-disk layout, line-oriented so a journal is greppable in a debugger:
///
///   CULEVO-JOURNAL 1\n                      header: magic + format version
///   <checksum-hex16> <payload>\n            one line per record
///   ...
///
/// `checksum` is the FNV-1a 64-bit hash of the payload bytes, printed as
/// 16 lowercase hex digits. Payloads are opaque to this layer except that
/// they must not contain '\n'.
///
/// Durability model: JournalWriter::Begin, Seed and Commit write the
/// header and the seeded records one at a time through one
/// AtomicFileWriter, so the file is replaced by a single rename (dropping
/// any quarantined tail) without the seeded journal ever being held in
/// memory; each later record is appended to the open file. A crash leaves
/// at most one torn record at the end, which the reader quarantines, and
/// a failed append is truncated away, so no record ever follows a torn
/// one. The checksums also catch what no write protocol can: bit rot,
/// partial scribbles by other tools, and files produced by other writers.
///
/// Corruption protocol: ReadJournal verifies records in order and stops at
/// the first bad one, quarantining it and everything after it (salvaging
/// a suffix after a bad record could silently resurrect records the
/// corrupted one superseded). The salvaged prefix is returned; seeding
/// the next journal with it durably rewrites only that prefix.

/// Journal format version understood by this build.
inline constexpr int kJournalFormatVersion = 1;

/// FNV-1a 64-bit hash of `data` (the journal record checksum).
uint64_t JournalChecksum(std::string_view data);

/// Outcome of reading a journal file.
struct JournalContents {
  /// Verified record payloads, in append order.
  std::vector<std::string> records;
  /// Records (including a trailing partial line) dropped by the
  /// quarantine: everything from the first corrupt record to EOF.
  int quarantined_records = 0;
  bool tail_quarantined() const { return quarantined_records > 0; }
};

/// Reads and verifies `path`. Returns NotFound when the file does not
/// exist, InvalidArgument when it is not a journal (bad magic), and
/// FailedPrecondition when the format version is newer than this build
/// understands. Checksum-invalid or torn records never fail the read:
/// they quarantine the tail (see above) and are counted both in the
/// result and in the `ckpt.corrupt_records` metric.
///
/// Failpoints: `ckpt.read.journal` (before the file read),
/// `ckpt.read.corrupt` (when armed, the current record is treated as
/// corrupt — drives the quarantine path without hand-crafting bit flips).
Result<JournalContents> ReadJournal(const std::string& path);

/// Serializes one record line (checksum + payload + newline). Exposed for
/// tests that craft corrupt journals byte-by-byte.
std::string FormatJournalRecord(std::string_view payload);

/// The journal header line (without trailing newline) for `version`.
std::string JournalHeader(int version);

/// Appending journal writer. Not thread-safe: callers that append from
/// worker threads hold their own lock (core/run_journal.h does).
class JournalWriter {
 public:
  struct Options {
    /// fsync the seeded file at Commit and fdatasync every append. The
    /// CLI runs durable; tests disable to keep tmpfs churn down.
    bool sync = true;
  };

  JournalWriter() = default;
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Starts creating (or replacing) the journal at `path`: writes the
  /// header to a temp file beside it. Seed adds the records the journal
  /// starts with (a resume's restored state) one at a time, and Commit
  /// publishes the file with one rename and holds it open for appending.
  /// Until Commit succeeds, `path` keeps its old bytes, and a writer that
  /// fails, is destroyed or begins again before it leaves no temp file.
  /// An interrupted run that never appends still leaves a valid journal.
  Status Begin(std::string path, Options options);
  /// Adds one seeded record. `payload` must not contain '\n'.
  Status Seed(std::string_view payload);
  /// Publishes the seeded journal; Append is refused until it has.
  Status Commit();

  /// Appends one record line. `payload` must not contain '\n'. On a
  /// failed write the file is truncated back to the last complete record;
  /// if that truncate fails too, every later Append returns
  /// FailedPrecondition. Failpoints: `ckpt.write.record` (before any byte
  /// is written), `ckpt.write.rollback` (the truncate fails).
  Status Append(std::string_view payload);

  /// Records currently in the journal (seeded + appended).
  size_t num_records() const { return num_records_; }

 private:
  std::string path_;
  /// The replacement between Begin and Commit.
  AtomicFileWriter seeded_;
  int fd_ = -1;
  /// Bytes of the journal up to the end of its last complete record.
  size_t size_ = 0;
  size_t num_records_ = 0;
  Options options_;
  /// A failed append could not be rolled back: a torn record may sit at
  /// the end of the file, and nothing may be appended after it.
  bool torn_ = false;
};

}  // namespace culevo

#endif  // CULEVO_UTIL_CHECKPOINT_H_
