#include "util/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "obs/metrics.h"
#include "util/csv.h"
#include "util/failpoint.h"
#include "util/hash.h"
#include "util/strings.h"

namespace culevo {
namespace {

struct CkptMetrics {
  obs::Counter* records_written;
  obs::Counter* bytes_written;
  obs::Counter* records_loaded;
  obs::Counter* corrupt_records;

  static const CkptMetrics& Get() {
    static const CkptMetrics metrics = {
        obs::MetricsRegistry::Get().counter("ckpt.records_written"),
        obs::MetricsRegistry::Get().counter("ckpt.bytes_written"),
        obs::MetricsRegistry::Get().counter("ckpt.records_loaded"),
        obs::MetricsRegistry::Get().counter("ckpt.corrupt_records"),
    };
    return metrics;
  }
};

constexpr std::string_view kMagic = "CULEVO-JOURNAL";
constexpr size_t kChecksumDigits = 16;

/// Parses exactly 16 lowercase/uppercase hex digits. Returns false on any
/// other shape (a half-written checksum must read as corrupt, not as a
/// short number).
bool ParseChecksum(std::string_view hex, uint64_t* out) {
  if (hex.size() != kChecksumDigits) return false;
  uint64_t value = 0;
  for (char c : hex) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return false;
    }
    value = (value << 4) | static_cast<uint64_t>(digit);
  }
  *out = value;
  return true;
}

std::string ChecksumHex(uint64_t checksum) {
  char buf[kChecksumDigits + 1];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(checksum));
  return std::string(buf, kChecksumDigits);
}

/// One record line is verifiable in isolation: `<hex16> <payload>`.
bool VerifyRecordLine(std::string_view line, std::string_view* payload) {
  if (line.size() < kChecksumDigits + 1) return false;
  if (line[kChecksumDigits] != ' ') return false;
  uint64_t expected;
  if (!ParseChecksum(line.substr(0, kChecksumDigits), &expected)) {
    return false;
  }
  const std::string_view body = line.substr(kChecksumDigits + 1);
  if (JournalChecksum(body) != expected) return false;
  *payload = body;
  return true;
}

}  // namespace

uint64_t JournalChecksum(std::string_view data) { return Fnv1a64(data); }

std::string JournalHeader(int version) {
  return StrFormat("%.*s %d", static_cast<int>(kMagic.size()), kMagic.data(),
                   version);
}

std::string FormatJournalRecord(std::string_view payload) {
  std::string line = ChecksumHex(JournalChecksum(payload));
  line.push_back(' ');
  line.append(payload);
  line.push_back('\n');
  return line;
}

Result<JournalContents> ReadJournal(const std::string& path) {
  CULEVO_RETURN_IF_ERROR(FailpointCheck("ckpt.read.journal"));
  Result<std::string> raw = ReadFileToString(path);
  if (!raw.ok()) {
    // Callers treat a journal that never existed as "fresh start", which
    // only works if absence is distinguishable from a real read failure.
    std::error_code ec;
    if (!std::filesystem::exists(path, ec) && !ec) {
      return Status::NotFound("no journal at " + path);
    }
    return raw.status();
  }
  const std::string& text = raw.value();

  // Header: "CULEVO-JOURNAL <version>\n".
  const size_t header_end = text.find('\n');
  if (header_end == std::string::npos) {
    return Status::InvalidArgument(
        StrFormat("%s: not a culevo journal (missing header line)",
                  path.c_str()));
  }
  const std::string_view header(text.data(), header_end);
  if (header.size() <= kMagic.size() + 1 ||
      header.substr(0, kMagic.size()) != kMagic ||
      header[kMagic.size()] != ' ') {
    return Status::InvalidArgument(StrFormat(
        "%s: not a culevo journal (bad magic '%.*s')", path.c_str(),
        static_cast<int>(header.size()), header.data()));
  }
  long long version = 0;
  if (!ParseInt64(header.substr(kMagic.size() + 1), &version)) {
    return Status::InvalidArgument(
        StrFormat("%s: unparsable journal version", path.c_str()));
  }
  if (version != kJournalFormatVersion) {
    return Status::FailedPrecondition(StrFormat(
        "%s: journal format version %lld, this build understands %d "
        "— refusing to guess at the record layout",
        path.c_str(), version, kJournalFormatVersion));
  }

  const CkptMetrics& metrics = CkptMetrics::Get();
  JournalContents contents;
  size_t pos = header_end + 1;
  while (pos < text.size()) {
    const size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      // Torn tail: a record without its newline can only come from a
      // truncated or still-in-flight write. Quarantine it.
      ++contents.quarantined_records;
      break;
    }
    const std::string_view line(text.data() + pos, eol - pos);
    std::string_view payload;
    bool corrupt = !VerifyRecordLine(line, &payload);
    if (!corrupt && !FailpointCheck("ckpt.read.corrupt").ok()) {
      corrupt = true;
    }
    if (corrupt) {
      // Quarantine this record and the whole tail: later records may
      // depend on (or be superseded by) what the corrupt one said.
      for (size_t p = pos; p < text.size();) {
        ++contents.quarantined_records;
        const size_t next = text.find('\n', p);
        if (next == std::string::npos) break;
        p = next + 1;
      }
      break;
    }
    contents.records.emplace_back(payload);
    pos = eol + 1;
  }

  metrics.records_loaded->Increment(
      static_cast<int64_t>(contents.records.size()));
  metrics.corrupt_records->Increment(contents.quarantined_records);
  return contents;
}

JournalWriter::~JournalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status JournalWriter::Begin(std::string path, Options options) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  path_ = std::move(path);
  options_ = options;
  num_records_ = 0;
  torn_ = false;
  CULEVO_RETURN_IF_ERROR(seeded_.Open(path_, options.sync));
  std::string header = JournalHeader(kJournalFormatVersion);
  header.push_back('\n');
  CULEVO_RETURN_IF_ERROR(seeded_.Write(header));
  size_ = header.size();
  return Status::Ok();
}

Status JournalWriter::Seed(std::string_view payload) {
  if (payload.find('\n') != std::string_view::npos) {
    return Status::InvalidArgument(
        "journal record payload must not contain newlines");
  }
  const std::string line = FormatJournalRecord(payload);
  CULEVO_RETURN_IF_ERROR(seeded_.Write(line));
  size_ += line.size();
  ++num_records_;
  return Status::Ok();
}

Status JournalWriter::Commit() {
  CULEVO_RETURN_IF_ERROR(seeded_.Commit());
  CkptMetrics::Get().bytes_written->Increment(static_cast<int64_t>(size_));
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd_ < 0) {
    return Status::IOError(StrFormat("cannot open journal %s for appending: %s",
                                     path_.c_str(), std::strerror(errno)));
  }
  return Status::Ok();
}

Status JournalWriter::Append(std::string_view payload) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("journal writer is not open");
  }
  if (torn_) {
    return Status::FailedPrecondition(StrFormat(
        "journal %s ends in a torn record that could not be truncated; "
        "reopen it to continue",
        path_.c_str()));
  }
  if (payload.find('\n') != std::string_view::npos) {
    return Status::InvalidArgument(
        "journal record payload must not contain newlines");
  }
  CULEVO_RETURN_IF_ERROR(FailpointCheck("ckpt.write.record"));
  const std::string line = FormatJournalRecord(payload);
  Status status = WriteAll(fd_, line, path_);
  if (status.ok() && options_.sync && ::fdatasync(fd_) != 0) {
    status = Status::IOError(StrFormat("fdatasync failure %s: %s",
                                       path_.c_str(), std::strerror(errno)));
  }
  if (!status.ok()) {
    // Part of the record may have landed. Cut it off so the next append
    // does not follow a torn record, which would quarantine both.
    if (!FailpointCheck("ckpt.write.rollback").ok() ||
        ::ftruncate(fd_, static_cast<off_t>(size_)) != 0) {
      torn_ = true;
    }
    return status;
  }
  size_ += line.size();
  ++num_records_;
  const CkptMetrics& metrics = CkptMetrics::Get();
  metrics.records_written->Increment();
  metrics.bytes_written->Increment(static_cast<int64_t>(line.size()));
  return status;
}

}  // namespace culevo
