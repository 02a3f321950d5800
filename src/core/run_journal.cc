#include "core/run_journal.h"

#include <sys/stat.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <variant>

#include "obs/metrics.h"
#include "util/hash.h"
#include "util/strings.h"

namespace culevo {
namespace {

struct JournalMetrics {
  obs::Counter* resumes;
  obs::Counter* replicas_restored;
  obs::Counter* shards_merged;
  obs::Counter* records_merged;
  obs::Counter* merge_quarantined;

  static const JournalMetrics& Get() {
    static const JournalMetrics metrics = {
        obs::MetricsRegistry::Get().counter("ckpt.resumes"),
        obs::MetricsRegistry::Get().counter("ckpt.replicas_restored"),
        obs::MetricsRegistry::Get().counter("exec.merge.shards_merged"),
        obs::MetricsRegistry::Get().counter("exec.merge.records_merged"),
        obs::MetricsRegistry::Get().counter("exec.merge.quarantined_records"),
    };
    return metrics;
  }
};

std::string HexU64(uint64_t value) {
  return StrFormat("%016llx", static_cast<unsigned long long>(value));
}

/// The record grammar's values, one overload per type: an int is decimal
/// and must fit `int` (a wider value would otherwise be truncated into
/// some other unit's slot), a u64 is up to 16 lowercase hex digits, a
/// double is its bit pattern as a u64, and a curve is comma-separated
/// doubles ("" is the empty curve).
bool ParseValue(std::string_view text, int* out) {
  long long value = 0;
  if (!ParseInt64(text, &value) || value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

bool ParseValue(std::string_view text, uint64_t* out) {
  if (text.empty() || text.size() > 16) return false;
  uint64_t value = 0;
  for (char c : text) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return false;
    }
    value = (value << 4) | static_cast<uint64_t>(digit);
  }
  *out = value;
  return true;
}

/// Doubles cross the journal as raw bit patterns: the resume guarantee is
/// *bit* identity, and decimal round-trips are where that dies.
std::string HexDouble(double value) {
  return HexU64(std::bit_cast<uint64_t>(value));
}

bool ParseValue(std::string_view text, double* out) {
  uint64_t bits;
  if (!ParseValue(text, &bits)) return false;
  *out = std::bit_cast<double>(bits);
  return true;
}

/// Percent-encodes the bytes that would break the token grammar (space,
/// '=', '%', control bytes). Everything else passes through.
std::string EscapeField(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (unsigned char c : raw) {
    if (c == ' ' || c == '=' || c == '%' || c < 0x20) {
      out.append(StrFormat("%%%02X", c));
    } else {
      out.push_back(static_cast<char>(c));
    }
  }
  return out;
}

std::string UnescapeField(std::string_view escaped) {
  std::string out;
  out.reserve(escaped.size());
  for (size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] == '%' && i + 2 < escaped.size()) {
      const auto hex_digit = [](char c) -> int {
        if (c >= '0' && c <= '9') return c - '0';
        if (c >= 'A' && c <= 'F') return c - 'A' + 10;
        if (c >= 'a' && c <= 'f') return c - 'a' + 10;
        return -1;
      };
      const int hi = hex_digit(escaped[i + 1]);
      const int lo = hex_digit(escaped[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>(hi * 16 + lo));
        i += 2;
        continue;
      }
    }
    out.push_back(escaped[i]);
  }
  return out;
}

std::string FormatCurve(const std::vector<double>& values) {
  std::string out;
  out.reserve(values.size() * 17);
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out.push_back(',');
    out.append(HexDouble(values[i]));
  }
  return out;
}

bool ParseValue(std::string_view text, std::vector<double>* out) {
  out->clear();
  if (text.empty()) return true;
  out->reserve(text.size() / 17 + 1);
  for (size_t pos = 0;;) {
    const size_t comma = std::min(text.find(',', pos), text.size());
    double value;
    if (!ParseValue(text.substr(pos, comma - pos), &value)) return false;
    out->push_back(value);
    if (comma == text.size()) return true;
    pos = comma + 1;
  }
}

/// A record payload is `kind=<kind> key=value key=value ...`. The views
/// point into the payload.
using Fields = std::map<std::string_view, std::string_view, std::less<>>;

Fields ParseFields(std::string_view payload) {
  Fields fields;
  for (size_t pos = 0; pos <= payload.size();) {
    const size_t space = std::min(payload.find(' ', pos), payload.size());
    const std::string_view token = payload.substr(pos, space - pos);
    const size_t eq = token.find('=');
    if (eq != std::string_view::npos) {
      fields[token.substr(0, eq)] = token.substr(eq + 1);
    }
    pos = space + 1;
  }
  return fields;
}

/// Parses field `key` into `out`; false when it is missing or malformed.
template <typename T>
bool Field(const Fields& fields, std::string_view key, T* out) {
  auto it = fields.find(key);
  return it != fields.end() && ParseValue(it->second, out);
}

std::string FieldString(const Fields& fields, std::string_view key) {
  auto it = fields.find(key);
  return it == fields.end() ? std::string() : UnescapeField(it->second);
}

std::string FormatManifest(const RunManifest& manifest) {
  return StrFormat(
      "kind=manifest v=%d name=%s cfg=%s seed=%s replicas=%d mining=%s "
      "context=%s",
      manifest.schema, EscapeField(manifest.name).c_str(),
      HexU64(manifest.config_fingerprint).c_str(),
      HexU64(manifest.seed).c_str(), manifest.replicas,
      HexU64(manifest.mining_hash).c_str(),
      HexU64(manifest.context_hash).c_str());
}

/// One verified payload, typed. std::monostate is every other kind:
/// interrupt records, the `incident` records older builds wrote, and kinds
/// this build does not know.
using JournalRecord =
    std::variant<std::monostate, RunManifest, ReplicaCheckpoint>;

/// The one record parser: every source resume or merge reads goes through
/// it. A known kind whose fields do not parse is FailedPrecondition;
/// `index` names the record of `path` in the message. Fields it does not
/// read are ignored, so a manifest that still carries the `run` and
/// `points` fields, or a replica record that still carries the `retries`
/// field, that older builds wrote parses as any other.
Result<JournalRecord> ParseRecord(std::string_view payload,
                                  const std::string& path, size_t index) {
  const Fields fields = ParseFields(payload);
  const std::string kind = FieldString(fields, "kind");
  JournalRecord record;
  bool readable = true;
  if (kind == "manifest") {
    RunManifest manifest;
    readable = Field(fields, "v", &manifest.schema) &&
               Field(fields, "replicas", &manifest.replicas) &&
               Field(fields, "cfg", &manifest.config_fingerprint) &&
               Field(fields, "seed", &manifest.seed) &&
               Field(fields, "mining", &manifest.mining_hash) &&
               Field(fields, "context", &manifest.context_hash);
    manifest.name = FieldString(fields, "name");
    record = std::move(manifest);
  } else if (kind == "replica") {
    ReplicaCheckpoint replica;
    readable = Field(fields, "k", &replica.replica) &&
               Field(fields, "ic", &replica.ingredient) &&
               Field(fields, "cc", &replica.category);
    record = std::move(replica);
  }
  if (!readable) {
    return Status::FailedPrecondition(
        StrFormat("journal %s: unreadable %s record %zu", path.c_str(),
                  kind.c_str(), index));
  }
  return record;
}

/// Refusal messages name the first mismatching field with both values, so
/// "you pointed --resume at the wrong run" is a one-glance diagnosis.
Status CheckManifest(const RunManifest& journal, const RunManifest& run,
                     const std::string& path) {
  const auto refuse = [&path](std::string detail) {
    return Status::FailedPrecondition(StrFormat(
        "resume refused: journal %s was recorded by a different run (%s); "
        "start fresh (drop --resume) or point --checkpoint elsewhere",
        path.c_str(), detail.c_str()));
  };
  if (journal.schema != run.schema) {
    return refuse(StrFormat("record schema v%d vs this build's v%d",
                            journal.schema, run.schema));
  }
  if (journal.name != run.name) {
    return refuse(StrFormat("model '%s' vs '%s'",
                            journal.name.c_str(), run.name.c_str()));
  }
  if (journal.config_fingerprint != run.config_fingerprint) {
    return refuse(StrFormat(
        "config fingerprint %s vs %s (same name, different parameters?)",
        HexU64(journal.config_fingerprint).c_str(),
        HexU64(run.config_fingerprint).c_str()));
  }
  if (journal.seed != run.seed) {
    return refuse(StrFormat("seed %llu vs %llu",
                            static_cast<unsigned long long>(journal.seed),
                            static_cast<unsigned long long>(run.seed)));
  }
  if (journal.replicas != run.replicas) {
    return refuse(StrFormat("replicas %d vs %d", journal.replicas,
                            run.replicas));
  }
  if (journal.mining_hash != run.mining_hash) {
    return refuse("mining configuration (support) differs");
  }
  if (journal.context_hash != run.context_hash) {
    return refuse("corpus/lexicon content hash differs");
  }
  return Status::Ok();
}

Status EnsureDirectory(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) {
    return Status::Ok();
  }
  return Status::IOError(StrFormat("cannot create checkpoint directory %s: %s",
                                   dir.c_str(), std::strerror(errno)));
}

}  // namespace

uint64_t HashCuisineContext(const CuisineContext& context,
                            const Lexicon& lexicon) {
  uint64_t hash = 0x9E3779B97F4A7C15ull;
  hash = HashCombine(hash, static_cast<uint64_t>(context.cuisine));
  hash = HashCombine(hash, context.ingredients.size());
  for (IngredientId id : context.ingredients) {
    hash = HashCombine(hash, static_cast<uint64_t>(id));
    hash = HashCombine(hash,
                       static_cast<uint64_t>(lexicon.category(id)));
  }
  for (double p : context.popularity) {
    hash = HashCombine(hash, std::bit_cast<uint64_t>(p));
  }
  hash = HashCombine(hash, static_cast<uint64_t>(context.mean_recipe_size));
  hash = HashCombine(hash, static_cast<uint64_t>(context.target_recipes));
  hash = HashCombine(hash, std::bit_cast<uint64_t>(context.phi));
  hash = HashCombine(hash, lexicon.size());
  return hash;
}

std::string ShardJournalFileName(const std::string& file_name, int k) {
  constexpr std::string_view kSuffix = ".journal";
  std::string stem = file_name;
  if (stem.size() >= kSuffix.size() &&
      std::string_view(stem).substr(stem.size() - kSuffix.size()) ==
          kSuffix) {
    stem.resize(stem.size() - kSuffix.size());
  }
  return StrFormat("%s.shard%d.journal", stem.c_str(), k);
}

std::string SanitizeFileToken(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    if (c >= 'A' && c <= 'Z') {
      out.push_back(static_cast<char>(c - 'A' + 'a'));
    } else if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) {
      out.push_back(c);
    } else {
      out.push_back('_');
    }
  }
  return out.empty() ? std::string("run") : out;
}

Result<std::unique_ptr<RunJournal>> RunJournal::Open(
    const CheckpointOptions& options, const std::string& file_name,
    const RunManifest& manifest) {
  if (!options.enabled()) {
    return Status::InvalidArgument(
        "RunJournal::Open requires a checkpoint directory");
  }
  CULEVO_RETURN_IF_ERROR(EnsureDirectory(options.directory));
  const std::string path = options.directory + "/" + file_name;

  std::unique_ptr<RunJournal> journal(new RunJournal());
  // The journal Open writes: this run's manifest, then every record
  // resume restores, each payload exactly as its source held it, streamed
  // to the replacement file as it is parsed. A refusal returns before
  // Commit, and the writer's destructor unlinks the replacement, so the
  // target keeps its bytes. The rewrite is not retried: a retry would
  // have to read every source again, and a failed one leaves every source
  // as it was for a rerun to resume from.
  JournalWriter& writer = journal->writer_;
  JournalWriter::Options writer_options;
  writer_options.sync = options.sync;
  CULEVO_RETURN_IF_ERROR(writer.Begin(path, writer_options));
  CULEVO_RETURN_IF_ERROR(writer.Seed(FormatManifest(manifest)));
  if (options.resume) {
    const bool merging = options.merge_shards > 0;
    // One rule set for every source. The first record of a replica wins:
    // any copy of replica k is the deterministic output of
    // DeriveSeed(seed, k), so which one wins is immaterial.
    std::set<int> seen_replicas;
    int sources = 0;
    int shards_found = 0;
    int quarantined = 0;

    // Reads, checks and restores one source; a missing file is skipped.
    // The source's records are released when it returns.
    const auto absorb = [&](const std::string& source, bool shard) -> Status {
      Result<JournalContents> read = ReadJournal(source);
      if (read.status().code() == StatusCode::kNotFound) return Status::Ok();
      CULEVO_RETURN_IF_ERROR(read.status());
      JournalContents& contents = read.value();
      if (contents.records.empty()) {
        // The file exists but not even the manifest survived: nothing
        // certifies what run this was, so refusal is the only safe move.
        return Status::FailedPrecondition(StrFormat(
            "%s refused: %s %s has no readable manifest "
            "(%d corrupt record(s) quarantined); delete it to start over",
            merging ? "merge" : "resume", shard ? "shard journal" : "journal",
            source.c_str(), contents.quarantined_records));
      }
      Result<JournalRecord> first = ParseRecord(contents.records[0], source, 0);
      if (!first.ok() || !std::holds_alternative<RunManifest>(*first)) {
        return Status::FailedPrecondition(
            "journal manifest record is unreadable");
      }
      CULEVO_RETURN_IF_ERROR(
          CheckManifest(std::get<RunManifest>(*first), manifest, source));

      for (size_t i = 1; i < contents.records.size(); ++i) {
        Result<JournalRecord> record =
            ParseRecord(contents.records[i], source, i);
        CULEVO_RETURN_IF_ERROR(record.status());
        // Interrupt records describe why one process stopped, and the
        // incident records that older builds wrote describe a replica
        // that failed. Resume restores nothing from them (or from
        // unknown kinds), so the rewritten journal drops them.
        auto* replica = std::get_if<ReplicaCheckpoint>(&*record);
        if (replica == nullptr) continue;
        if (!seen_replicas.insert(replica->replica).second) continue;
        journal->restored_replicas_.push_back(std::move(*replica));
        CULEVO_RETURN_IF_ERROR(writer.Seed(contents.records[i]));
      }
      ++sources;
      if (shard) ++shards_found;
      quarantined += contents.quarantined_records;
      return Status::Ok();
    };

    // The target first: a coordinator crash between an earlier merge and
    // the end of its resume pass must not lose what that pass already
    // consolidated or appended.
    CULEVO_RETURN_IF_ERROR(absorb(path, false));
    for (int s = 0; s < options.merge_shards; ++s) {
      // A missing shard never opened its journal; the resume pass re-runs
      // its units (straggler recovery).
      CULEVO_RETURN_IF_ERROR(absorb(
          options.directory + "/" + ShardJournalFileName(file_name, s),
          true));
    }

    const JournalMetrics& metrics = JournalMetrics::Get();
    if (merging) {
      metrics.shards_merged->Increment(shards_found);
      metrics.records_merged->Increment(
          static_cast<int64_t>(journal->restored_replicas_.size()));
      metrics.merge_quarantined->Increment(quarantined);
    }
    if (sources > 0) {
      metrics.resumes->Increment();
      metrics.replicas_restored->Increment(
          static_cast<int64_t>(journal->restored_replicas_.size()));
    }
  }

  CULEVO_RETURN_IF_ERROR(writer.Commit());
  return journal;
}

Status RunJournal::AppendReplica(const ReplicaCheckpoint& replica) {
  std::string payload = StrFormat("kind=replica k=%d ic=", replica.replica);
  payload.append(FormatCurve(replica.ingredient));
  payload.append(" cc=");
  payload.append(FormatCurve(replica.category));
  std::lock_guard<std::mutex> lock(mu_);
  return writer_.Append(payload);
}

Status RunJournal::AppendInterrupt(const Status& status) {
  const std::string payload = StrFormat(
      "kind=interrupt code=%d msg=%s", static_cast<int>(status.code()),
      EscapeField(status.message()).c_str());
  std::lock_guard<std::mutex> lock(mu_);
  return writer_.Append(payload);
}

}  // namespace culevo
