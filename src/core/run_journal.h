#ifndef CULEVO_CORE_RUN_JOURNAL_H_
#define CULEVO_CORE_RUN_JOURNAL_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/evolution_model.h"
#include "util/checkpoint.h"
#include "util/status.h"

namespace culevo {

/// Record-schema version of the run journal (the payloads inside the
/// util/checkpoint framing, which has its own format version). Bump when
/// a record kind changes incompatibly; resume refuses across versions.
inline constexpr int kRunJournalSchemaVersion = 1;

/// Crash-recovery knobs on SimulationConfig. Empty `directory` disables
/// checkpointing entirely — the default, costing nothing on the simulation
/// hot path.
struct CheckpointOptions {
  /// Directory holding the run journals (one file per model × cuisine).
  /// Created on first use if missing.
  std::string directory;
  /// Load completed work from an existing journal instead of starting
  /// fresh. A journal whose manifest does not match the current run is
  /// refused with FailedPrecondition — resuming never silently mixes
  /// runs. A missing journal resumes as a fresh start (nothing completed
  /// before the crash).
  bool resume = false;
  /// fsync journal writes (see JournalWriter::Options::sync). The CLI
  /// runs durable; tests and benches keep tmpfs churn down.
  bool sync = false;
  /// When > 0 (and `resume` is set), RunJournal::Open resumes from the
  /// target journal and the per-worker shard journals
  /// `<stem>.shard<k>.journal` for k < merge_shards together. This is the
  /// coordinator's final pass after a fabric run: restored shards plus the
  /// normal resume protocol re-running whatever no shard completed.
  int merge_shards = 0;

  bool enabled() const { return !directory.empty(); }
};

/// Identity of one logical run: resume refuses a journal whose manifest
/// differs in any field, because mixing replicas across configurations
/// would corrupt the aggregate while looking healthy.
struct RunManifest {
  int schema = kRunJournalSchemaVersion;
  std::string name;           ///< Model name.
  /// Model parameters (EvolutionModel::ConfigFingerprint). Catches
  /// same-name models with different knobs (two CM-M mixture
  /// probabilities both print "CM-M").
  uint64_t config_fingerprint = 0;
  uint64_t seed = 0;
  int replicas = 0;
  /// Mining parameters (HashMiningConfig).
  uint64_t mining_hash = 0;
  /// Cuisine context + lexicon content hash — the "corpus hash": a
  /// journal recorded against a different synthetic world or lexicon
  /// must not be resumed.
  uint64_t context_hash = 0;
};

/// One completed replica as checkpointed: its curves are stored with
/// bit-exact doubles (hex bit patterns), so a restored replica is
/// indistinguishable from a freshly-computed one.
struct ReplicaCheckpoint {
  int replica = -1;
  std::vector<double> ingredient;
  std::vector<double> category;
};

/// Content hash of a cuisine context plus the lexicon categories it maps
/// through — the manifest's corpus/lexicon identity.
uint64_t HashCuisineContext(const CuisineContext& context,
                            const Lexicon& lexicon);

/// Lowercases `name` and maps everything outside [a-z0-9] to '_', for
/// journal file names derived from model names.
std::string SanitizeFileToken(std::string_view name);

/// Name of shard `k`'s journal for the logical journal
/// `file_name`: inserts `.shard<k>` before the `.journal` suffix
/// (`sim_cm_c0.journal` → `sim_cm_c0.shard3.journal`). Workers write these;
/// RunJournal::Open with CheckpointOptions::merge_shards folds them back
/// into `file_name`.
std::string ShardJournalFileName(const std::string& file_name, int k);

/// The domain layer over util/checkpoint.h: serializes run records
/// (manifest, replica, interrupt) and implements the resume
/// protocol. Appends are thread-safe (RunSimulation journals from pool
/// workers). See DESIGN.md §10 for the record grammar.
class RunJournal {
 public:
  /// Opens `<options.directory>/<file_name>`, creating the directory if
  /// needed. Fresh runs truncate any existing journal. With
  /// `options.resume`, Open restores completed work from the existing
  /// journal and, when `options.merge_shards > 0`, from each shard journal
  /// after it. Every source is read, and every record parsed, once, under
  /// the refusal matrix and dedup rules of DESIGN.md §10.2; a missing
  /// source is skipped. The journal is rewritten once, holding exactly the
  /// manifest and the restored records: each kept record is written to
  /// the replacement as soon as it is parsed, one rename after the last
  /// source publishes it, and appends continue it. A refusal or a failed
  /// write leaves the journal as it was; the rewrite is not retried.
  static Result<std::unique_ptr<RunJournal>> Open(
      const CheckpointOptions& options, const std::string& file_name,
      const RunManifest& manifest);

  const std::vector<ReplicaCheckpoint>& restored_replicas() const {
    return restored_replicas_;
  }

  /// Checkpoints one completed replica. Thread-safe.
  Status AppendReplica(const ReplicaCheckpoint& replica);
  /// Final record flushed when cancellation/deadline interrupts the run,
  /// so the journal itself documents why it is incomplete.
  Status AppendInterrupt(const Status& status);

 private:
  RunJournal() = default;

  JournalWriter writer_;
  std::mutex mu_;
  std::vector<ReplicaCheckpoint> restored_replicas_;
};

}  // namespace culevo

#endif  // CULEVO_CORE_RUN_JOURNAL_H_
