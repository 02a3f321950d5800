#ifndef CULEVO_CORPUS_CORPUS_SNAPSHOT_H_
#define CULEVO_CORPUS_CORPUS_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "corpus/corpus_stats.h"
#include "corpus/recipe_corpus.h"
#include "util/status.h"

namespace culevo {

/// `CULEVO-CORPUS 1` — the binary corpus snapshot.
///
/// A snapshot freezes a RecipeCorpus *and* its derived read indexes (the
/// per-cuisine recipe-index shards, the cached unique-ingredient lists,
/// and the CuisineStats) as sections of the checksummed container in
/// corpus/container.h, whose header words hold the recipe, mention and
/// cuisine counts. Loading memory-maps the file and wires a RecipeCorpus
/// directly onto the mapped columns (zero-copy: only the checksums and
/// validation walk the data), with a buffered aligned read as the
/// fallback when mmap is unavailable. Writes go through WriteFileAtomic,
/// so a crash leaves the previous complete snapshot or the new complete
/// one, never a torn hybrid.
///
/// The full byte layout, checksum rules, and compatibility policy are
/// documented in docs/DATA_FORMATS.md.
///
/// Refusal contract (the container's, plus the corpus checks):
///   - missing file                                -> NotFound
///   - not a snapshot (bad magic)                  -> InvalidArgument
///   - other format version / wrong endianness /
///     wrong compiled-in cuisine count             -> FailedPrecondition
///   - truncated file, checksum mismatch, section
///     table inconsistent with the header, columns
///     that are not a well-formed corpus, or a
///     stats section that disagrees with them      -> DataLoss
///
/// Metrics: `corpus.snapshot.writes`, `corpus.snapshot.bytes_written`,
/// `corpus.snapshot.mmap_loads`, `corpus.snapshot.fallback_loads`,
/// `corpus.snapshot.load_ms`.
/// Failpoints: `corpus.snapshot.read` (before the file is opened),
/// `corpus.snapshot.read.corrupt` (forces a section-checksum mismatch),
/// `corpus.snapshot.write` (before the atomic write).

/// Snapshot format version this build reads and writes.
inline constexpr uint32_t kCorpusSnapshotVersion = 1;

struct SnapshotWriteOptions {
  /// fsync through WriteFileAtomic (tests disable to keep tmpfs churn
  /// down).
  bool sync = true;
};

struct SnapshotLoadOptions {
  /// Memory-map the file (read-only) and borrow the columns in place.
  /// When false — or when mmap fails — the file is read into an owned
  /// 8-byte-aligned buffer instead; the loaded corpus behaves identically
  /// either way.
  bool allow_mmap = true;
};

/// A corpus loaded from a snapshot, plus the per-cuisine statistics
/// stored alongside it (checked equal to ComputeCuisineStats of the
/// loaded corpus, whose size histograms the validating pass counts).
struct LoadedCorpusSnapshot {
  RecipeCorpus corpus;
  std::vector<CuisineStats> stats;  ///< One entry per cuisine id.
  /// CorpusContentFingerprint(corpus). The load continues it from
  /// `flat_hash`, so it hashes only the offsets and cuisines.
  uint64_t content_fingerprint = 0;
  /// FNV-1a-64 of the flat column: the flat section's verified checksum,
  /// and the state a corpus extending this one continues its fingerprint
  /// from (CorpusContentFingerprint(corpus, base_flat_hash)).
  uint64_t flat_hash = 0;
  bool memory_mapped = false;       ///< mmap path vs buffered fallback.
  size_t file_bytes = 0;
};

/// Content identity of a corpus: FNV-1a-64 over the whole CSR columns
/// (flat, offsets, cuisines), each streamed base segment then tail. Two
/// corpora with equal fingerprints hold byte-identical recipe data
/// regardless of how they were built (snapshot load, synthesis,
/// incremental materialization). This is what a delta's
/// `base_fingerprint` pins (CULEVO-DELTA, corpus/ingestion.h).
uint64_t CorpusContentFingerprint(const RecipeCorpus& corpus);

/// The same value, continued from `base_flat_hash`, the FNV-1a-64 of the
/// corpus's base flat column (LoadedCorpusSnapshot::flat_hash of the
/// snapshot the base came from, say): hashes only the tail's flat bytes,
/// then the offsets and cuisines in full.
uint64_t CorpusContentFingerprint(const RecipeCorpus& corpus,
                                  uint64_t base_flat_hash);

/// Serializes `corpus`, with the CuisineStats read off its tables, and
/// writes the snapshot atomically.
Status WriteCorpusSnapshot(const std::string& path,
                           const RecipeCorpus& corpus,
                           const SnapshotWriteOptions& options = {});

/// Reads, verifies, and adopts a snapshot. See the refusal contract above.
Result<LoadedCorpusSnapshot> LoadCorpusSnapshot(
    const std::string& path, const SnapshotLoadOptions& options = {});

}  // namespace culevo

#endif  // CULEVO_CORPUS_CORPUS_SNAPSHOT_H_
