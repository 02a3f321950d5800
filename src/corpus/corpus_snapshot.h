#ifndef CULEVO_CORPUS_CORPUS_SNAPSHOT_H_
#define CULEVO_CORPUS_CORPUS_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "corpus/corpus_stats.h"
#include "corpus/recipe_corpus.h"
#include "util/status.h"

namespace culevo {

/// `CULEVO-CORPUS 2` — the binary corpus snapshot.
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
/// Version 2 signs every section with the container's block checksum;
/// version 1, which this build still reads, had the same layout under
/// FNV-1a-64 checksums. The full byte layout, checksum rules, and
/// compatibility policy are documented in docs/DATA_FORMATS.md.
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
/// `corpus.snapshot.load_ms`, and `corpus.fingerprint.bytes_hashed` (the
/// column bytes HashCorpusColumns hashed).
/// Failpoints: `corpus.snapshot.read` (before the file is opened),
/// `corpus.snapshot.read.corrupt` (forces a section-checksum mismatch),
/// `corpus.snapshot.write` (before the atomic write).

/// Snapshot format version this build writes, and reads with block
/// checksums. It also reads version 1, with FNV-1a-64 checksums.
inline constexpr uint32_t kCorpusSnapshotVersion = 2;

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

/// The block hashes (util/hash.h) of a corpus's flat, offsets and cuisine
/// columns, each column taken whole: its base segment's bytes, then its
/// tail's. They are what the content fingerprint folds, and what the
/// hashes of a corpus extending this one start from.
struct CorpusColumnHashes {
  std::vector<uint64_t> flat;
  std::vector<uint64_t> offsets;
  std::vector<uint64_t> cuisines;
};

/// The column hashes of `corpus`. With `prefix`, the column hashes of a
/// corpus whose columns begin `corpus`'s (the generation a delta
/// extends): its full blocks are reused, and only its last block of each
/// column and the bytes after it are hashed. No column is joined or
/// copied.
CorpusColumnHashes HashCorpusColumns(
    const RecipeCorpus& corpus, const CorpusColumnHashes* prefix = nullptr);

/// Content identity of a corpus: FoldBlockHashes over the block checksums
/// of its flat, offsets and cuisine columns, in that order. Of a snapshot
/// they are the checksums of its three column sections. Two corpora with
/// equal fingerprints hold byte-identical recipe data regardless of how
/// they were built (snapshot load, synthesis, incremental
/// materialization). This is what a delta's `base_fingerprint` pins
/// (CULEVO-DELTA, corpus/ingestion.h).
uint64_t CorpusContentFingerprint(const CorpusColumnHashes& hashes);

/// CorpusContentFingerprint(HashCorpusColumns(corpus)).
uint64_t CorpusContentFingerprint(const RecipeCorpus& corpus);

/// A corpus loaded from a snapshot, plus the per-cuisine statistics
/// stored alongside it (checked equal to ComputeCuisineStats of the
/// loaded corpus, whose size histograms the validating pass counts).
struct LoadedCorpusSnapshot {
  RecipeCorpus corpus;
  std::vector<CuisineStats> stats;  ///< One entry per cuisine id.
  /// CorpusContentFingerprint(corpus). Of a version-2 file it is folded
  /// from the verified checksums of the three column sections, with no
  /// column hashed again.
  uint64_t content_fingerprint = 0;
  /// HashCorpusColumns(corpus). Of a version-2 file they are the column
  /// sections' verified block hashes.
  CorpusColumnHashes column_hashes;
  bool memory_mapped = false;       ///< mmap path vs buffered fallback.
  size_t file_bytes = 0;
};

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
