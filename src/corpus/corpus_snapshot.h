#ifndef CULEVO_CORPUS_CORPUS_SNAPSHOT_H_
#define CULEVO_CORPUS_CORPUS_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "corpus/corpus_stats.h"
#include "corpus/recipe_corpus.h"
#include "util/status.h"

namespace culevo {

/// `CULEVO-CORPUS 3` — the binary corpus snapshot.
///
/// A snapshot freezes a RecipeCorpus as sections of the checksummed
/// container in corpus/container.h, whose header words hold the recipe,
/// mention and cuisine counts: the flat, offsets and cuisine columns, and
/// the per-cuisine and corpus-wide unique-ingredient lists, which bound
/// the id universe the load counts over. Everything else a corpus holds
/// (the presence table, the size histograms and the CuisineStats read off
/// them) is counted by the load's one validating pass, not stored.
/// Loading memory-maps the file and wires a RecipeCorpus directly onto
/// the mapped columns (zero-copy: only the checksums and validation walk
/// the data), with a buffered aligned read as the fallback when mmap is
/// unavailable. Writes go through WriteFileAtomic, so a crash leaves the
/// previous complete snapshot or the new complete one, never a torn
/// hybrid.
///
/// Version 3 signs every section with the container's block checksum.
/// This build still reads versions 2 (the same checksums) and 1 (FNV-1a-64
/// checksums), which also held a stats section and per-cuisine
/// recipe-index sections: those are verified by checksum like every byte
/// and otherwise ignored, so such a file loads to the corpus it was
/// written from, and rewriting it upgrades it to version 3. The full byte
/// layout, checksum rules, and compatibility policy are documented in
/// docs/DATA_FORMATS.md.
///
/// Refusal contract (the container's, plus the corpus checks):
///   - missing file                                -> NotFound
///   - not a snapshot (bad magic)                  -> InvalidArgument
///   - a format version outside 1..3 / wrong
///     endianness / wrong compiled-in cuisine
///     count                                       -> FailedPrecondition
///   - truncated file, checksum mismatch, section
///     table inconsistent with the header, or
///     columns that are not a well-formed corpus   -> DataLoss
///
/// Metrics: `corpus.snapshot.writes`, `corpus.snapshot.bytes_written`,
/// `corpus.snapshot.mmap_loads`, `corpus.snapshot.fallback_loads`,
/// `corpus.snapshot.load_ms`, and `corpus.fingerprint.bytes_hashed` (the
/// column bytes HashCorpusColumns hashed).
/// Failpoints: `corpus.snapshot.read` (before the file is opened),
/// `corpus.snapshot.read.corrupt` (forces a section-checksum mismatch),
/// `corpus.snapshot.write` (before the atomic write).

/// Snapshot format version this build writes. It reads every version
/// from 1 to this one.
inline constexpr uint32_t kCorpusSnapshotVersion = 3;

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

/// A corpus loaded from a snapshot, plus its per-cuisine statistics.
struct LoadedCorpusSnapshot {
  RecipeCorpus corpus;
  /// ComputeCuisineStats(corpus), read off the size histograms and unique
  /// lists the validating pass counts. One entry per cuisine id.
  std::vector<CuisineStats> stats;
  /// CorpusContentFingerprint(corpus). Of a block-checksummed file
  /// (version 2 or later) it is folded from the verified checksums of the
  /// three column sections, with no column hashed again.
  uint64_t content_fingerprint = 0;
  /// HashCorpusColumns(corpus). Of a block-checksummed file they are the
  /// column sections' verified block hashes.
  CorpusColumnHashes column_hashes;
  bool memory_mapped = false;       ///< mmap path vs buffered fallback.
  size_t file_bytes = 0;
};

/// Serializes `corpus` as a version-3 snapshot and writes it atomically.
Status WriteCorpusSnapshot(const std::string& path,
                           const RecipeCorpus& corpus,
                           const SnapshotWriteOptions& options = {});

/// Reads, verifies, and adopts a snapshot. See the refusal contract above.
Result<LoadedCorpusSnapshot> LoadCorpusSnapshot(
    const std::string& path, const SnapshotLoadOptions& options = {});

}  // namespace culevo

#endif  // CULEVO_CORPUS_CORPUS_SNAPSHOT_H_
