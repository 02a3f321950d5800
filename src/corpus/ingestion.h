#ifndef CULEVO_CORPUS_INGESTION_H_
#define CULEVO_CORPUS_INGESTION_H_

#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "corpus/corpus_snapshot.h"
#include "corpus/corpus_stats.h"
#include "corpus/recipe_corpus.h"
#include "lexicon/lexicon.h"
#include "util/status.h"

namespace culevo {

/// The data-compilation stage of Section II: turning raw scraped recipes
/// (free-text ingredient lines) into standardized (recipe × ingredient-id
/// × cuisine) tuples via the parsing + aliasing protocol.

/// One raw recipe as a scraper would deliver it.
struct RawRecipe {
  std::string cuisine_code;             ///< e.g. "ITA".
  std::vector<std::string> ingredient_lines;  ///< Free-text lines.
};

/// Ingestion accounting, mirroring the curation statistics a data paper
/// reports.
struct IngestionReport {
  size_t recipes_in = 0;        ///< Raw recipes seen.
  size_t recipes_ingested = 0;  ///< Recipes that produced >= 1 entity.
  size_t recipes_dropped = 0;   ///< Empty after resolution / bad cuisine.
  size_t lines_in = 0;          ///< Ingredient lines seen.
  size_t lines_resolved = 0;    ///< Lines yielding >= 1 entity.
  /// Distinct unresolved mentions with occurrence counts, most frequent
  /// first (the manual-curation worklist).
  std::vector<std::pair<std::string, size_t>> unresolved_mentions;

  double line_resolution_rate() const {
    return lines_in == 0 ? 0.0
                         : static_cast<double>(lines_resolved) /
                               static_cast<double>(lines_in);
  }
};

/// Ingests raw recipes: each line goes through ParseIngredientLine (to
/// strip quantities, units and preparations) and the resulting mention
/// through Lexicon::ResolveMention. Recipes whose cuisine code is unknown
/// or that resolve to zero entities are dropped (counted in the report).
/// Never fails on content; returns InvalidArgument only if `report` or
/// the output pointer is needed but null.
Result<RecipeCorpus> IngestRawRecipes(const std::vector<RawRecipe>& raw,
                                      const Lexicon& lexicon,
                                      IngestionReport* report = nullptr);

/// Parses the on-disk raw format: blocks separated by blank lines, first
/// line of a block = cuisine code, following lines = ingredient lines.
/// '#' lines are comments.
std::vector<RawRecipe> ParseRawRecipeText(std::string_view text);

/// Append-friendly corpus for continuous million-recipe ingestion.
///
/// RecipeCorpus is immutable after Build(): absorbing one new batch by
/// re-running the builder re-copies, re-sorts and recounts the whole
/// store. IncrementalCorpus instead extends a corpus in O(batch) plus its
/// small tables. It holds three things:
///
///   - the corpus it extends (FromCorpus; empty otherwise), shared, so its
///     base columns are never copied;
///   - its tail: every recipe since that corpus's base, starting as a copy
///     of that corpus's tail, to which Add appends;
///   - a scratch buffer for Add's sort and dedup.
///
/// Materialize() hands the tail over to a RecipeCorpus with the same base,
/// whose tables — presence counts, unique lists and size histograms —
/// are those of the corpus it extends, extended by the appended recipes
/// through the one derivation Builder::Build also uses.
/// Statistics are read off the materialized corpus
/// (ComputeCuisineStats(*Materialize())).
///
/// Metrics: `corpus.ingest.recipes` (appended recipes).
///
/// Not thread-safe; one writer at a time.
class IncrementalCorpus {
 public:
  IncrementalCorpus() = default;

  /// Seeds from a finalized corpus: shares it and copies its tail. No
  /// base recipe is read. `stats` is unused: the corpus carries its own
  /// tables, and the parameter stays for callers that still pass one. The
  /// tail gets room for `append_recipes` more recipes of
  /// `append_mentions` mentions in all, so that many Add calls never
  /// reallocate it.
  static IncrementalCorpus FromCorpus(const RecipeCorpus& corpus,
                                      std::span<const CuisineStats> stats = {},
                                      size_t append_recipes = 0,
                                      size_t append_mentions = 0);

  /// Appends one recipe; semantics match RecipeCorpus::Builder::Add
  /// (ingredients are copied, deduplicated and sorted; empty recipes and
  /// out-of-range cuisines are rejected).
  Status Add(CuisineId cuisine, std::span<const IngredientId> ingredients);

  size_t num_recipes() const {
    return from_.base_.cuisines.size() + tail_.cuisines.size();
  }

  /// Builds a finalized RecipeCorpus from the current contents, for code
  /// that wants the immutable type: a snapshot is
  /// WriteCorpusSnapshot(path, *Materialize()). It shares the base of the
  /// corpus FromCorpus started from and takes the tail as its own; its
  /// tables extend that corpus's by the appended recipes only.
  /// `incremental.Materialize()` copies the tail;
  /// `std::move(incremental).Materialize()` moves it instead and leaves
  /// `incremental` fit only for destruction or assignment.
  Result<RecipeCorpus> Materialize() const&;
  Result<RecipeCorpus> Materialize() &&;

 private:
  /// The corpus FromCorpus started from (empty otherwise), shared: its
  /// base is this object's, and its tail is the first part of this
  /// object's.
  RecipeCorpus from_;
  /// Every recipe since the base (append-only); offsets start at the
  /// base's mention count.
  RecipeCorpus::Columns tail_;
  std::vector<IngredientId> scratch_;
};

/// `CULEVO-DELTA 3` — the incremental-reload delta file.
///
/// A delta file is a batch of appended recipes pinned to the exact corpus
/// generation it extends: `base_recipes` and `base_fingerprint` must match
/// the serving corpus or the consumer refuses the file. It is a container
/// (corpus/container.h) whose header words hold the base recipe count,
/// the base fingerprint and the cuisine count, with the records in one
/// block-checksummed section. Version 3 pins the base by the block
/// content fingerprint (CorpusContentFingerprint), version 2 pinned it by
/// an FNV-1a one, so a version-2 delta can name no corpus this build
/// serves and is refused by its version. Applying a delta is
/// IncrementalCorpus::FromCorpus (base) + Add() per record, so the result
/// is bit-identical to re-ingesting the combined corpus from scratch — a
/// service can swap in the next generation without re-reading its full
/// snapshot (see ServiceCore::ReloadDelta).
///
/// Refusal contract (the container's, plus the record checks):
///   - missing file                                -> NotFound
///   - not a delta (bad magic; version 1 files had
///     another magic)                              -> InvalidArgument
///   - other format version (the message names
///     it) / wrong endianness / wrong compiled-in
///     cuisine count                               -> FailedPrecondition
///   - truncated file, checksum mismatch, or a
///     record with a cuisine out of range, no
///     ingredients, or more than the section holds -> DataLoss
///   - base mismatch is the *caller's* refusal (the file itself is fine):
///     ServiceCore::ReloadDelta maps it to FailedPrecondition.
///
/// Metrics: `corpus.delta.{writes,bytes_written,mmap_loads,
/// fallback_loads}`. Failpoints: `corpus.delta.read`,
/// `corpus.delta.read.corrupt`, `corpus.delta.write`.

/// Delta format version this build reads and writes.
inline constexpr uint32_t kCorpusDeltaVersion = 3;

/// One appended recipe.
struct CorpusDeltaRecord {
  CuisineId cuisine = 0;
  std::vector<IngredientId> ingredients;
};

/// A batch of appends against one specific base corpus generation.
struct CorpusDelta {
  uint64_t base_recipes = 0;      ///< num_recipes() of the base corpus.
  uint64_t base_fingerprint = 0;  ///< CorpusContentFingerprint of the base.
  std::vector<CorpusDeltaRecord> records;
};

/// Serializes and atomically writes `delta` (WriteFileAtomic underneath,
/// like the snapshot writer).
Status WriteCorpusDelta(const std::string& path, const CorpusDelta& delta,
                        const SnapshotWriteOptions& options = {});

/// Reads and verifies a delta file. See the refusal contract above.
Result<CorpusDelta> LoadCorpusDelta(const std::string& path);

}  // namespace culevo

#endif  // CULEVO_CORPUS_INGESTION_H_
