#include "corpus/corpus_snapshot.h"

#include <memory>
#include <span>
#include <utility>

#include "corpus/container.h"
#include "obs/metrics.h"
#include "util/hash.h"
#include "util/stopwatch.h"
#include "util/strings.h"

namespace culevo {
namespace {

// Section ids (layout documented in docs/DATA_FORMATS.md). The container
// header words are {num_recipes, num_mentions, num_cuisines}. Versions 1
// and 2 also held a stats section (4) and per-cuisine recipe-index
// sections (0x100 + cuisine id); the container verifies their checksums
// like every byte, and the load reads no section it does not name here.
constexpr ContainerFormat kSnapshotFormat = {
    "CULEVO-CORPUS", kCorpusSnapshotVersion, "corpus.snapshot",
    /*oldest_version=*/1, /*first_block_version=*/2};
constexpr uint32_t kSecFlat = 1;
constexpr uint32_t kSecOffsets = 2;
constexpr uint32_t kSecCuisines = 3;
constexpr uint32_t kSecUniqueBase = 0x200;  // + cuisine id; +kNumCuisines
                                            // is the corpus-wide list.

/// A section holding one column, the base segment's bytes then the
/// tail's; they are joined in `*joined` unless the tail is empty.
template <typename T>
ContainerSection ColumnSection(uint32_t id, std::span<const T> base,
                               std::span<const T> tail, std::string* joined) {
  std::string_view bytes = AsBytes(base);
  if (!tail.empty()) {
    *joined = bytes;
    *joined += AsBytes(tail);
    bytes = *joined;
  }
  return {id, bytes};
}

/// A section whose bytes are the column itself.
template <typename T>
ContainerSection ColumnSection(uint32_t id, std::span<const T> column) {
  return ColumnSection(id, column, std::span<const T>(), nullptr);
}

/// The column sections of a block-checksummed snapshot: their verified
/// block hashes are the corpus's column hashes, and their verified
/// checksums fold to its fingerprint, so no column is hashed again.
Status ReadColumnHashes(const Container& file, LoadedCorpusSnapshot* loaded) {
  const uint32_t ids[] = {kSecFlat, kSecOffsets, kSecCuisines};
  std::vector<uint64_t>* const columns[] = {&loaded->column_hashes.flat,
                                            &loaded->column_hashes.offsets,
                                            &loaded->column_hashes.cuisines};
  uint64_t checksums[std::size(ids)];
  for (size_t i = 0; i < std::size(ids); ++i) {
    const Result<std::span<const uint64_t>> blocks = file.BlockHashes(ids[i]);
    const Result<uint64_t> checksum = file.Checksum(ids[i]);
    if (!blocks.ok()) return blocks.status();
    if (!checksum.ok()) return checksum.status();
    columns[i]->assign(blocks->begin(), blocks->end());
    checksums[i] = *checksum;
  }
  loaded->content_fingerprint = FoldBlockHashes(checksums);
  return Status::Ok();
}

}  // namespace

CorpusColumnHashes HashCorpusColumns(const RecipeCorpus& corpus,
                                     const CorpusColumnHashes* prefix) {
  static obs::Counter* bytes_hashed =
      obs::MetricsRegistry::Get().counter("corpus.fingerprint.bytes_hashed");
  CorpusColumnHashes hashes;
  if (prefix != nullptr) hashes = *prefix;
  const auto [base, tail] = corpus.segments();
  size_t bytes =
      ExtendBlockHashes(AsBytes(base.flat), AsBytes(tail.flat), hashes.flat);
  bytes += ExtendBlockHashes(AsBytes(base.offsets), AsBytes(tail.offsets),
                             hashes.offsets);
  bytes += ExtendBlockHashes(AsBytes(base.cuisines), AsBytes(tail.cuisines),
                             hashes.cuisines);
  bytes_hashed->Increment(static_cast<int64_t>(bytes));
  return hashes;
}

uint64_t CorpusContentFingerprint(const CorpusColumnHashes& hashes) {
  const uint64_t checksums[] = {FoldBlockHashes(hashes.flat),
                                FoldBlockHashes(hashes.offsets),
                                FoldBlockHashes(hashes.cuisines)};
  return FoldBlockHashes(checksums);
}

uint64_t CorpusContentFingerprint(const RecipeCorpus& corpus) {
  return CorpusContentFingerprint(HashCorpusColumns(corpus));
}

// ---------------------------------------------------------------------------
// Write + load.

Status WriteCorpusSnapshot(const std::string& path,
                           const RecipeCorpus& corpus,
                           const SnapshotWriteOptions& options) {
  std::vector<ContainerSection> sections;
  sections.reserve(3 + kNumCuisines + 1);
  const auto [base, tail] = corpus.segments();
  std::string joined[3];
  sections.push_back(ColumnSection(kSecFlat, base.flat, tail.flat, &joined[0]));
  sections.push_back(
      ColumnSection(kSecOffsets, base.offsets, tail.offsets, &joined[1]));
  sections.push_back(
      ColumnSection(kSecCuisines, base.cuisines, tail.cuisines, &joined[2]));
  for (int c = 0; c < kNumCuisines; ++c) {
    const CuisineId cuisine = static_cast<CuisineId>(c);
    sections.push_back(ColumnSection(kSecUniqueBase + cuisine,
                                     corpus.UniqueIngredients(cuisine)));
  }
  sections.push_back(ColumnSection(kSecUniqueBase + kNumCuisines,
                                   corpus.UniqueIngredients()));
  const ContainerWords words = {corpus.num_recipes(), corpus.total_mentions(),
                                static_cast<uint32_t>(kNumCuisines)};
  return WriteContainer(path, kSnapshotFormat, words, sections, options.sync);
}

Result<LoadedCorpusSnapshot> LoadCorpusSnapshot(
    const std::string& path, const SnapshotLoadOptions& options) {
  static obs::Histogram* load_ms =
      obs::MetricsRegistry::Get().histogram("corpus.snapshot.load_ms");
  Stopwatch load_watch;
  Result<Container> file =
      ReadContainer(path, kSnapshotFormat, options.allow_mmap);
  if (!file.ok()) return file.status();
  const auto [num_recipes, num_mentions, num_cuisines] = file->words();
  if (num_cuisines != static_cast<uint32_t>(kNumCuisines)) {
    return Status::FailedPrecondition(StrFormat(
        "%s: snapshot has %u cuisines, this build is compiled for %d",
        path.c_str(), num_cuisines, kNumCuisines));
  }

  // Each required section as a typed view of the mapped bytes; a missing
  // section or one whose size disagrees with the header is DataLoss.
  RecipeCorpus::ColumnViews views;
  const auto column = [&file]<typename T>(std::span<const T>* out,
                                          uint32_t id,
                                          std::optional<uint64_t> count) {
    Result<std::span<const T>> section = file->Section<T>(id, count);
    if (!section.ok()) return section.status();
    *out = *section;
    return Status::Ok();
  };
  CULEVO_RETURN_IF_ERROR(column(&views.flat, kSecFlat, num_mentions));
  // The cuisine column first: once it holds num_recipes entries, the
  // count is far from wrapping in num_recipes + 1.
  CULEVO_RETURN_IF_ERROR(column(&views.cuisines, kSecCuisines, num_recipes));
  CULEVO_RETURN_IF_ERROR(column(&views.offsets, kSecOffsets, num_recipes + 1));
  for (int c = 0; c <= kNumCuisines; ++c) {
    CULEVO_RETURN_IF_ERROR(column(&views.unique[static_cast<size_t>(c)],
                                  kSecUniqueBase + static_cast<uint32_t>(c),
                                  std::nullopt));
  }
  Result<RecipeCorpus> corpus =
      RecipeCorpus::FromColumns(views, file->backing());
  if (!corpus.ok()) {
    // Checksums passed but the columns are not a well-formed corpus: the
    // writer (or a crafted file) lied about the invariants.
    return Status::DataLoss(
        StrFormat("%s: %s", path.c_str(), corpus.status().message().c_str()));
  }

  LoadedCorpusSnapshot loaded;
  if (file->block_checksums()) {
    CULEVO_RETURN_IF_ERROR(ReadColumnHashes(*file, &loaded));
  } else {
    // FNV-1a checksums say nothing of the blocks.
    loaded.column_hashes = HashCorpusColumns(*corpus);
    loaded.content_fingerprint =
        CorpusContentFingerprint(loaded.column_hashes);
  }
  // Read off the size histograms and unique lists the validation has
  // just counted.
  loaded.stats = ComputeCuisineStats(*corpus);
  loaded.corpus = std::move(corpus).value();
  loaded.memory_mapped = file->memory_mapped();
  loaded.file_bytes = file->file_bytes();
  load_ms->Record(load_watch.ElapsedMillis());
  return loaded;
}

}  // namespace culevo
