#include "corpus/ingestion.h"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <map>

#include "obs/metrics.h"
#include "text/ingredient_parser.h"
#include "text/stemmer.h"
#include "util/csv.h"
#include "util/failpoint.h"
#include "util/file_io.h"
#include "util/strings.h"

namespace culevo {
namespace {

struct IngestMetrics {
  obs::Counter* recipes;
  obs::Counter* delta_rebuilds;

  static const IngestMetrics& Get() {
    auto& registry = obs::MetricsRegistry::Get();
    static const IngestMetrics metrics = {
        registry.counter("corpus.ingest.recipes"),
        registry.counter("corpus.ingest.delta_rebuilds"),
    };
    return metrics;
  }
};

}  // namespace

Result<RecipeCorpus> IngestRawRecipes(const std::vector<RawRecipe>& raw,
                                      const Lexicon& lexicon,
                                      IngestionReport* report) {
  IngestionReport local_report;
  IngestionReport& r = report != nullptr ? *report : local_report;
  r = IngestionReport{};
  std::map<std::string, size_t> unresolved;

  RecipeCorpus::Builder builder;
  for (const RawRecipe& recipe : raw) {
    ++r.recipes_in;
    Result<CuisineId> cuisine = CuisineFromCode(recipe.cuisine_code);
    if (!cuisine.ok()) {
      ++r.recipes_dropped;
      continue;
    }
    std::vector<IngredientId> ids;
    for (const std::string& line : recipe.ingredient_lines) {
      ++r.lines_in;
      const ParsedIngredientLine parsed = ParseIngredientLine(line);
      const std::vector<IngredientId> resolved =
          lexicon.ResolveMention(parsed.mention);
      if (resolved.empty()) {
        // Stemmed form: canonical key for the curation worklist.
        if (!parsed.mention.empty()) ++unresolved[StemPhrase(parsed.mention)];
        continue;
      }
      ++r.lines_resolved;
      ids.insert(ids.end(), resolved.begin(), resolved.end());
    }
    if (ids.empty()) {
      ++r.recipes_dropped;
      continue;
    }
    CULEVO_RETURN_IF_ERROR(builder.Add(cuisine.value(), std::move(ids)));
    ++r.recipes_ingested;
  }

  r.unresolved_mentions.assign(unresolved.begin(), unresolved.end());
  std::sort(r.unresolved_mentions.begin(), r.unresolved_mentions.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  return builder.Build();
}

std::vector<RawRecipe> ParseRawRecipeText(std::string_view text) {
  std::vector<RawRecipe> out;
  RawRecipe current;
  bool in_block = false;
  const auto flush = [&]() {
    if (in_block && !current.cuisine_code.empty()) {
      out.push_back(std::move(current));
    }
    current = RawRecipe{};
    in_block = false;
  };
  for (const std::string& line : Split(text, '\n')) {
    const std::string_view trimmed = Trim(line);
    if (!trimmed.empty() && trimmed.front() == '#') continue;
    if (trimmed.empty()) {
      flush();
      continue;
    }
    if (!in_block) {
      current.cuisine_code = std::string(trimmed);
      in_block = true;
    } else {
      current.ingredient_lines.emplace_back(trimmed);
    }
  }
  flush();
  return out;
}

// ---------------------------------------------------------------------------
// IncrementalCorpus.

IncrementalCorpus::IncrementalCorpus() : stats_(kNumCuisines) {
  for (int c = 0; c < kNumCuisines; ++c) {
    stats_[static_cast<size_t>(c)].cuisine = static_cast<CuisineId>(c);
  }
  delta_.columns_appended_only = true;
}

IncrementalCorpus IncrementalCorpus::FromCorpus(
    const RecipeCorpus& corpus, std::span<const CuisineStats> stats,
    size_t append_recipes, size_t append_mentions) {
  IncrementalCorpus out;
  const std::span<const IngredientId> flat = corpus.flat();
  const std::span<const uint32_t> offsets = corpus.offsets();
  const std::span<const CuisineId> cuisines = corpus.cuisines();
  out.flat_.reserve(flat.size() + append_mentions);
  out.offsets_.reserve(offsets.size() + append_recipes);
  out.cuisines_.reserve(cuisines.size() + append_recipes);
  out.flat_.assign(flat.begin(), flat.end());
  out.offsets_.assign(offsets.begin(), offsets.end());
  out.cuisines_.assign(cuisines.begin(), cuisines.end());
  for (int c = 0; c <= kNumCuisines; ++c) {
    const std::span<const IngredientId> unique =
        c < kNumCuisines ? corpus.UniqueIngredients(static_cast<CuisineId>(c))
                         : corpus.UniqueIngredients();
    const size_t ci = static_cast<size_t>(c);
    out.unique_[ci].assign(unique.begin(), unique.end());
    for (const IngredientId id : unique) {
      if (out.seen_[ci].size() <= id) out.seen_[ci].resize(id + 1, false);
      out.seen_[ci][id] = true;
    }
    if (c < kNumCuisines) {
      const std::span<const uint32_t> shard =
          corpus.recipes_of(static_cast<CuisineId>(c));
      out.shards_[ci].reserve(shard.size() + append_recipes);
      out.shards_[ci].assign(shard.begin(), shard.end());
    }
  }
  if (stats.empty()) {
    out.stats_ = ComputeCuisineStats(corpus);
  } else {
    out.stats_.assign(stats.begin(), stats.end());
  }
  out.SeedSizeSums();
  return out;
}

void IncrementalCorpus::SeedSizeSums() {
  size_sums_.fill(0);
  for (size_t i = 0; i < cuisines_.size(); ++i) {
    size_sums_[cuisines_[i]] += offsets_[i + 1] - offsets_[i];
  }
}

Status IncrementalCorpus::Add(CuisineId cuisine,
                              std::span<const IngredientId> ingredients) {
  if (cuisine >= kNumCuisines) {
    return Status::InvalidArgument(
        StrFormat("cuisine id %d out of range", static_cast<int>(cuisine)));
  }
  if (ingredients.empty()) {
    return Status::InvalidArgument("recipe has no ingredients");
  }
  scratch_.assign(ingredients.begin(), ingredients.end());
  std::sort(scratch_.begin(), scratch_.end());
  scratch_.erase(std::unique(scratch_.begin(), scratch_.end()),
                 scratch_.end());

  const uint32_t index = static_cast<uint32_t>(cuisines_.size());
  flat_.insert(flat_.end(), scratch_.begin(), scratch_.end());
  offsets_.push_back(static_cast<uint32_t>(flat_.size()));
  cuisines_.push_back(cuisine);
  shards_[cuisine].push_back(index);

  // Unique lists: a sorted insert only on the first sighting of an id in
  // each scope, so steady-state appends never shift the lists.
  for (const size_t scope : {static_cast<size_t>(cuisine),
                             static_cast<size_t>(kNumCuisines)}) {
    for (const IngredientId id : scratch_) {
      if (seen_[scope].size() <= id) seen_[scope].resize(id + 1, false);
      if (seen_[scope][id]) continue;
      seen_[scope][id] = true;
      std::vector<IngredientId>& list = unique_[scope];
      list.insert(std::lower_bound(list.begin(), list.end(), id), id);
    }
  }

  // Stats, maintained exactly as ComputeCuisineStats derives them.
  CuisineStats& stats = stats_[cuisine];
  const int size = static_cast<int>(scratch_.size());
  ++stats.num_recipes;
  size_sums_[cuisine] += static_cast<uint64_t>(size);
  stats.mean_recipe_size = static_cast<double>(size_sums_[cuisine]) /
                           static_cast<double>(stats.num_recipes);
  if (stats.num_recipes == 1) {
    stats.min_recipe_size = size;
    stats.max_recipe_size = size;
  } else {
    stats.min_recipe_size = std::min(stats.min_recipe_size, size);
    stats.max_recipe_size = std::max(stats.max_recipe_size, size);
  }
  if (static_cast<size_t>(size) >= stats.size_histogram.size()) {
    stats.size_histogram.resize(static_cast<size_t>(size) + 1, 0);
  }
  ++stats.size_histogram[static_cast<size_t>(size)];
  stats.num_unique_ingredients = unique_[cuisine].size();

  pending_transactions_[cuisine].push_back(scratch_);
  delta_.cuisine[cuisine] = true;
  IngestMetrics::Get().recipes->Increment();
  return Status::Ok();
}

std::vector<std::vector<IngredientId>>
IncrementalCorpus::DrainNewTransactions(CuisineId cuisine) {
  return std::exchange(pending_transactions_[cuisine], {});
}

Result<RecipeCorpus> IncrementalCorpus::Materialize() const& {
  return HandOff(flat_, offsets_, cuisines_);
}

Result<RecipeCorpus> IncrementalCorpus::Materialize() && {
  return HandOff(std::move(flat_), std::move(offsets_), std::move(cuisines_));
}

RecipeCorpus IncrementalCorpus::HandOff(std::vector<IngredientId> flat,
                                        std::vector<uint32_t> offsets,
                                        std::vector<CuisineId> cuisines) const {
  // Add keeps every recipe sorted and unique, every shard ascending and
  // every unique list sorted: exactly the storage Builder::Build derives.
  RecipeCorpus corpus;
  RecipeCorpus::Storage& s = corpus.storage_;
  s.flat = std::move(flat);
  s.offsets = std::move(offsets);
  s.cuisines = std::move(cuisines);
  s.shard_index.reserve(s.cuisines.size());
  s.shard_offsets.assign(1, 0);
  for (const std::vector<uint32_t>& shard : shards_) {
    s.shard_index.insert(s.shard_index.end(), shard.begin(), shard.end());
    s.shard_offsets.push_back(static_cast<uint32_t>(s.shard_index.size()));
  }
  s.unique_offsets.assign(1, 0);
  for (const std::vector<IngredientId>& unique : unique_) {
    s.unique_flat.insert(s.unique_flat.end(), unique.begin(), unique.end());
    s.unique_offsets.push_back(static_cast<uint32_t>(s.unique_flat.size()));
  }
  corpus.RebindViews();
  return corpus;
}

Status IncrementalCorpus::WriteSnapshot(const std::string& path,
                                        const SnapshotWriteOptions& options) {
  SnapshotWriter::Input input;
  input.flat = flat_;
  input.offsets = offsets_;
  input.cuisines = cuisines_;
  for (int c = 0; c < kNumCuisines; ++c) {
    const size_t ci = static_cast<size_t>(c);
    input.shards[ci] = shards_[ci];
    input.unique[ci] = unique_[ci];
  }
  input.unique[kNumCuisines] = unique_[kNumCuisines];
  input.stats = stats_;

  int dirty_cuisines = 0;
  for (const bool dirty : delta_.cuisine) {
    if (dirty) ++dirty_cuisines;
  }
  CULEVO_RETURN_IF_ERROR(writer_.Write(path, input, delta_, options));
  IngestMetrics::Get().delta_rebuilds->Increment(dirty_cuisines);
  delta_ = SnapshotWriter::Dirty{};
  delta_.columns_appended_only = true;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// CULEVO-DELTA 1.

namespace {

constexpr char kDeltaMagic[8] = {'C', 'U', 'L', 'E', 'V', 'O', 'D', 'L'};
constexpr uint32_t kDeltaEndianProbe = 0x01020304;
constexpr uint64_t kDeltaFnvOffset = 0xCBF29CE484222325ull;
constexpr uint64_t kDeltaFnvPrime = 0x100000001B3ull;

uint64_t DeltaFnv1a(const void* data, size_t size,
                    uint64_t state = kDeltaFnvOffset) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    state ^= bytes[i];
    state *= kDeltaFnvPrime;
  }
  return state;
}

template <typename T>
void DeltaAppendPod(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Bounds-checked fixed-width read; false past the end of the file.
template <typename T>
bool DeltaReadPod(std::string_view bytes, size_t* cursor, T* out) {
  if (bytes.size() - *cursor < sizeof(T)) return false;
  std::memcpy(out, bytes.data() + *cursor, sizeof(T));
  *cursor += sizeof(T);
  return true;
}

}  // namespace

uint64_t CorpusContentFingerprint(const RecipeCorpus& corpus) {
  const std::span<const IngredientId> flat = corpus.flat();
  const std::span<const uint32_t> offsets = corpus.offsets();
  const std::span<const CuisineId> cuisines = corpus.cuisines();
  uint64_t state = kDeltaFnvOffset;
  state = DeltaFnv1a(flat.data(), flat.size_bytes(), state);
  state = DeltaFnv1a(offsets.data(), offsets.size_bytes(), state);
  state = DeltaFnv1a(cuisines.data(), cuisines.size_bytes(), state);
  return state;
}

Status WriteCorpusDelta(const std::string& path, const CorpusDelta& delta,
                        const SnapshotWriteOptions& options) {
  std::string payload;
  for (const CorpusDeltaRecord& record : delta.records) {
    if (record.cuisine >= kNumCuisines) {
      return Status::InvalidArgument(
          StrFormat("delta record cuisine id %d out of range",
                    static_cast<int>(record.cuisine)));
    }
    if (record.ingredients.empty()) {
      return Status::InvalidArgument("delta record has no ingredients");
    }
    DeltaAppendPod<uint8_t>(&payload, record.cuisine);
    DeltaAppendPod<uint32_t>(&payload,
                             static_cast<uint32_t>(record.ingredients.size()));
    for (const IngredientId id : record.ingredients) {
      DeltaAppendPod<IngredientId>(&payload, id);
    }
  }

  std::string content;
  content.append(kDeltaMagic, sizeof(kDeltaMagic));
  DeltaAppendPod<uint32_t>(&content, kCorpusDeltaVersion);
  DeltaAppendPod<uint32_t>(&content, kDeltaEndianProbe);
  DeltaAppendPod<uint64_t>(&content, delta.base_recipes);
  DeltaAppendPod<uint64_t>(&content, delta.base_fingerprint);
  DeltaAppendPod<uint64_t>(&content,
                           static_cast<uint64_t>(delta.records.size()));
  DeltaAppendPod<uint64_t>(&content,
                           DeltaFnv1a(payload.data(), payload.size()));
  content += payload;

  AtomicWriteOptions write_options;
  write_options.sync = options.sync;
  return WriteFileAtomic(path, content, write_options);
}

Result<CorpusDelta> LoadCorpusDelta(const std::string& path) {
  CULEVO_FAILPOINT("corpus.delta.read");
  if (::access(path.c_str(), F_OK) != 0) {
    return Status::NotFound("delta file not found: " + path);
  }
  Result<std::string> content = ReadFileToString(path);
  if (!content.ok()) return content.status();
  const std::string_view bytes = *content;

  size_t cursor = 0;
  char magic[sizeof(kDeltaMagic)];
  if (bytes.size() < sizeof(magic) ||
      std::memcmp(bytes.data(), kDeltaMagic, sizeof(magic)) != 0) {
    return Status::InvalidArgument(path + " is not a CULEVO-DELTA file");
  }
  cursor += sizeof(magic);
  uint32_t version = 0;
  uint32_t endian = 0;
  CorpusDelta delta;
  uint64_t record_count = 0;
  uint64_t checksum = 0;
  if (!DeltaReadPod(bytes, &cursor, &version) ||
      !DeltaReadPod(bytes, &cursor, &endian) ||
      !DeltaReadPod(bytes, &cursor, &delta.base_recipes) ||
      !DeltaReadPod(bytes, &cursor, &delta.base_fingerprint) ||
      !DeltaReadPod(bytes, &cursor, &record_count) ||
      !DeltaReadPod(bytes, &cursor, &checksum)) {
    return Status::DataLoss(path + ": truncated delta header");
  }
  if (version != kCorpusDeltaVersion) {
    return Status::FailedPrecondition(
        StrFormat("%s: delta format version %u, this build reads %u",
                  path.c_str(), version, kCorpusDeltaVersion));
  }
  if (endian != kDeltaEndianProbe) {
    return Status::FailedPrecondition(
        path + ": delta written with a different byte order");
  }
  if (DeltaFnv1a(bytes.data() + cursor, bytes.size() - cursor) != checksum) {
    return Status::DataLoss(path + ": delta payload checksum mismatch");
  }

  // The record count sits outside the checksum, and no count may size an
  // allocation before the bytes it describes are known to be there.
  constexpr size_t kRecordHeaderBytes = sizeof(uint8_t) + sizeof(uint32_t);
  if (record_count > (bytes.size() - cursor) / kRecordHeaderBytes) {
    return Status::DataLoss(path + ": delta record count exceeds the payload");
  }
  delta.records.reserve(record_count);
  for (uint64_t r = 0; r < record_count; ++r) {
    CorpusDeltaRecord record;
    uint8_t cuisine = 0;
    uint32_t count = 0;
    if (!DeltaReadPod(bytes, &cursor, &cuisine) ||
        !DeltaReadPod(bytes, &cursor, &count)) {
      return Status::DataLoss(path + ": truncated delta record");
    }
    if (cuisine >= kNumCuisines) {
      return Status::DataLoss(
          StrFormat("%s: delta record cuisine id %d out of range",
                    path.c_str(), static_cast<int>(cuisine)));
    }
    if (count > (bytes.size() - cursor) / sizeof(IngredientId)) {
      return Status::DataLoss(path + ": truncated delta record");
    }
    record.cuisine = static_cast<CuisineId>(cuisine);
    record.ingredients.resize(count);
    for (uint32_t i = 0; i < count; ++i) {
      if (!DeltaReadPod(bytes, &cursor, &record.ingredients[i])) {
        return Status::DataLoss(path + ": truncated delta record");
      }
    }
    delta.records.push_back(std::move(record));
  }
  if (cursor != bytes.size()) {
    return Status::DataLoss(path + ": trailing bytes after delta records");
  }
  return delta;
}

}  // namespace culevo
