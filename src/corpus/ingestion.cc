#include "corpus/ingestion.h"

#include <algorithm>
#include <map>

#include "corpus/container.h"
#include "obs/metrics.h"
#include "text/ingredient_parser.h"
#include "text/stemmer.h"
#include "util/hash.h"
#include "util/strings.h"

namespace culevo {
namespace {

obs::Counter* IngestedRecipes() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Get().counter("corpus.ingest.recipes");
  return counter;
}

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
}

IncrementalCorpus IncrementalCorpus::FromCorpus(
    const RecipeCorpus& corpus, std::span<const CuisineStats> stats,
    size_t append_recipes, size_t append_mentions) {
  IncrementalCorpus out;
  out.from_ = corpus;
  const RecipeCorpus::Segment& tail = corpus.tail_;
  out.tail_.flat.reserve(tail.flat.size() + append_mentions);
  out.tail_.offsets.reserve(tail.offsets.size() + append_recipes);
  out.tail_.cuisines.reserve(tail.cuisines.size() + append_recipes);
  out.tail_.flat.assign(tail.flat.begin(), tail.flat.end());
  out.tail_.offsets.assign(tail.offsets.begin(), tail.offsets.end());
  out.tail_.cuisines.assign(tail.cuisines.begin(), tail.cuisines.end());
  for (int c = 0; c <= kNumCuisines; ++c) {
    const bool world = c == kNumCuisines;
    const CuisineId cuisine = static_cast<CuisineId>(c);
    const std::span<const IngredientId> unique =
        world ? corpus.UniqueIngredients() : corpus.UniqueIngredients(cuisine);
    const std::span<const uint32_t> presence =
        world ? corpus.presence() : corpus.presence(cuisine);
    const size_t ci = static_cast<size_t>(c);
    out.unique_[ci].assign(unique.begin(), unique.end());
    out.presence_[ci].assign(presence.begin(), presence.end());
  }
  if (stats.empty()) {
    out.stats_ = ComputeCuisineStats(corpus);
  } else {
    out.stats_.assign(stats.begin(), stats.end());
  }
  // A cuisine's mention total is its size histogram's weighted sum.
  for (size_t c = 0; c < kNumCuisines; ++c) {
    const std::vector<size_t>& histogram = out.stats_[c].size_histogram;
    for (size_t size = 0; size < histogram.size(); ++size) {
      out.size_sums_[c] += size * histogram[size];
    }
  }
  return out;
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

  const uint32_t index = static_cast<uint32_t>(num_recipes());
  tail_.flat.insert(tail_.flat.end(), scratch_.begin(), scratch_.end());
  tail_.offsets.push_back(tail_.offsets.back() +
                          static_cast<uint32_t>(scratch_.size()));
  tail_.cuisines.push_back(cuisine);
  added_[cuisine].push_back(index);

  // Presence counts, and unique lists: a sorted insert only on the first
  // sighting of an id in each scope, so steady-state appends never shift
  // the lists.
  for (const size_t scope : {static_cast<size_t>(cuisine),
                             static_cast<size_t>(kNumCuisines)}) {
    std::vector<uint32_t>& counts = presence_[scope];
    for (const IngredientId id : scratch_) {
      if (counts.size() <= id) counts.resize(id + 1, 0);
      if (counts[id]++ != 0) continue;
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

  IngestedRecipes()->Increment();
  return Status::Ok();
}

Result<RecipeCorpus> IncrementalCorpus::Materialize() const& {
  return HandOff(tail_);
}

Result<RecipeCorpus> IncrementalCorpus::Materialize() && {
  return HandOff(std::move(tail_));
}

RecipeCorpus IncrementalCorpus::HandOff(RecipeCorpus::Columns tail) const {
  // Add keeps every recipe sorted and unique, every shard ascending,
  // every unique list sorted and every presence count exact: the storage
  // Builder::Build derives.
  auto storage = std::make_shared<RecipeCorpus::Storage>();
  RecipeCorpus::Storage& s = *storage;
  s.tail = std::move(tail);
  // The shard index, written once: a cuisine's shard in the corpus this
  // one extends, then the recipes appended to it, all above that corpus.
  s.shard_index.reserve(num_recipes());
  s.shard_offsets.assign(1, 0);
  for (int c = 0; c < kNumCuisines; ++c) {
    const std::span<const uint32_t> shard =
        from_.recipes_of(static_cast<CuisineId>(c));
    const std::vector<uint32_t>& added = added_[static_cast<size_t>(c)];
    s.shard_index.insert(s.shard_index.end(), shard.begin(), shard.end());
    s.shard_index.insert(s.shard_index.end(), added.begin(), added.end());
    s.shard_offsets.push_back(static_cast<uint32_t>(s.shard_index.size()));
  }
  s.unique_offsets.assign(1, 0);
  for (const std::vector<IngredientId>& unique : unique_) {
    s.unique_flat.insert(s.unique_flat.end(), unique.begin(), unique.end());
    s.unique_offsets.push_back(static_cast<uint32_t>(s.unique_flat.size()));
  }
  const size_t universe = presence_[kNumCuisines].size();
  s.presence.reserve((kNumCuisines + 1) * universe);
  for (const std::vector<uint32_t>& counts : presence_) {
    s.presence.insert(s.presence.end(), counts.begin(), counts.end());
    s.presence.resize(s.presence.size() + universe - counts.size(), 0);
  }
  RecipeCorpus corpus = from_;
  corpus.Adopt(std::move(storage));
  return corpus;
}

// ---------------------------------------------------------------------------
// CULEVO-DELTA 2.

namespace {

// One section of records; the container header words are {base_recipes,
// base_fingerprint, num_cuisines}.
constexpr ContainerFormat kDeltaFormat = {"CULEVO-DELTA", kCorpusDeltaVersion,
                                          "corpus.delta"};
constexpr uint32_t kSecRecords = 1;

}  // namespace

Status WriteCorpusDelta(const std::string& path, const CorpusDelta& delta,
                        const SnapshotWriteOptions& options) {
  std::string records;
  for (const CorpusDeltaRecord& record : delta.records) {
    if (record.cuisine >= kNumCuisines) {
      return Status::InvalidArgument(
          StrFormat("delta record cuisine id %d out of range",
                    static_cast<int>(record.cuisine)));
    }
    if (record.ingredients.empty()) {
      return Status::InvalidArgument("delta record has no ingredients");
    }
    AppendPod<uint8_t>(&records, record.cuisine);
    AppendPod<uint32_t>(&records,
                        static_cast<uint32_t>(record.ingredients.size()));
    for (const IngredientId id : record.ingredients) {
      AppendPod<IngredientId>(&records, id);
    }
  }
  const ContainerSection section = {kSecRecords, records, Fnv1a64(records)};
  const ContainerWords words = {delta.base_recipes, delta.base_fingerprint,
                                static_cast<uint32_t>(kNumCuisines)};
  return WriteContainer(path, kDeltaFormat, words, {&section, 1},
                        options.sync);
}

Result<CorpusDelta> LoadCorpusDelta(const std::string& path) {
  Result<Container> file = ReadContainer(path, kDeltaFormat);
  if (!file.ok()) return file.status();
  const auto [base_recipes, base_fingerprint, num_cuisines] = file->words();
  if (num_cuisines != static_cast<uint32_t>(kNumCuisines)) {
    return Status::FailedPrecondition(StrFormat(
        "%s: delta has %u cuisines, this build is compiled for %d",
        path.c_str(), num_cuisines, kNumCuisines));
  }
  Result<std::span<const uint8_t>> records =
      file->Section<uint8_t>(kSecRecords);
  if (!records.ok()) return records.status();

  // Any producer can sign any counts, so no count may size an allocation
  // before the bytes it describes are known to be there.
  const auto malformed = [&path] {
    return Status::DataLoss(path + ": malformed delta record");
  };
  CorpusDelta delta;
  delta.base_recipes = base_recipes;
  delta.base_fingerprint = base_fingerprint;
  ByteCursor cursor(*records);
  while (cursor.remaining() > 0) {
    CorpusDeltaRecord record;
    uint8_t cuisine = 0;
    uint32_t count = 0;
    if (!cursor.Read(&cuisine) || !cursor.Read(&count) ||
        cuisine >= kNumCuisines || count == 0 ||
        count > cursor.remaining() / sizeof(IngredientId)) {
      return malformed();
    }
    record.cuisine = static_cast<CuisineId>(cuisine);
    record.ingredients.resize(count);
    for (IngredientId& id : record.ingredients) cursor.Read(&id);
    delta.records.push_back(std::move(record));
  }
  return delta;
}

}  // namespace culevo
