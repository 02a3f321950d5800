#include "corpus/ingestion.h"

#include <algorithm>
#include <map>

#include "corpus/container.h"
#include "obs/metrics.h"
#include "text/ingredient_parser.h"
#include "text/stemmer.h"
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

IncrementalCorpus IncrementalCorpus::FromCorpus(
    const RecipeCorpus& corpus, std::span<const CuisineStats> /*stats*/,
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
  return out;
}

Status IncrementalCorpus::Add(CuisineId cuisine,
                              std::span<const IngredientId> ingredients) {
  CULEVO_RETURN_IF_ERROR(tail_.Append(cuisine, ingredients, scratch_));
  IngestedRecipes()->Increment();
  return Status::Ok();
}

Result<RecipeCorpus> IncrementalCorpus::Materialize() const& {
  return from_.Extended(tail_);
}

Result<RecipeCorpus> IncrementalCorpus::Materialize() && {
  return from_.Extended(std::move(tail_));
}

// ---------------------------------------------------------------------------
// CULEVO-DELTA 3.

namespace {

// One section of records; the container header words are {base_recipes,
// base_fingerprint, num_cuisines}.
constexpr ContainerFormat kDeltaFormat = {
    "CULEVO-DELTA", kCorpusDeltaVersion, "corpus.delta",
    /*oldest_version=*/kCorpusDeltaVersion,
    /*first_block_version=*/kCorpusDeltaVersion};
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
  const ContainerSection section = {kSecRecords, records};
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
