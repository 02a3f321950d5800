#include "corpus/recipe_corpus.h"

#include <algorithm>
#include <utility>

#include "util/check.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace culevo {

Status RecipeCorpus::Builder::Add(
    CuisineId cuisine, const std::vector<IngredientId>& ingredients) {
  return Add(cuisine, std::span<const IngredientId>(ingredients));
}

Status RecipeCorpus::Builder::Add(CuisineId cuisine,
                                  std::span<const IngredientId> ingredients) {
  if (cuisine >= kNumCuisines) {
    return Status::InvalidArgument(
        StrFormat("cuisine id %u out of range", unsigned{cuisine}));
  }
  scratch_.assign(ingredients.begin(), ingredients.end());
  std::sort(scratch_.begin(), scratch_.end());
  scratch_.erase(std::unique(scratch_.begin(), scratch_.end()),
                 scratch_.end());
  if (scratch_.empty()) {
    return Status::InvalidArgument("recipe has no ingredients");
  }
  max_id_ = std::max(max_id_, scratch_.back());
  flat_.insert(flat_.end(), scratch_.begin(), scratch_.end());
  offsets_.push_back(static_cast<uint32_t>(flat_.size()));
  cuisines_.push_back(cuisine);
  return Status::Ok();
}

void RecipeCorpus::Builder::Reserve(size_t num_recipes, size_t num_mentions) {
  flat_.reserve(num_mentions);
  offsets_.reserve(num_recipes + 1);
  cuisines_.reserve(num_recipes);
}

namespace {

/// Sets the world row of a Storage::presence table to the sum of its
/// cuisine rows.
void SumWorldRow(std::vector<uint32_t>& presence, size_t universe) {
  uint32_t* world = presence.data() + kNumCuisines * universe;
  for (size_t c = 0; c < kNumCuisines; ++c) {
    const uint32_t* row = presence.data() + c * universe;
    for (size_t id = 0; id < universe; ++id) world[id] += row[id];
  }
}

}  // namespace

RecipeCorpus RecipeCorpus::Builder::Build() {
  RecipeCorpus corpus;
  Storage& s = corpus.storage_;
  s.flat = std::move(flat_);
  s.offsets = std::move(offsets_);
  s.cuisines = std::move(cuisines_);
  flat_.clear();
  offsets_ = {0};
  cuisines_.clear();
  const size_t n = s.cuisines.size();
  const size_t universe = n == 0 ? 0 : static_cast<size_t>(max_id_) + 1;
  max_id_ = 0;

  // Cuisine shards: counting sort keeps each shard ascending.
  s.shard_offsets.assign(kNumCuisines + 1, 0);
  for (CuisineId c : s.cuisines) ++s.shard_offsets[c + 1];
  for (int c = 0; c < kNumCuisines; ++c) {
    s.shard_offsets[static_cast<size_t>(c) + 1] +=
        s.shard_offsets[static_cast<size_t>(c)];
  }
  s.shard_index.resize(n);
  {
    std::vector<uint32_t> cursor(s.shard_offsets.begin(),
                                 s.shard_offsets.end() - 1);
    for (uint32_t i = 0; i < n; ++i) {
      s.shard_index[cursor[s.cuisines[i]]++] = i;
    }
  }

  // Presence counts: a recipe stores each id once, so one increment per
  // mention is exactly recipe presence. The cached unique-ingredient lists
  // are read off them in id order: one per cuisine plus the corpus-wide
  // list, flattened back to back.
  s.presence.assign((kNumCuisines + 1) * universe, 0);
  for (size_t i = 0; i < n; ++i) {
    uint32_t* row = s.presence.data() + s.cuisines[i] * universe;
    for (uint32_t m = s.offsets[i]; m < s.offsets[i + 1]; ++m) {
      ++row[s.flat[m]];
    }
  }
  SumWorldRow(s.presence, universe);
  s.unique_offsets.assign(1, 0);
  for (size_t scope = 0; scope <= kNumCuisines; ++scope) {
    const std::span<const uint32_t> row = corpus.PresenceRow(scope);
    for (size_t id = 0; id < universe; ++id) {
      if (row[id] != 0) s.unique_flat.push_back(static_cast<IngredientId>(id));
    }
    s.unique_offsets.push_back(static_cast<uint32_t>(s.unique_flat.size()));
  }

  corpus.RebindViews();
  return corpus;
}

void RecipeCorpus::RebindViews() {
  const Storage& s = storage_;
  flat_ = s.flat;
  offsets_ = s.offsets;
  cuisines_ = s.cuisines;
  for (int c = 0; c < kNumCuisines; ++c) {
    if (s.shard_offsets.size() == kNumCuisines + 1) {
      shards_[static_cast<size_t>(c)] = std::span<const uint32_t>(
          s.shard_index.data() + s.shard_offsets[static_cast<size_t>(c)],
          s.shard_offsets[static_cast<size_t>(c) + 1] -
              s.shard_offsets[static_cast<size_t>(c)]);
    } else {
      shards_[static_cast<size_t>(c)] = {};
    }
  }
  for (int c = 0; c <= kNumCuisines; ++c) {
    if (s.unique_offsets.size() == kNumCuisines + 2) {
      unique_[static_cast<size_t>(c)] = std::span<const IngredientId>(
          s.unique_flat.data() + s.unique_offsets[static_cast<size_t>(c)],
          s.unique_offsets[static_cast<size_t>(c) + 1] -
              s.unique_offsets[static_cast<size_t>(c)]);
    } else {
      unique_[static_cast<size_t>(c)] = {};
    }
  }
}

RecipeCorpus::RecipeCorpus(const RecipeCorpus& other)
    : storage_(other.storage_), backing_(other.backing_) {
  // Owned mode is detected structurally (views aliasing other.storage_)
  // rather than by backing_: FromColumns with a null backing still hands
  // out external views, and rebinding those onto the empty storage_ would
  // silently produce an empty copy.
  const bool other_owned =
      other.cuisines_.data() == other.storage_.cuisines.data() &&
      other.flat_.data() == other.storage_.flat.data();
  if (other_owned) {
    RebindViews();
  } else {
    // Borrowed mode: views point into external memory (kept alive by the
    // copied backing_ when there is one) — they stay valid as-is.
    flat_ = other.flat_;
    offsets_ = other.offsets_;
    cuisines_ = other.cuisines_;
    shards_ = other.shards_;
    unique_ = other.unique_;
  }
}

RecipeCorpus& RecipeCorpus::operator=(const RecipeCorpus& other) {
  if (this == &other) return *this;
  RecipeCorpus copy(other);
  *this = std::move(copy);
  return *this;
}

RecipeCorpus::RecipeCorpus(RecipeCorpus&& other) noexcept
    : storage_(std::move(other.storage_)),
      backing_(std::move(other.backing_)),
      flat_(other.flat_),
      offsets_(other.offsets_),
      cuisines_(other.cuisines_),
      shards_(other.shards_),
      unique_(other.unique_) {
  // Moving the vectors transfers their heap buffers, so the copied views
  // still point at live memory owned by *this (or by backing_).
  other.storage_ = Storage{};
  other.backing_.reset();
  other.RebindViews();
}

RecipeCorpus& RecipeCorpus::operator=(RecipeCorpus&& other) noexcept {
  if (this == &other) return *this;
  storage_ = std::move(other.storage_);
  backing_ = std::move(other.backing_);
  flat_ = other.flat_;
  offsets_ = other.offsets_;
  cuisines_ = other.cuisines_;
  shards_ = other.shards_;
  unique_ = other.unique_;
  other.storage_ = Storage{};
  other.backing_.reset();
  other.RebindViews();
  return *this;
}

RecipeView RecipeCorpus::recipe(uint32_t index) const {
  return RecipeView{index, cuisine_of(index), ingredients_of(index)};
}

std::span<const IngredientId> RecipeCorpus::ingredients_of(
    uint32_t index) const {
  CULEVO_DCHECK(index < num_recipes());
  const uint32_t begin = offsets_[index];
  const uint32_t end = offsets_[index + 1];
  return flat_.subspan(begin, end - begin);
}

std::span<const uint32_t> RecipeCorpus::recipes_of(CuisineId cuisine) const {
  CULEVO_CHECK(cuisine < kNumCuisines);
  return shards_[cuisine];
}

std::span<const IngredientId> RecipeCorpus::UniqueIngredients(
    CuisineId cuisine) const {
  CULEVO_CHECK(cuisine < kNumCuisines);
  return unique_[cuisine];
}

std::span<const IngredientId> RecipeCorpus::UniqueIngredients() const {
  return unique_[kNumCuisines];
}

std::span<const uint32_t> RecipeCorpus::PresenceRow(size_t scope) const {
  const size_t universe = storage_.presence.size() / (kNumCuisines + 1);
  return std::span<const uint32_t>(storage_.presence)
      .subspan(scope * universe, universe);
}

std::span<const uint32_t> RecipeCorpus::presence(CuisineId cuisine) const {
  CULEVO_CHECK(cuisine < kNumCuisines);
  return PresenceRow(cuisine);
}

std::span<const uint32_t> RecipeCorpus::presence() const {
  return PresenceRow(kNumCuisines);
}

double RecipeCorpus::MeanRecipeSize(CuisineId cuisine) const {
  const std::span<const uint32_t> indices = recipes_of(cuisine);
  if (indices.empty()) return 0.0;
  size_t total = 0;
  for (uint32_t index : indices) total += ingredients_of(index).size();
  return static_cast<double>(total) / static_cast<double>(indices.size());
}

Result<RecipeCorpus> RecipeCorpus::FromColumns(
    ColumnViews views, std::shared_ptr<const void> backing) {
  const auto invalid = [](const char* what) {
    return Status::InvalidArgument(
        StrFormat("corpus columns: %s", what));
  };

  const size_t n = views.cuisines.size();
  if (views.offsets.size() != n + 1) {
    return invalid("offsets column must have num_recipes + 1 entries");
  }
  if (views.offsets.front() != 0) {
    return invalid("offsets must start at 0");
  }
  if (views.offsets.back() != views.flat.size()) {
    return invalid("offsets must end at the flat column size");
  }

  // One pass over the recipes checks the offsets, cuisines and ingredient
  // order and counts the presence table. Every id of a well-formed corpus
  // is at most the last entry of the sorted corpus-wide unique list; a
  // larger one is missing from that list.
  //
  // The pass splits into contiguous recipe ranges, one per thread. Range
  // 0 counts into the table itself, every other range into private
  // cuisine rows allocated here on the calling thread, and those rows are
  // added to the table in range order. Each range stops at its first bad
  // recipe, so the lowest failing range holds the first bad recipe in
  // index order: the refusal is the serial pass's whatever the CPU count.
  // A range reads its first offset unchecked, but a recipe's bounds are
  // only used once begin < end <= flat.size() holds.
  const std::span<const IngredientId> all = views.unique[kNumCuisines];
  const size_t universe =
      all.empty() ? 0 : static_cast<size_t>(all.back()) + 1;
  const size_t cuisine_cells = kNumCuisines * universe;
  RecipeCorpus corpus;
  std::vector<uint32_t>& presence = corpus.storage_.presence;
  presence.assign(cuisine_cells + universe, 0);
  const size_t ranges = ThreadsFor(n, kRecipesPerThread);
  std::vector<std::vector<uint32_t>> private_rows(
      ranges - 1, std::vector<uint32_t>(cuisine_cells, 0));
  std::vector<const char*> errors(ranges, nullptr);
  RunTasks(ranges, ranges, [&](size_t range) {
    uint32_t* const table =
        range == 0 ? presence.data() : private_rows[range - 1].data();
    for (size_t i = range * n / ranges; i < (range + 1) * n / ranges; ++i) {
      const uint32_t begin = views.offsets[i];
      const uint32_t end = views.offsets[i + 1];
      if (end <= begin || end > views.flat.size()) {
        errors[range] = "offsets must be strictly increasing (empty recipe?)";
        return;
      }
      if (views.cuisines[i] >= kNumCuisines) {
        errors[range] = "cuisine id out of range";
        return;
      }
      uint32_t* row = table + views.cuisines[i] * universe;
      const std::span<const IngredientId> recipe =
          views.flat.subspan(begin, end - begin);
      for (size_t k = 0; k < recipe.size(); ++k) {
        if (k > 0 && recipe[k - 1] >= recipe[k]) {
          errors[range] = "recipe ingredients must be sorted and unique";
          return;
        }
        if (recipe[k] >= universe) {
          errors[range] = "unique-ingredient list is missing a used id";
          return;
        }
        ++row[recipe[k]];
      }
    }
  });
  for (const char* error : errors) {
    if (error != nullptr) return invalid(error);
  }
  for (const std::vector<uint32_t>& rows : private_rows) {
    for (size_t cell = 0; cell < cuisine_cells; ++cell) {
      presence[cell] += rows[cell];
    }
  }

  // Shards: ascending recipe indices, each in its own cuisine, jointly
  // covering every recipe exactly once.
  size_t shard_total = 0;
  for (int c = 0; c < kNumCuisines; ++c) {
    const std::span<const uint32_t> shard =
        views.shards[static_cast<size_t>(c)];
    shard_total += shard.size();
    for (size_t k = 0; k < shard.size(); ++k) {
      if (shard[k] >= n) return invalid("shard entry out of range");
      if (views.cuisines[shard[k]] != static_cast<CuisineId>(c)) {
        return invalid("shard entry assigned to the wrong cuisine");
      }
      if (k > 0 && shard[k - 1] >= shard[k]) {
        return invalid("shard entries must be ascending");
      }
    }
  }
  if (shard_total != n) {
    return invalid("shards must cover every recipe exactly once");
  }

  // Unique lists: sorted, and exactly the ids counted for their scope (the
  // corpus-wide scope is the sum of the cuisine rows). Readers index
  // presence(c) by the ids of the cuisine's list, so completeness is a
  // memory-safety matter and not optional even though the checksums
  // already caught random corruption.
  const auto mismatch = [](std::span<const IngredientId> unique,
                           std::span<const uint32_t> counts) -> const char* {
    for (size_t k = 0; k < unique.size(); ++k) {
      if (k > 0 && unique[k - 1] >= unique[k]) {
        return "unique-ingredient lists must be sorted and unique";
      }
      if (unique[k] >= counts.size()) {
        return "unique-ingredient entry out of range";
      }
      if (counts[unique[k]] == 0) {
        return "unique-ingredient list contains unused ids";
      }
    }
    if (unique.size() !=
        static_cast<size_t>(std::count_if(counts.begin(), counts.end(),
                                          [](uint32_t n) { return n != 0; }))) {
      return "unique-ingredient list is missing a used id";
    }
    return nullptr;
  };
  SumWorldRow(presence, universe);
  for (size_t scope = 0; scope <= kNumCuisines; ++scope) {
    if (const char* error =
            mismatch(views.unique[scope], corpus.PresenceRow(scope))) {
      return invalid(error);
    }
  }

  corpus.backing_ = std::move(backing);
  corpus.flat_ = views.flat;
  corpus.offsets_ = views.offsets;
  corpus.cuisines_ = views.cuisines;
  corpus.shards_ = views.shards;
  corpus.unique_ = views.unique;
  return corpus;
}

Status CheckIdsInLexicon(const RecipeCorpus& corpus, const Lexicon& lexicon,
                         const std::string& source) {
  // The corpus-wide unique list is sorted, so its last id is the largest.
  const std::span<const IngredientId> used = corpus.UniqueIngredients();
  if (used.empty() || used.back() < lexicon.size()) return Status::Ok();
  return Status::FailedPrecondition(StrFormat(
      "%s uses ingredient id %u, outside the %zu-entry lexicon",
      source.c_str(), static_cast<unsigned>(used.back()), lexicon.size()));
}

}  // namespace culevo
