#include "corpus/recipe_corpus.h"

#include <algorithm>
#include <utility>

#include "util/check.h"
#include "util/strings.h"

namespace culevo {

Status RecipeCorpus::Builder::Add(CuisineId cuisine,
                                  std::vector<IngredientId> ingredients) {
  if (cuisine >= kNumCuisines) {
    return Status::InvalidArgument(
        StrFormat("cuisine id %u out of range", unsigned{cuisine}));
  }
  std::sort(ingredients.begin(), ingredients.end());
  ingredients.erase(std::unique(ingredients.begin(), ingredients.end()),
                    ingredients.end());
  if (ingredients.empty()) {
    return Status::InvalidArgument("recipe has no ingredients");
  }
  max_id_ = std::max(max_id_, ingredients.back());
  flat_.insert(flat_.end(), ingredients.begin(), ingredients.end());
  offsets_.push_back(static_cast<uint32_t>(flat_.size()));
  cuisines_.push_back(cuisine);
  return Status::Ok();
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

/// Cuisine × id presence table. Row c marks the ids the recipes of
/// cuisine c use; row kNumCuisines, once FillUnion has run, marks the ids
/// any cuisine uses. Build reads the unique lists off it in id order, and
/// FromColumns checks stored lists against it.
struct PresenceTable {
  explicit PresenceTable(size_t universe)
      : universe(universe), used((kNumCuisines + 1) * universe, 0) {}

  std::span<uint8_t> row(size_t scope) {
    return {used.data() + scope * universe, universe};
  }

  void FillUnion() {
    const std::span<uint8_t> all = row(kNumCuisines);
    for (size_t c = 0; c < kNumCuisines; ++c) {
      const std::span<const uint8_t> marked = row(c);
      for (size_t id = 0; id < universe; ++id) all[id] |= marked[id];
    }
  }

  size_t universe;
  std::vector<uint8_t> used;  // [scope][id]
};

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
  const size_t universe = static_cast<size_t>(max_id_) + 1;
  max_id_ = 0;

  const size_t n = s.cuisines.size();

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

  // Cached unique-ingredient lists, read in id order off the presence
  // table: one per cuisine plus the corpus-wide list, flattened back to
  // back.
  PresenceTable table(universe);
  for (size_t i = 0; i < n; ++i) {
    const std::span<uint8_t> row = table.row(s.cuisines[i]);
    for (uint32_t m = s.offsets[i]; m < s.offsets[i + 1]; ++m) {
      row[s.flat[m]] = 1;
    }
  }
  table.FillUnion();
  s.unique_offsets.assign(1, 0);
  for (size_t scope = 0; scope <= kNumCuisines; ++scope) {
    const std::span<const uint8_t> row = table.row(scope);
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
  // order and marks which ids each cuisine uses. Every id of a well-formed
  // corpus is at most the last entry of the sorted corpus-wide unique
  // list; a larger one is missing from that list.
  const std::span<const IngredientId> all = views.unique[kNumCuisines];
  const size_t universe =
      all.empty() ? 0 : static_cast<size_t>(all.back()) + 1;
  PresenceTable table(universe);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t begin = views.offsets[i];
    const uint32_t end = views.offsets[i + 1];
    if (end <= begin || end > views.flat.size()) {
      return invalid("offsets must be strictly increasing (empty recipe?)");
    }
    if (views.cuisines[i] >= kNumCuisines) {
      return invalid("cuisine id out of range");
    }
    const std::span<uint8_t> row = table.row(views.cuisines[i]);
    const std::span<const IngredientId> recipe =
        views.flat.subspan(begin, end - begin);
    for (size_t k = 0; k < recipe.size(); ++k) {
      if (k > 0 && recipe[k - 1] >= recipe[k]) {
        return invalid("recipe ingredients must be sorted and unique");
      }
      if (recipe[k] >= universe) {
        return invalid("unique-ingredient list is missing a used id");
      }
      row[recipe[k]] = 1;
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

  // Unique lists: sorted, and exactly the ids marked for their scope (the
  // corpus-wide scope is the union of the cuisine rows). Memory safety
  // downstream (ContextFromCorpus counts into a row indexed by id, sized
  // by the last entry of the cuisine's list) depends on completeness, so
  // this is not optional even though the checksums already caught random
  // corruption.
  const auto mismatch = [](std::span<const IngredientId> unique,
                           std::span<const uint8_t> marked) -> const char* {
    for (size_t k = 0; k < unique.size(); ++k) {
      if (k > 0 && unique[k - 1] >= unique[k]) {
        return "unique-ingredient lists must be sorted and unique";
      }
      if (unique[k] >= marked.size()) {
        return "unique-ingredient entry out of range";
      }
      if (marked[unique[k]] == 0) {
        return "unique-ingredient list contains unused ids";
      }
    }
    if (unique.size() !=
        static_cast<size_t>(std::count(marked.begin(), marked.end(), 1))) {
      return "unique-ingredient list is missing a used id";
    }
    return nullptr;
  };
  table.FillUnion();
  for (size_t scope = 0; scope <= kNumCuisines; ++scope) {
    if (const char* error = mismatch(views.unique[scope], table.row(scope))) {
      return invalid(error);
    }
  }

  RecipeCorpus corpus;
  corpus.backing_ = std::move(backing);
  corpus.flat_ = views.flat;
  corpus.offsets_ = views.offsets;
  corpus.cuisines_ = views.cuisines;
  corpus.shards_ = views.shards;
  corpus.unique_ = views.unique;
  return corpus;
}

}  // namespace culevo
