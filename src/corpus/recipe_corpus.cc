#include "corpus/recipe_corpus.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "util/check.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace culevo {

Status RecipeCorpus::Columns::Append(
    CuisineId cuisine, std::span<const IngredientId> ingredients,
    std::vector<IngredientId>& scratch) {
  if (cuisine >= kNumCuisines) {
    return Status::InvalidArgument(
        StrFormat("cuisine id %u out of range", unsigned{cuisine}));
  }
  if (ingredients.empty()) {
    return Status::InvalidArgument("recipe has no ingredients");
  }
  scratch.assign(ingredients.begin(), ingredients.end());
  std::sort(scratch.begin(), scratch.end());
  scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
  flat.insert(flat.end(), scratch.begin(), scratch.end());
  offsets.push_back(offsets.back() + static_cast<uint32_t>(scratch.size()));
  cuisines.push_back(cuisine);
  return Status::Ok();
}

Status RecipeCorpus::Builder::Add(
    CuisineId cuisine, const std::vector<IngredientId>& ingredients) {
  return Add(cuisine, std::span<const IngredientId>(ingredients));
}

Status RecipeCorpus::Builder::Add(CuisineId cuisine,
                                  std::span<const IngredientId> ingredients) {
  return columns_.Append(cuisine, ingredients, scratch_);
}

void RecipeCorpus::Builder::Reserve(size_t num_recipes, size_t num_mentions) {
  columns_.flat.reserve(num_mentions);
  columns_.offsets.reserve(num_recipes + 1);
  columns_.cuisines.reserve(num_recipes);
}

namespace {

/// The offsets of no recipes: a default corpus's base and tail.
constexpr uint32_t kNoRecipes[1] = {0};

/// Row `scope` of a presence table of kNumCuisines + 1 rows.
std::span<const uint32_t> Row(std::span<const uint32_t> presence,
                              size_t scope) {
  const size_t universe = presence.size() / (kNumCuisines + 1);
  return presence.subspan(scope * universe, universe);
}

/// Sets the world row of a presence table to the sum of its cuisine rows.
void SumWorldRow(std::vector<uint32_t>& presence, size_t universe) {
  uint32_t* world = presence.data() + kNumCuisines * universe;
  for (size_t c = 0; c < kNumCuisines; ++c) {
    const uint32_t* row = presence.data() + c * universe;
    for (size_t id = 0; id < universe; ++id) world[id] += row[id];
  }
}

}  // namespace

RecipeCorpus::RecipeCorpus() {
  base_.offsets = kNoRecipes;
  tail_.offsets = kNoRecipes;
}

RecipeCorpus RecipeCorpus::Builder::Build() {
  auto base = std::make_shared<const Columns>(
      std::exchange(columns_, Columns()));
  RecipeCorpus corpus;
  corpus.base_ = {base->flat, base->offsets, base->cuisines};
  corpus.backing_ = base;
  auto storage = std::make_shared<Storage>();
  storage->tail.offsets = {base->offsets.back()};
  DeriveTables(RecipeCorpus(), corpus.base_, *storage);
  corpus.Adopt(std::move(storage));
  return corpus;
}

RecipeCorpus RecipeCorpus::Extended(Columns tail) const {
  // The recipes past this corpus's own tail are the appended ones.
  const size_t kept = tail_.cuisines.size();
  auto storage = std::make_shared<Storage>();
  storage->tail = std::move(tail);
  const Columns& all = storage->tail;
  const Segment added = {
      std::span<const IngredientId>(all.flat).subspan(all.offsets[kept] -
                                                      all.offsets[0]),
      std::span<const uint32_t>(all.offsets).subspan(kept),
      std::span<const CuisineId>(all.cuisines).subspan(kept)};
  DeriveTables(*this, added, *storage);
  RecipeCorpus corpus = *this;
  corpus.Adopt(std::move(storage));
  return corpus;
}

void RecipeCorpus::DeriveTables(const RecipeCorpus& prefix,
                                const Segment& added, Storage& out) {
  const size_t n = added.cuisines.size();
  const std::span<const IngredientId> used = prefix.UniqueIngredients();
  size_t universe = used.empty() ? 0 : static_cast<size_t>(used.back()) + 1;
  if (!added.flat.empty()) {
    universe = std::max<size_t>(
        universe, *std::max_element(added.flat.begin(), added.flat.end()) + 1);
  }

  // The prefix's tables, widened to the universe: cuisine presence rows
  // and size histograms.
  out.presence.assign((kNumCuisines + 1) * universe, 0);
  for (size_t c = 0; c < kNumCuisines; ++c) {
    const CuisineId cuisine = static_cast<CuisineId>(c);
    const std::span<const uint32_t> row = prefix.presence(cuisine);
    std::copy(row.begin(), row.end(), out.presence.begin() + c * universe);
    const std::span<const uint32_t> sizes = prefix.size_histogram(cuisine);
    out.sizes[c].assign(sizes.begin(), sizes.end());
  }

  // One pass over the appended recipes extends both. A recipe stores each
  // id once, so one increment per mention is exactly recipe presence.
  for (size_t i = 0; i < n; ++i) {
    const CuisineId cuisine = added.cuisines[i];
    const uint32_t begin = added.offsets[i] - added.offsets[0];
    const uint32_t end = added.offsets[i + 1] - added.offsets[0];
    std::vector<uint32_t>& sizes = out.sizes[cuisine];
    if (sizes.size() <= end - begin) sizes.resize(end - begin + 1, 0);
    ++sizes[end - begin];
    uint32_t* row = out.presence.data() + cuisine * universe;
    for (uint32_t m = begin; m < end; ++m) ++row[added.flat[m]];
  }
  SumWorldRow(out.presence, universe);

  // The unique lists are read off the presence rows in id order: one per
  // cuisine plus the corpus-wide list, flattened back to back.
  out.unique_offsets.assign(1, 0);
  for (size_t scope = 0; scope <= kNumCuisines; ++scope) {
    const std::span<const uint32_t> row = Row(out.presence, scope);
    for (size_t id = 0; id < universe; ++id) {
      if (row[id] != 0) {
        out.unique_flat.push_back(static_cast<IngredientId>(id));
      }
    }
    out.unique_offsets.push_back(
        static_cast<uint32_t>(out.unique_flat.size()));
  }
}

void RecipeCorpus::Adopt(std::shared_ptr<const Storage> storage) {
  const Storage& s = *storage;
  tail_ = {s.tail.flat, s.tail.offsets, s.tail.cuisines};
  presence_ = s.presence;
  for (size_t c = 0; c < kNumCuisines; ++c) sizes_[c] = s.sizes[c];
  if (s.unique_offsets.size() == kNumCuisines + 2) {
    for (size_t c = 0; c <= kNumCuisines; ++c) {
      unique_[c] = std::span<const IngredientId>(s.unique_flat)
                       .subspan(s.unique_offsets[c],
                                s.unique_offsets[c + 1] - s.unique_offsets[c]);
    }
  }
  storage_ = std::move(storage);
}

RecipeView RecipeCorpus::recipe(uint32_t index) const {
  return RecipeView{index, cuisine_of(index), ingredients_of(index)};
}

std::span<const IngredientId> RecipeCorpus::ingredients_of(
    uint32_t index) const {
  CULEVO_DCHECK(index < num_recipes());
  const size_t base_n = base_.cuisines.size();
  if (index < base_n) {
    const uint32_t begin = base_.offsets[index];
    return base_.flat.subspan(begin, base_.offsets[index + 1] - begin);
  }
  // The tail's offsets start at the base's mention count.
  const size_t i = index - base_n;
  const uint32_t begin = tail_.offsets[i];
  return tail_.flat.subspan(begin - tail_.offsets[0],
                            tail_.offsets[i + 1] - begin);
}

std::array<RecipeCorpus::Segment, 2> RecipeCorpus::segments() const {
  return {base_, {tail_.flat, tail_.offsets.subspan(1), tail_.cuisines}};
}

const RecipeCorpus::Segment& RecipeCorpus::Untailed() const {
  CULEVO_CHECK(tail_.cuisines.empty());
  return base_;
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
  return Row(presence_, scope);
}

std::span<const uint32_t> RecipeCorpus::presence(CuisineId cuisine) const {
  CULEVO_CHECK(cuisine < kNumCuisines);
  return PresenceRow(cuisine);
}

std::span<const uint32_t> RecipeCorpus::presence() const {
  return PresenceRow(kNumCuisines);
}

std::span<const uint32_t> RecipeCorpus::size_histogram(
    CuisineId cuisine) const {
  CULEVO_CHECK(cuisine < kNumCuisines);
  return sizes_[cuisine];
}

size_t RecipeCorpus::num_recipes_in(CuisineId cuisine) const {
  const std::span<const uint32_t> sizes = size_histogram(cuisine);
  return std::accumulate(sizes.begin(), sizes.end(), size_t{0});
}

double RecipeCorpus::MeanRecipeSize(CuisineId cuisine) const {
  // The mention total is exact, so the division is the one a walk over
  // the cuisine's recipes would make.
  const std::span<const uint32_t> sizes = size_histogram(cuisine);
  size_t recipes = 0;
  size_t mentions = 0;
  for (size_t size = 0; size < sizes.size(); ++size) {
    recipes += sizes[size];
    mentions += size * sizes[size];
  }
  if (recipes == 0) return 0.0;
  return static_cast<double>(mentions) / static_cast<double>(recipes);
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
  // order and counts the presence table and the size histograms. Every id
  // of a well-formed corpus is at most the last entry of the sorted
  // corpus-wide unique list; a larger one is missing from that list, and
  // a recipe of sorted unique ids below the universe has at most
  // `universe` of them.
  //
  // The pass splits into contiguous recipe ranges, one per thread. Range
  // 0 counts presence into the table itself, every other range into
  // private cuisine rows, and each range counts its histograms into a
  // private kNumCuisines x (universe + 1) block, cut to each cuisine's
  // largest recipe once added up; all are allocated here on the calling
  // thread and added up in range order. Each range stops at its first bad
  // recipe, so the lowest failing range holds the first bad recipe in
  // index order: the refusal is the serial pass's whatever the CPU count.
  // A range reads its first offset unchecked, but a recipe's bounds are
  // only used once begin < end <= flat.size() holds.
  const std::span<const IngredientId> all = views.unique[kNumCuisines];
  const size_t universe =
      all.empty() ? 0 : static_cast<size_t>(all.back()) + 1;
  const size_t cuisine_cells = kNumCuisines * universe;
  auto storage = std::make_shared<Storage>();
  storage->tail.offsets = {static_cast<uint32_t>(views.flat.size())};
  std::vector<uint32_t>& presence = storage->presence;
  presence.assign(cuisine_cells + universe, 0);
  const size_t ranges = ThreadsFor(n, kRecipesPerThread);
  std::vector<std::vector<uint32_t>> private_rows(
      ranges - 1, std::vector<uint32_t>(cuisine_cells, 0));
  std::vector<std::vector<uint32_t>> histograms(
      ranges, std::vector<uint32_t>(kNumCuisines * (universe + 1), 0));
  std::vector<const char*> errors(ranges, nullptr);
  RunTasks(ranges, ranges, [&](size_t range) {
    uint32_t* const table =
        range == 0 ? presence.data() : private_rows[range - 1].data();
    uint32_t* const sizes = histograms[range].data();
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
      ++sizes[views.cuisines[i] * (universe + 1) + recipe.size()];
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
  // Each cuisine's histogram, cut after its largest recipe.
  for (size_t c = 0; c < kNumCuisines; ++c) {
    std::vector<uint32_t>& sizes = storage->sizes[c];
    sizes.assign(universe + 1, 0);
    for (const std::vector<uint32_t>& counts : histograms) {
      for (size_t size = 0; size <= universe; ++size) {
        sizes[size] += counts[c * (universe + 1) + size];
      }
    }
    while (!sizes.empty() && sizes.back() == 0) sizes.pop_back();
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
    if (const char* error = mismatch(views.unique[scope],
                                     Row(presence, scope))) {
      return invalid(error);
    }
  }

  RecipeCorpus corpus;
  corpus.Adopt(std::move(storage));
  corpus.base_ = {views.flat, views.offsets, views.cuisines};
  corpus.unique_ = views.unique;
  corpus.borrowed_ = backing != nullptr;
  corpus.backing_ = std::move(backing);
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
