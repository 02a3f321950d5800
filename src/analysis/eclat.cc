#include "analysis/eclat.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <span>
#include <utility>

#include "analysis/tidlist.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "util/cancel.h"
#include "util/check.h"

namespace culevo {
namespace {

using mining::kAborted;
using mining::TidArena;
using mining::TidList;

/// Kernel-invocation counts accumulated locally and flushed to the obs
/// registry once per call, so the hot loops never touch the (sharded but
/// still atomic) counters.
struct KernelStats {
  int64_t dense_intersections = 0;
  int64_t early_aborts = 0;
};

struct Node {
  Item item;
  TidList tids;
};

/// Grid-size cap (in words) below which the root tid lists are built by
/// direct transposition: one dense bitset row per *universe* item scattered
/// into in a single pass, with per-row popcounts replacing the counting
/// pass. 1<<15 words = 256 KiB keeps the grid cache-resident; wider
/// universes fall back to the count-then-fill build.
constexpr size_t kDirectGridMaxWords = size_t{1} << 15;

bool NodeSupportLess(const Node& a, const Node& b) {
  if (a.tids.support != b.tids.support) {
    return a.tids.support < b.tids.support;
  }
  return a.item < b.item;
}

/// Mines the equivalence classes of one MineEclat call. Candidate tid
/// lists go into the arena given at construction, released with stack
/// discipline as the recursion unwinds. Sibling Node vectors are pooled
/// per recursion depth, so steady-state mining allocates only for emitted
/// itemsets.
class ClassMiner {
 public:
  ClassMiner(TidArena* arena, std::vector<Itemset>* out, size_t num_words,
             size_t min_support)
      : arena_(arena),
        out_(out),
        num_words_(num_words),
        min_support_(min_support) {}

  /// Mines the class of each node of `siblings` under the current prefix:
  /// emits (prefix + item), then recurses over its frequent extensions
  /// among the nodes after it. `cancel` is polled before each class; the
  /// recursion passes null, so a class that started always finishes.
  void Mine(const std::vector<Node>& siblings, size_t depth,
            const CancelToken* cancel) {
    for (size_t i = 0; i < siblings.size(); ++i) {
      if (CancelToken::ShouldStop(cancel)) return;
      const Node& node = siblings[i];
      prefix_.push_back(node.item);
      // Prefixes are in mining order; itemsets are emitted in item order.
      std::vector<Item> items(prefix_);
      std::sort(items.begin(), items.end());
      out_->push_back(Itemset{std::move(items), node.tids.support});
      if (i + 1 < siblings.size()) {
        const TidArena::Mark mark = arena_->Position();
        std::vector<Node>& children = LevelBuffer(depth);
        BuildChildren(node, siblings, i + 1, &children);
        if (!children.empty()) Mine(children, depth + 1, nullptr);
        arena_->Rewind(mark);
      }
      prefix_.pop_back();
    }
  }

  const KernelStats& stats() const { return stats_; }

 private:
  std::vector<Node>& LevelBuffer(size_t depth) {
    while (levels_.size() <= depth) levels_.emplace_back();
    return levels_[depth];
  }

  /// Fills `children` with the frequent intersections of `node` with the
  /// siblings from `from` on, sorted ascending by support.
  void BuildChildren(const Node& node, const std::vector<Node>& siblings,
                     size_t from, std::vector<Node>* children) {
    children->clear();
    for (size_t j = from; j < siblings.size(); ++j) {
      TidList tids;
      if (Intersect(node.tids, siblings[j].tids, &tids)) {
        children->push_back(Node{siblings[j].item, tids});
      }
    }
    // Dynamic reordering: extend the smallest tid lists first so deeper
    // intersections shrink (and abort) as early as possible.
    std::sort(children->begin(), children->end(), NodeSupportLess);
  }

  /// Intersects two tid lists into arena storage. Returns false (with the
  /// arena rewound) when the result cannot reach min_support.
  ///
  /// early_aborts counts kernels that stopped before consuming all input
  /// (returned kAborted) — a completed scan that merely lands below
  /// min_support is an infrequent result, not an abort.
  bool Intersect(const TidList& a, const TidList& b, TidList* out) {
    ++stats_.dense_intersections;
    uint64_t* words = arena_->AllocWords(num_words_);
    const size_t s = mining::IntersectDenseDense(a.words, b.words, num_words_,
                                                 min_support_, words);
    if (s == kAborted || s < min_support_) {
      if (s == kAborted) ++stats_.early_aborts;
      arena_->TrimTo(words, 0);
      return false;
    }
    out->words = words;
    out->support = static_cast<uint32_t>(s);
    return true;
  }

  TidArena* const arena_;
  std::vector<Itemset>* const out_;
  const size_t num_words_;
  const size_t min_support_;
  std::vector<Item> prefix_;
  std::deque<std::vector<Node>> levels_;  ///< Per-depth sibling freelist.
  KernelStats stats_;
};

/// Sorts `itemsets` with ItemsetLess — (size, lexicographic items) — via a
/// presort on a packed (size, leading item) key, so the cache-hostile
/// vector-vs-vector comparisons only run inside the tiny equal-key runs.
void SortItemsets(std::vector<Itemset>* itemsets) {
  std::vector<std::pair<uint64_t, uint32_t>> keys(itemsets->size());
  for (size_t i = 0; i < itemsets->size(); ++i) {
    const Itemset& set = (*itemsets)[i];
    keys[i] = {(uint64_t{set.items.size()} << 32) | set.items.front(),
               static_cast<uint32_t>(i)};
  }
  std::sort(keys.begin(), keys.end());
  std::vector<Itemset> sorted;
  sorted.reserve(itemsets->size());
  size_t i = 0;
  while (i < keys.size()) {
    size_t j = i + 1;
    while (j < keys.size() && keys[j].first == keys[i].first) ++j;
    if (j - i > 1) {
      std::sort(keys.begin() + static_cast<ptrdiff_t>(i),
                keys.begin() + static_cast<ptrdiff_t>(j),
                [&](const std::pair<uint64_t, uint32_t>& a,
                    const std::pair<uint64_t, uint32_t>& b) {
                  return ItemsetLess((*itemsets)[a.second],
                                     (*itemsets)[b.second]);
                });
    }
    for (; i < j; ++i) {
      sorted.push_back(std::move((*itemsets)[keys[i].second]));
    }
  }
  *itemsets = std::move(sorted);
}

/// Appends the frequent singletons of `transactions` to `roots`, each with
/// its tid list in `arena`. `mined(x)` is the item that item x of a
/// transaction is mined as (x itself, or the view's item map at x); an item
/// that repeats within a transaction counts once.
template <typename MinedItem>
void BuildRoots(const TransactionView& transactions, size_t num_words,
                size_t min_support_count, MinedItem mined, TidArena* arena,
                std::vector<Node>* roots) {
  const size_t n = transactions.size();
  const size_t universe = transactions.item_universe;
  const size_t grid_words = universe * num_words;
  if (grid_words > 0 && grid_words <= kDirectGridMaxWords) {
    // Direct transposition: scatter every occurrence into a
    // universe x num_words bit grid in one pass, then read supports off
    // per-row popcounts. Skips the counting pass and the per-item
    // frequent branch in the scatter loop; a repeat ORs the same bit.
    uint64_t* grid = arena->AllocWords(grid_words);
    std::memset(grid, 0, grid_words * sizeof(uint64_t));
    for (size_t tid = 0; tid < n; ++tid) {
      const size_t word = tid >> 6;
      const uint64_t bit = uint64_t{1} << (tid & 63);
      for (Item raw : transactions.transaction(tid)) {
        const size_t item = mined(raw);
        CULEVO_DCHECK(item < universe);
        grid[item * num_words + word] |= bit;
      }
    }
    for (size_t item = 0; item < universe; ++item) {
      const uint64_t* row = grid + item * num_words;
      const size_t support = mining::PopcountWords(row, num_words);
      if (support < min_support_count) continue;
      roots->push_back(Node{static_cast<Item>(item),
                            TidList{row, static_cast<uint32_t>(support)}});
    }
    return;
  }
  std::vector<uint32_t> counts(universe, 0);
  // counted_in[item] is 1 + the last transaction that counted `item`.
  std::vector<uint32_t> counted_in(universe, 0);
  for (size_t tid = 0; tid < n; ++tid) {
    const auto mark = static_cast<uint32_t>(tid + 1);
    for (Item raw : transactions.transaction(tid)) {
      const size_t item = mined(raw);
      CULEVO_DCHECK(item < universe);
      counts[item] += counted_in[item] != mark ? 1 : 0;
      counted_in[item] = mark;
    }
  }
  // A flat per-item destination table keeps the fill loop to one load
  // and one branch per occurrence.
  std::vector<uint64_t*> words_of_item(universe, nullptr);
  for (size_t item = 0; item < universe; ++item) {
    if (counts[item] < min_support_count) continue;
    uint64_t* words = arena->AllocWords(num_words);
    std::memset(words, 0, num_words * sizeof(uint64_t));
    words_of_item[item] = words;
    roots->push_back(
        Node{static_cast<Item>(item), TidList{words, counts[item]}});
  }
  for (size_t tid = 0; tid < n; ++tid) {
    const size_t word = tid >> 6;
    const uint64_t bit = uint64_t{1} << (tid & 63);
    for (Item raw : transactions.transaction(tid)) {
      if (uint64_t* words = words_of_item[mined(raw)]) words[word] |= bit;
    }
  }
}

struct EclatMetrics {
  obs::Counter* calls;
  obs::Counter* itemsets;
  obs::Counter* txns;
  obs::Counter* dense;
  obs::Counter* aborts;
  obs::Counter* arena_bytes;
  obs::Histogram* wall_ms;

  static const EclatMetrics& Get() {
    static const EclatMetrics m = {
        obs::MetricsRegistry::Get().counter("mine.eclat.calls"),
        obs::MetricsRegistry::Get().counter("mine.eclat.itemsets"),
        obs::MetricsRegistry::Get().counter("mine.eclat.transactions"),
        obs::MetricsRegistry::Get().counter(
            "mine.eclat.dense_intersections"),
        obs::MetricsRegistry::Get().counter("mine.eclat.early_aborts"),
        obs::MetricsRegistry::Get().counter("mine.eclat.arena_bytes"),
        obs::MetricsRegistry::Get().histogram("mine.eclat.ms"),
    };
    return m;
  }
};

}  // namespace

std::vector<Itemset> MineEclat(const TransactionView& transactions,
                               size_t min_support_count,
                               const EclatOptions& options) {
  const EclatMetrics& metrics = EclatMetrics::Get();
  obs::ScopedTimer timer(metrics.wall_ms);
  metrics.calls->Increment();

  if (min_support_count == 0) min_support_count = 1;
  const size_t n = transactions.size();
  metrics.txns->Increment(static_cast<int64_t>(n));
  if (n == 0) return {};
  CULEVO_DCHECK(n <= UINT32_MAX);
  const size_t num_words = (n + 63) / 64;

  // Frequent singletons -> root tid lists (vertical representation).
  TidArena root_arena;
  std::vector<Node> roots;
  const std::span<const Item> map = transactions.item_map;
  if (map.empty()) {
    BuildRoots(transactions, num_words, min_support_count,
               [](Item item) { return size_t{item}; }, &root_arena, &roots);
  } else {
    // Checked once here, so a bad map cannot send the scatter past the
    // universe-sized tables.
    for (Item item : map) CULEVO_CHECK(item < transactions.item_universe);
    BuildRoots(
        transactions, num_words, min_support_count,
        [map](Item item) {
          CULEVO_DCHECK(item < map.size());
          return size_t{map[item]};
        },
        &root_arena, &roots);
  }
  std::sort(roots.begin(), roots.end(), NodeSupportLess);

  std::vector<Itemset> result;
  ClassMiner miner(&root_arena, &result, num_words, min_support_count);
  miner.Mine(roots, 0, options.cancel);
  const KernelStats& stats = miner.stats();

  SortItemsets(&result);
  metrics.itemsets->Increment(static_cast<int64_t>(result.size()));
  metrics.dense->Increment(stats.dense_intersections);
  metrics.aborts->Increment(stats.early_aborts);
  metrics.arena_bytes->Increment(
      static_cast<int64_t>(root_arena.allocated_bytes()));
  return result;
}

std::vector<Itemset> MineEclat(const TransactionSet& transactions,
                               size_t min_support_count,
                               const EclatOptions& options) {
  return MineEclat(transactions.view(), min_support_count, options);
}

}  // namespace culevo
