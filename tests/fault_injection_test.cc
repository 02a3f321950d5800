// End-to-end fault-injection suite for the execution layer: a replica
// error failing the run, and cooperative cancellation and deadlines.
//
// Faults are injected by a wrapper model that fails for specific replica
// seeds, so they land on the same replicas under serial and pool
// execution.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <string>
#include <thread>

#include "analysis/eclat.h"
#include "core/null_model.h"
#include "core/simulation.h"
#include "lexicon/world_lexicon.h"
#include "util/cancel.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace culevo {
namespace {

CuisineContext SmallContext() {
  CuisineContext context;
  context.cuisine = 0;
  for (IngredientId id = 0; id < 100; ++id) {
    context.ingredients.push_back(id);
  }
  context.popularity.assign(100, 0.5);
  context.mean_recipe_size = 6;
  context.target_recipes = 160;
  context.phi = 0.5;
  return context;
}

/// Delegates to an inner model but fails every replica whose seed is in a
/// deny list, with a message naming the seed. Seeds identify replicas
/// independently of thread scheduling, so this injects deterministic
/// faults even on a pool.
class SeedDenyModel : public EvolutionModel {
 public:
  SeedDenyModel(const EvolutionModel* inner, std::vector<uint64_t> deny)
      : inner_(inner), deny_(std::move(deny)) {}

  std::string name() const override { return "deny(" + inner_->name() + ")"; }

  static Status Fault(uint64_t seed) {
    return Status::Internal("injected fault at seed " + std::to_string(seed));
  }

  Status GenerateInto(const CuisineContext& context, uint64_t seed,
                      RecipeStore* store) const override {
    for (uint64_t denied : deny_) {
      if (seed == denied) return Fault(seed);
    }
    return inner_->GenerateInto(context, seed, store);
  }

 private:
  const EvolutionModel* inner_;
  std::vector<uint64_t> deny_;
};

class FaultInjectionTest : public ::testing::Test {};

// A replica error fails the run with the lowest failing replica's status,
// whatever the scheduling: replicas 2 and 4 fail, and both the serial run
// and a pool run return replica 2's status.
TEST_F(FaultInjectionTest, FailFastReturnsReplicaError) {
  const Lexicon& lexicon = WorldLexicon();
  const NullModel inner;
  SimulationConfig config;
  config.replicas = 6;
  config.seed = 33;
  const uint64_t second = DeriveSeed(config.seed, 2);
  const SeedDenyModel model(&inner, {DeriveSeed(config.seed, 4), second});

  Result<SimulationResult> serial =
      RunSimulation(model, SmallContext(), lexicon, config, nullptr);
  ThreadPool pool(4);
  Result<SimulationResult> parallel =
      RunSimulation(model, SmallContext(), lexicon, config, &pool);
  EXPECT_EQ(serial.status(), SeedDenyModel::Fault(second));
  EXPECT_EQ(parallel.status(), SeedDenyModel::Fault(second));
}

TEST_F(FaultInjectionTest, PreCancelledTokenReturnsCancelled) {
  const Lexicon& lexicon = WorldLexicon();
  const NullModel model;
  CancelToken token;
  token.Cancel();
  SimulationConfig config;
  config.replicas = 4;
  config.cancel = &token;
  Result<SimulationResult> serial =
      RunSimulation(model, SmallContext(), lexicon, config, nullptr);
  EXPECT_EQ(serial.status().code(), StatusCode::kCancelled);
  ThreadPool pool(2);
  Result<SimulationResult> parallel =
      RunSimulation(model, SmallContext(), lexicon, config, &pool);
  EXPECT_EQ(parallel.status().code(), StatusCode::kCancelled);
}

TEST_F(FaultInjectionTest, ExpiredDeadlineReturnsDeadlineExceeded) {
  const Lexicon& lexicon = WorldLexicon();
  const NullModel model;
  CancelToken token;
  token.set_deadline(Deadline::AfterMillis(0));
  SimulationConfig config;
  config.replicas = 4;
  config.cancel = &token;
  Result<SimulationResult> result =
      RunSimulation(model, SmallContext(), lexicon, config);
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

/// Trips a CancelToken from inside the computation after a fixed number
/// of generate calls — a deterministic stand-in for an external Ctrl-C
/// landing mid-run.
class CancelAfterModel : public EvolutionModel {
 public:
  CancelAfterModel(const EvolutionModel* inner, CancelToken* token,
                   int calls_before_cancel)
      : inner_(inner), token_(token), fuse_(calls_before_cancel) {}

  std::string name() const override { return inner_->name(); }

  Status GenerateInto(const CuisineContext& context, uint64_t seed,
                      RecipeStore* store) const override {
    if (fuse_.fetch_sub(1) == 1) token_->Cancel();
    return inner_->GenerateInto(context, seed, store);
  }

 private:
  const EvolutionModel* inner_;
  CancelToken* token_;
  mutable std::atomic<int> fuse_;
};

TEST_F(FaultInjectionTest, MidRunCancelStopsWithinOneReplica) {
  const Lexicon& lexicon = WorldLexicon();
  const NullModel inner;
  CancelToken token;
  CancelAfterModel model(&inner, &token, 2);
  SimulationConfig config;
  config.replicas = 50;
  config.cancel = &token;
  Result<SimulationResult> result =
      RunSimulation(model, SmallContext(), lexicon, config);
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST_F(FaultInjectionTest, EclatHonoursPreCancelledToken) {
  TransactionSet transactions;
  for (int t = 0; t < 40; ++t) {
    transactions.Add(std::vector<Item>{static_cast<Item>(t % 5),
                                       static_cast<Item>(5 + t % 7),
                                       static_cast<Item>(12 + t % 3)});
  }
  CancelToken token;
  token.Cancel();
  EclatOptions options;
  options.cancel = &token;
  // A tripped token stops the miner before any root class is descended:
  // the "prefix of the mined classes" degenerates to nothing.
  EXPECT_TRUE(MineEclat(transactions, 2, options).empty());
  options.cancel = nullptr;
  EXPECT_FALSE(MineEclat(transactions, 2, options).empty());
}

/// 5,000 transactions of 20 uniform draws from 100 items. At support 50
/// every pair is frequent and almost no triple is, so each of the 100 root
/// classes emits its pairs as it mines them, and a serial mine takes tens
/// of milliseconds.
TransactionSet UniformBaskets() {
  Rng rng(1234);
  TransactionSet transactions;
  transactions.Reserve(5000);
  for (int i = 0; i < 5000; ++i) {
    std::vector<Item> t;
    for (int j = 0; j < 20; ++j) {
      t.push_back(static_cast<Item>(rng.NextBounded(100)));
    }
    std::sort(t.begin(), t.end());
    t.erase(std::unique(t.begin(), t.end()), t.end());
    transactions.Add(std::move(t));
  }
  return transactions;
}

TEST_F(FaultInjectionTest, EclatMidMineCancelKeepsPrefixOfRootClasses) {
  const TransactionSet transactions = UniformBaskets();
  constexpr size_t kSupport = 50;
  Stopwatch watch;
  const std::vector<Itemset> full = MineEclat(transactions, kSupport);
  const double full_ms = watch.ElapsedMillis();

  // Root order: ascending singleton support, ties broken by item. Every
  // itemset is mined in the root class of its first item in that order.
  std::vector<const Itemset*> roots;
  for (const Itemset& set : full) {
    if (set.items.size() == 1) roots.push_back(&set);
  }
  std::sort(roots.begin(), roots.end(),
            [](const Itemset* a, const Itemset* b) {
              if (a->support != b->support) return a->support < b->support;
              return a->items[0] < b->items[0];
            });
  std::vector<size_t> rank(transactions.item_universe(),
                           std::numeric_limits<size_t>::max());
  for (size_t r = 0; r < roots.size(); ++r) rank[roots[r]->items[0]] = r;
  const auto root_class = [&rank](const Itemset& set) {
    size_t first = std::numeric_limits<size_t>::max();
    for (Item item : set.items) first = std::min(first, rank[item]);
    return first;
  };

  // A second thread trips the token part-way through the mine. Scheduling
  // decides where it lands, so later attempts trip sooner; whenever it
  // lands, the contract is the same.
  bool landed_mid_mine = false;
  for (int attempt = 0; attempt < 6 && !landed_mid_mine; ++attempt) {
    CancelToken token;
    const auto delay = std::chrono::duration<double, std::milli>(
        full_ms / static_cast<double>(2 << attempt));
    std::thread trip([&token, delay]() {
      std::this_thread::sleep_for(delay);
      token.Cancel();
    });
    EclatOptions options;
    options.cancel = &token;
    const std::vector<Itemset> partial =
        MineEclat(transactions, kSupport, options);
    trip.join();
    EXPECT_EQ(CancelToken::Check(&token).code(), StatusCode::kCancelled);
    ASSERT_TRUE(std::is_sorted(partial.begin(), partial.end(), ItemsetLess));

    // Every itemset of the partial result is in the full one with the
    // same support (both are sorted, so one merge scan checks it).
    size_t j = 0;
    for (const Itemset& set : partial) {
      while (j < full.size() && ItemsetLess(full[j], set)) ++j;
      ASSERT_LT(j, full.size()) << "partial result holds an unknown itemset";
      ASSERT_EQ(full[j].items, set.items);
      ASSERT_EQ(full[j].support, set.support);
      ++j;
    }

    // The miner stops only between root classes, so the partial result
    // is exactly the full result's itemsets of the first k root classes.
    size_t k = 0;
    for (const Itemset& set : partial) k = std::max(k, root_class(set) + 1);
    std::vector<Itemset> expected;
    for (const Itemset& set : full) {
      if (root_class(set) < k) expected.push_back(set);
    }
    ASSERT_EQ(partial.size(), expected.size()) << "k = " << k;
    for (size_t i = 0; i < partial.size(); ++i) {
      ASSERT_EQ(partial[i].items, expected[i].items) << "k = " << k;
      ASSERT_EQ(partial[i].support, expected[i].support) << "k = " << k;
    }
    landed_mid_mine = k > 0 && k < roots.size();
  }
  EXPECT_TRUE(landed_mid_mine) << "no trip landed between root classes";
}

}  // namespace
}  // namespace culevo
