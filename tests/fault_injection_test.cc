// End-to-end fault-injection suite for the fault-tolerant execution
// layer: replica error isolation (fail_fast / tolerate_k / retries),
// cooperative cancellation and deadlines, and the RunReport ledger.
//
// Failpoint-based cases run RunSimulation serially: failpoint skip/fires
// counters are hit-order based, and only the serial path has a
// deterministic hit order. Scheduling-independent cases (serial == pool)
// instead use a wrapper model that fails for specific replica seeds.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <string>
#include <thread>

#include "analysis/eclat.h"
#include "core/copy_mutate.h"
#include "core/null_model.h"
#include "core/simulation.h"
#include "lexicon/world_lexicon.h"
#include "util/cancel.h"
#include "util/failpoint.h"
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

/// Delegates to an inner model but fails every attempt whose seed is in a
/// deny list. Seeds identify replicas/attempts independently of thread
/// scheduling, so this injects deterministic faults even on a pool.
class SeedDenyModel : public EvolutionModel {
 public:
  SeedDenyModel(const EvolutionModel* inner, std::vector<uint64_t> deny)
      : inner_(inner), deny_(std::move(deny)) {}

  std::string name() const override { return "deny(" + inner_->name() + ")"; }

  Status GenerateInto(const CuisineContext& context, uint64_t seed,
                      RecipeStore* store) const override {
    for (uint64_t denied : deny_) {
      if (seed == denied) return Status::Internal("injected replica fault");
    }
    return inner_->GenerateInto(context, seed, store);
  }

 private:
  const EvolutionModel* inner_;
  std::vector<uint64_t> deny_;
};

class FaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoints::Get().DisarmAll(); }
};

TEST_F(FaultInjectionTest, TolerateKSurvivorsBitIdenticalToCleanRun) {
  const Lexicon& lexicon = WorldLexicon();
  const NullModel model;
  SimulationConfig config;
  config.replicas = 4;
  config.seed = 21;

  Result<SimulationResult> clean =
      RunSimulation(model, SmallContext(), lexicon, config);
  ASSERT_TRUE(clean.ok());

  // Serial run: the third generate call is replica 2's first attempt.
  Failpoints::ArmSpec spec;
  spec.skip = 2;
  spec.fires = 1;
  Failpoints::Get().Arm("sim.replica.generate", spec);
  config.tolerate_k = 1;
  Result<SimulationResult> degraded =
      RunSimulation(model, SmallContext(), lexicon, config);
  Failpoints::Get().DisarmAll();
  ASSERT_TRUE(degraded.ok());

  const RunReport& report = degraded->report;
  EXPECT_EQ(report.replicas_requested, 4);
  EXPECT_EQ(report.replicas_succeeded, 3);
  EXPECT_EQ(report.replicas_failed, 1);
  EXPECT_TRUE(report.degraded());
  ASSERT_EQ(report.incidents.size(), 1u);
  EXPECT_EQ(report.incidents[0].replica, 2);
  EXPECT_EQ(report.incidents[0].status.code(), StatusCode::kIOError);

  // The failed replica's slot is empty; the survivors are bit-identical
  // to the fault-free run of the same seeds.
  ASSERT_EQ(degraded->replica_ingredient_curves.size(), 4u);
  EXPECT_TRUE(degraded->replica_ingredient_curves[2].empty());
  for (size_t k : {0u, 1u, 3u}) {
    EXPECT_EQ(degraded->replica_ingredient_curves[k].values(),
              clean->replica_ingredient_curves[k].values())
        << "replica " << k;
  }
  // Degraded aggregate differs from the full aggregate (3 curves vs 4).
  EXPECT_NE(degraded->ingredient_curve.values(),
            clean->ingredient_curve.values());
}

TEST_F(FaultInjectionTest, FailFastReturnsReplicaError) {
  const Lexicon& lexicon = WorldLexicon();
  const NullModel model;
  Failpoints::ArmSpec spec;
  spec.fires = 1;
  Failpoints::Get().Arm("sim.replica.generate", spec);
  SimulationConfig config;
  config.replicas = 3;
  Result<SimulationResult> result =
      RunSimulation(model, SmallContext(), lexicon, config);
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

TEST_F(FaultInjectionTest, ToleranceBudgetExceededFails) {
  const Lexicon& lexicon = WorldLexicon();
  const NullModel model;
  Failpoints::Get().Arm("sim.replica.generate");  // every replica fails
  SimulationConfig config;
  config.replicas = 3;
  config.tolerate_k = 1;
  Result<SimulationResult> result =
      RunSimulation(model, SmallContext(), lexicon, config);
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

TEST_F(FaultInjectionTest, MiningFailpointIsolatedLikeGeneration) {
  const Lexicon& lexicon = WorldLexicon();
  const NullModel model;
  Failpoints::ArmSpec spec;
  spec.fires = 1;
  Failpoints::Get().Arm("sim.replica.mine", spec);
  SimulationConfig config;
  config.replicas = 2;
  config.tolerate_k = 1;
  Result<SimulationResult> result =
      RunSimulation(model, SmallContext(), lexicon, config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->report.replicas_failed, 1);
  EXPECT_EQ(result->report.incidents[0].replica, 0);
}

TEST_F(FaultInjectionTest, RetryRecoversAndRecordsIncident) {
  const Lexicon& lexicon = WorldLexicon();
  const NullModel model;
  Failpoints::ArmSpec spec;
  spec.fires = 1;  // replica 0's first attempt fails, its retry passes
  Failpoints::Get().Arm("sim.replica.generate", spec);
  SimulationConfig config;
  config.replicas = 3;
  config.seed = 21;
  config.max_replica_retries = 1;
  Result<SimulationResult> result =
      RunSimulation(model, SmallContext(), lexicon, config);
  ASSERT_TRUE(result.ok());
  const RunReport& report = result->report;
  EXPECT_EQ(report.replicas_failed, 0);
  EXPECT_FALSE(report.degraded());
  ASSERT_EQ(report.incidents.size(), 1u);
  EXPECT_EQ(report.incidents[0].replica, 0);
  EXPECT_TRUE(report.incidents[0].status.ok());
  EXPECT_EQ(report.incidents[0].retries, 1);
  EXPECT_EQ(report.total_retries(), 1);

  // The recovered replica used the derived retry seed, so its curve
  // matches a direct run of that seed's replica — deterministic, not
  // scheduling-dependent. Replicas 1 and 2 saw no fault at all.
  Result<SimulationResult> clean =
      RunSimulation(model, SmallContext(), lexicon, config);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(result->replica_ingredient_curves[1].values(),
            clean->replica_ingredient_curves[1].values());
  EXPECT_EQ(result->replica_ingredient_curves[2].values(),
            clean->replica_ingredient_curves[2].values());
}

TEST_F(FaultInjectionTest, RetryBudgetExhaustedFails) {
  const Lexicon& lexicon = WorldLexicon();
  const NullModel model;
  Failpoints::Get().Arm("sim.replica.generate");  // fails every attempt
  SimulationConfig config;
  config.replicas = 1;
  config.max_replica_retries = 2;
  Result<SimulationResult> result =
      RunSimulation(model, SmallContext(), lexicon, config);
  EXPECT_FALSE(result.ok());
  // 1 initial attempt + 2 retries.
  EXPECT_EQ(Failpoints::Get().HitCount("sim.replica.generate"), 3);
}

TEST_F(FaultInjectionTest, SerialEqualsPoolUnderToleratedFault) {
  const Lexicon& lexicon = WorldLexicon();
  const auto inner = MakeCmR(&lexicon);
  SimulationConfig config;
  config.replicas = 6;
  config.seed = 33;
  config.tolerate_k = 1;
  // Deny replica 4's canonical seed: it fails wherever it is scheduled.
  const SeedDenyModel model(inner.get(), {DeriveSeed(config.seed, 4)});

  Result<SimulationResult> serial =
      RunSimulation(model, SmallContext(), lexicon, config, nullptr);
  ThreadPool pool(4);
  Result<SimulationResult> parallel =
      RunSimulation(model, SmallContext(), lexicon, config, &pool);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(serial->report.replicas_failed, 1);
  EXPECT_EQ(parallel->report.replicas_failed, 1);
  ASSERT_EQ(parallel->report.incidents.size(), 1u);
  EXPECT_EQ(parallel->report.incidents[0].replica, 4);
  EXPECT_EQ(serial->ingredient_curve.values(),
            parallel->ingredient_curve.values());
  EXPECT_EQ(serial->category_curve.values(),
            parallel->category_curve.values());
}

TEST_F(FaultInjectionTest, RetrySeedDeniedFallsThroughDeterministically) {
  // Deny replica 1's canonical seed but allow its retry seed: the replica
  // recovers on attempt 1 identically under serial and pool execution.
  const Lexicon& lexicon = WorldLexicon();
  const auto inner = MakeCmR(&lexicon);
  SimulationConfig config;
  config.replicas = 3;
  config.seed = 7;
  config.max_replica_retries = 1;
  const SeedDenyModel model(inner.get(), {DeriveSeed(config.seed, 1)});

  Result<SimulationResult> serial =
      RunSimulation(model, SmallContext(), lexicon, config, nullptr);
  ThreadPool pool(3);
  Result<SimulationResult> parallel =
      RunSimulation(model, SmallContext(), lexicon, config, &pool);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(serial->report.total_retries(), 1);
  EXPECT_EQ(parallel->report.total_retries(), 1);
  EXPECT_EQ(serial->replica_ingredient_curves[1].values(),
            parallel->replica_ingredient_curves[1].values());
  EXPECT_EQ(serial->ingredient_curve.values(),
            parallel->ingredient_curve.values());
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

TEST_F(FaultInjectionTest, RunReportToJsonRendersLedger) {
  RunReport report;
  report.replicas_requested = 4;
  report.replicas_succeeded = 3;
  report.replicas_failed = 1;
  report.incidents.push_back(
      ReplicaIncident{2, Status::IOError("injected failure"), 1});
  const std::string json = RunReportToJson(report);
  EXPECT_NE(json.find("\"replicas_requested\":4"), std::string::npos);
  EXPECT_NE(json.find("\"replicas_failed\":1"), std::string::npos);
  EXPECT_NE(json.find("\"degraded\":true"), std::string::npos);
  EXPECT_NE(json.find("\"replica\":2"), std::string::npos);
  EXPECT_NE(json.find("injected failure"), std::string::npos);
}

}  // namespace
}  // namespace culevo
