#include "core/simulation.h"

#include <bit>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>

#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "util/failpoint.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/strings.h"

namespace culevo {

static_assert(std::is_same_v<PoolPos, Item>,
              "RunSimulation mines a RecipeStore's positions as Items");

namespace {

/// Recipe `i` of `store` as ingredient ids, in draw order.
void ResolveRecipe(const RecipeStore& store, size_t i,
                   const std::vector<IngredientId>& ingredients,
                   std::vector<IngredientId>* ids) {
  ids->clear();
  for (PoolPos pos : store.recipe(i)) ids->push_back(ingredients[pos]);
}

}  // namespace

TransactionSet StoreTransactions(
    const RecipeStore& store, const std::vector<IngredientId>& ingredients) {
  TransactionSet out;
  out.Reserve(store.num_recipes(), store.num_items());
  std::vector<IngredientId> ids;
  for (size_t i = 0; i < store.num_recipes(); ++i) {
    ResolveRecipe(store, i, ingredients, &ids);
    out.AddIngredientSet(ids);
  }
  return out;
}

TransactionSet StoreCategoryTransactions(
    const RecipeStore& store, const std::vector<IngredientId>& ingredients,
    const Lexicon& lexicon) {
  TransactionSet out;
  out.Reserve(store.num_recipes());
  std::vector<IngredientId> ids;
  for (size_t i = 0; i < store.num_recipes(); ++i) {
    ResolveRecipe(store, i, ingredients, &ids);
    out.AddCategorySet(ids, lexicon);
  }
  return out;
}

uint64_t HashMiningConfig(const CombinationConfig& mining) {
  uint64_t hash = 0x51ED270B35A7E9D1ull;
  hash = HashCombine(hash,
                     std::bit_cast<uint64_t>(mining.min_relative_support));
  // The constant fills the slot that once held the miner kind (Eclat was
  // 0), which keeps the value every existing run manifest carries.
  hash = HashCombine(hash, uint64_t{0});
  return hash;
}

Result<SimulationResult> RunSimulation(const EvolutionModel& model,
                                       const CuisineContext& context,
                                       const Lexicon& lexicon,
                                       const SimulationConfig& config,
                                       ThreadPool* pool) {
  if (config.replicas <= 0) {
    return Status::InvalidArgument("replicas must be positive");
  }
  if (config.shard.count < 1 || config.shard.index < 0 ||
      config.shard.index >= config.shard.count) {
    return Status::InvalidArgument(StrFormat(
        "shard index %d out of range for %d shard(s)", config.shard.index,
        config.shard.count));
  }
  if (config.shard.active() && !config.checkpoint.enabled()) {
    return Status::InvalidArgument(
        "sharded execution requires a checkpoint directory: a shard's "
        "result only exists as journal input to the merge pass");
  }

  static obs::Counter* replicas_run =
      obs::MetricsRegistry::Get().counter("sim.replicas_run");
  static obs::Histogram* generate_ms =
      obs::MetricsRegistry::Get().histogram("sim.replica.generate_ms");
  static obs::Histogram* mine_ms =
      obs::MetricsRegistry::Get().histogram("sim.replica.mine_ms");

  // Open the journal before any work: a manifest mismatch must refuse the
  // run up front, not after replicas have been burned.
  std::unique_ptr<RunJournal> journal;
  if (config.checkpoint.enabled()) {
    RunManifest manifest;
    manifest.name = model.name();
    manifest.config_fingerprint = model.ConfigFingerprint();
    manifest.seed = config.seed;
    manifest.replicas = config.replicas;
    manifest.mining_hash = HashMiningConfig(config.mining);
    manifest.context_hash = HashCuisineContext(context, lexicon);
    // A shard journals into its own file but under the FULL run manifest
    // (global seed/replica count), which is exactly what lets the merge
    // pass check all shards against one identity.
    std::string file_name = StrFormat(
        "sim_%s_c%d.journal", SanitizeFileToken(model.name()).c_str(),
        static_cast<int>(context.cuisine));
    if (config.shard.active()) {
      file_name = ShardJournalFileName(file_name, config.shard.index);
    }
    Result<std::unique_ptr<RunJournal>> opened =
        RunJournal::Open(config.checkpoint, file_name, manifest);
    if (!opened.ok()) return opened.status();
    journal = std::move(opened).value();
  }

  const size_t n = static_cast<size_t>(config.replicas);
  std::vector<RankFrequency> ingredient_curves(n);
  std::vector<RankFrequency> category_curves(n);
  std::vector<Status> statuses(n);

  // Replicas restored from the journal are bit-identical to freshly
  // computed ones (curves cross the journal as raw double bit patterns),
  // so everything downstream — aggregation, report, per-replica curves —
  // cannot tell a resumed run from an uninterrupted one.
  std::vector<char> restored(n, 0);
  if (journal != nullptr) {
    for (const ReplicaCheckpoint& replica : journal->restored_replicas()) {
      const size_t k = static_cast<size_t>(replica.replica);
      if (replica.replica < 0 || k >= n || restored[k]) continue;
      ingredient_curves[k] = RankFrequency::FromSorted(replica.ingredient);
      category_curves[k] = RankFrequency::FromSorted(replica.category);
      restored[k] = 1;
    }
  }

  // First journal-append failure; checked after the replica loop. A
  // checkpointed run whose journal cannot be written must fail — claiming
  // durability without it would be worse than not checkpointing.
  std::mutex journal_error_mu;
  Status journal_error;

  CombinationConfig mining = config.mining;
  mining.cancel = config.cancel;

  // Each pool position's category: the item map under which a replica's
  // store mines as category transactions.
  std::vector<Item> category_of(context.ingredients.size());
  for (size_t pos = 0; pos < category_of.size(); ++pos) {
    category_of[pos] =
        static_cast<Item>(lexicon.category(context.ingredients[pos]));
  }

  const auto run_replica = [&](size_t k) {
    if (!config.shard.owns(k)) return;  // another worker's unit
    if (restored[k]) return;            // completed by a prior attempt
    if (CancelToken::ShouldStop(config.cancel)) {
      statuses[k] = CancelToken::Check(config.cancel);
      return;
    }
    if (config.shard.active()) {
      // Fault-injection hook for the fabric's stall supervision: an armed
      // `exec.worker.stall` turns this replica into a hang (bounded, so a
      // missed SIGKILL cannot wedge the test suite forever). Sharded-only:
      // a single-process run has no supervisor to rescue it.
      if (!FailpointCheck("exec.worker.stall").ok()) {
        for (int slice = 0; slice < 600; ++slice) {
          if (CancelToken::ShouldStop(config.cancel)) break;
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
      }
    }
    {
      // One flat store per replica: the whole generated pool is a single
      // position buffer instead of target_recipes small vectors.
      RecipeStore store;
      {
        obs::ScopedTimer timer(generate_ms);
        statuses[k] =
            model.GenerateInto(context, DeriveSeed(config.seed, k), &store);
      }
      if (!statuses[k].ok()) return;
      obs::ScopedTimer timer(mine_ms);
      // The store is mined as it stands, over pool positions. Each position
      // names one id, and positions rise with ids (context.ingredients is
      // sorted), so every support is the one StoreTransactions' ids give;
      // through category_of every recipe has StoreCategoryTransactions'
      // category set.
      TransactionView positions;
      positions.items = store.items();
      positions.offsets = store.offsets();
      positions.item_universe = context.ingredients.size();
      ingredient_curves[k] = CombinationCurve(positions, mining);
      TransactionView categories = positions;
      categories.item_universe = kNumCategories;
      categories.item_map = category_of;
      category_curves[k] = CombinationCurve(categories, mining);
    }
    replicas_run->Increment();

    // A tripped token may have truncated this replica's *mining* mid-way
    // (CombinationCurve returns partial curves on cancellation, and the
    // whole aggregate is discarded with kCancelled anyway) — such a
    // replica must not be journaled as complete. Cancellation is
    // monotonic, so an untripped token here proves mining ran whole.
    if (journal == nullptr || CancelToken::ShouldStop(config.cancel)) return;
    ReplicaCheckpoint checkpoint;
    checkpoint.replica = static_cast<int>(k);
    checkpoint.ingredient = ingredient_curves[k].values();
    checkpoint.category = category_curves[k].values();
    if (Status appended = journal->AppendReplica(checkpoint);
        !appended.ok()) {
      std::lock_guard<std::mutex> lock(journal_error_mu);
      if (journal_error.ok()) journal_error = std::move(appended);
    }
  };

  RunTasks(n, pool != nullptr ? pool->num_threads() : 1, run_replica,
           config.cancel);

  // A tripped token invalidates the aggregate: pending replicas were
  // skipped, so report the trip instead of a silently-partial result.
  // Completed replicas are already durable in the journal, and a final
  // interrupt record (best-effort — the trip itself matters more than
  // documenting it) marks why the journal is incomplete.
  if (Status cancelled = CancelToken::Check(config.cancel);
      !cancelled.ok()) {
    if (journal != nullptr) {
      (void)journal->AppendInterrupt(cancelled);
    }
    return cancelled;
  }
  if (!journal_error.ok()) return journal_error;

  // Every replica has run: the lowest failing one decides the status,
  // whatever the scheduling.
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }

  SimulationResult result;
  // A shard accounts only for its own units: the coordinator's merged
  // resume pass rebuilds the whole-run report afterwards.
  for (size_t k = 0; k < n; ++k) {
    result.report.replicas_requested += config.shard.owns(k) ? 1 : 0;
  }
  result.report.replicas_succeeded = result.report.replicas_requested;
  // A shard averages only the replicas it owns, so another worker's empty
  // slot dilutes nothing.
  const auto average = [&](const std::vector<RankFrequency>& curves) {
    if (!config.shard.active()) return AverageRankFrequencies(curves);
    std::vector<RankFrequency> owned;
    for (size_t k = 0; k < n; ++k) {
      if (config.shard.owns(k)) owned.push_back(curves[k]);
    }
    return AverageRankFrequencies(owned);
  };
  result.ingredient_curve = average(ingredient_curves);
  result.category_curve = average(category_curves);
  result.replica_ingredient_curves = std::move(ingredient_curves);
  return result;
}

}  // namespace culevo
