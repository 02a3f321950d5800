#include "core/simulation.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <memory>
#include <mutex>
#include <span>
#include <thread>

#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "util/failpoint.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/strings.h"

namespace culevo {

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

int RunReport::total_retries() const {
  int total = 0;
  for (const ReplicaIncident& incident : incidents) {
    total += incident.retries;
  }
  return total;
}

std::string RunReportToJson(const RunReport& report) {
  JsonWriter json;
  json.BeginObject();
  json.Key("replicas_requested");
  json.Int(report.replicas_requested);
  json.Key("replicas_succeeded");
  json.Int(report.replicas_succeeded);
  json.Key("replicas_failed");
  json.Int(report.replicas_failed);
  json.Key("total_retries");
  json.Int(report.total_retries());
  json.Key("degraded");
  json.Bool(report.degraded());
  json.Key("incidents");
  json.BeginArray();
  for (const ReplicaIncident& incident : report.incidents) {
    json.BeginObject();
    json.Key("replica");
    json.Int(incident.replica);
    json.Key("status");
    json.String(incident.status.ToString());
    json.Key("retries");
    json.Int(incident.retries);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return std::move(json).Take();
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
  if (config.tolerate_k < 0) {
    return Status::InvalidArgument("tolerate_k must be >= 0");
  }
  if (config.max_replica_retries < 0) {
    return Status::InvalidArgument("max_replica_retries must be >= 0");
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
  static obs::Counter* replica_failures =
      obs::MetricsRegistry::Get().counter("sim.replica.failures");
  static obs::Counter* replica_retries =
      obs::MetricsRegistry::Get().counter("sim.replica.retries");
  static obs::Counter* runs_degraded =
      obs::MetricsRegistry::Get().counter("sim.runs_degraded");
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
  std::vector<int> retries(n, 0);

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
      retries[k] = replica.retries;
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
    Status status;
    int attempt = 0;
    for (;;) {
      // Attempt 0 is the canonical replica seed; retries re-derive from
      // it so a recovered replica is deterministic in (seed, k, attempt)
      // and independent of which thread reruns it.
      const uint64_t replica_seed =
          attempt == 0 ? DeriveSeed(config.seed, k)
                       : DeriveSeed(DeriveSeed(config.seed, k),
                                    static_cast<uint64_t>(attempt));
      // One flat store per attempt: the whole generated pool is a single
      // position buffer instead of target_recipes small vectors.
      RecipeStore store;
      status = FailpointCheck("sim.replica.generate");
      if (status.ok()) {
        obs::ScopedTimer timer(generate_ms);
        status = model.GenerateInto(context, replica_seed, &store);
      }
      if (status.ok()) {
        status = FailpointCheck("sim.replica.mine");
        if (status.ok()) {
          obs::ScopedTimer timer(mine_ms);
          ingredient_curves[k] = CombinationCurve(
              StoreTransactions(store, context.ingredients), mining);
          category_curves[k] = CombinationCurve(
              StoreCategoryTransactions(store, context.ingredients,
                                        lexicon),
              mining);
        }
      }
      if (status.ok() || attempt >= config.max_replica_retries ||
          CancelToken::ShouldStop(config.cancel)) {
        break;
      }
      ++attempt;
    }
    retries[k] = attempt;
    statuses[k] = std::move(status);
    if (statuses[k].ok()) replicas_run->Increment();

    if (journal != nullptr) {
      Status appended;
      // A tripped token may have truncated this replica's *mining* mid-way
      // (CombinationCurve returns partial curves on cancellation, and the
      // whole aggregate is discarded with kCancelled anyway) — such a
      // replica must not be journaled as complete. Cancellation is
      // monotonic, so an untripped token here proves mining ran whole.
      if (statuses[k].ok() && !CancelToken::ShouldStop(config.cancel)) {
        ReplicaCheckpoint checkpoint;
        checkpoint.replica = static_cast<int>(k);
        checkpoint.retries = attempt;
        checkpoint.ingredient = ingredient_curves[k].values();
        checkpoint.category = category_curves[k].values();
        appended = journal->AppendReplica(checkpoint);
      } else if (attempt >= config.max_replica_retries &&
                 !CancelToken::ShouldStop(config.cancel)) {
        // A permanent failure (retry budget exhausted, not a cancellation
        // artifact) is journaled for RunReport continuity; the replica is
        // NOT marked complete, so a resume re-runs it.
        appended = journal->AppendIncident(static_cast<int>(k), statuses[k],
                                           attempt);
      }
      if (!appended.ok()) {
        std::lock_guard<std::mutex> lock(journal_error_mu);
        if (journal_error.ok()) journal_error = std::move(appended);
      }
    }
  };

  if (pool != nullptr) {
    pool->ParallelFor(n, run_replica, config.cancel);
  } else {
    for (size_t k = 0; k < n; ++k) {
      if (CancelToken::ShouldStop(config.cancel)) break;
      run_replica(k);
    }
  }

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

  RunReport report;
  // A shard accounts only for its own units: the coordinator's merged
  // resume pass rebuilds the whole-run report afterwards.
  int owned = 0;
  for (size_t k = 0; k < n; ++k) {
    owned += config.shard.owns(k) ? 1 : 0;
  }
  report.replicas_requested = owned;
  if (journal != nullptr) {
    // Ledger continuity: failures journaled by prior attempts of this
    // logical run stay visible even though their replicas were re-run.
    for (const IncidentCheckpoint& prior : journal->prior_incidents()) {
      report.incidents.push_back(ReplicaIncident{
          prior.replica, IncidentStatus(prior), prior.retries});
    }
  }
  const Status* first_failure = nullptr;
  for (size_t k = 0; k < n; ++k) {
    if (!config.shard.owns(k)) continue;
    if (statuses[k].ok()) {
      ++report.replicas_succeeded;
    } else {
      ++report.replicas_failed;
      if (first_failure == nullptr) first_failure = &statuses[k];
    }
    if (!statuses[k].ok() || retries[k] > 0) {
      report.incidents.push_back(
          ReplicaIncident{static_cast<int>(k), statuses[k], retries[k]});
    }
  }
  replica_failures->Increment(report.replicas_failed);
  replica_retries->Increment(report.total_retries());

  if (report.replicas_failed > 0) {
    if (report.replicas_failed > config.tolerate_k ||
        report.replicas_succeeded == 0) {
      return *first_failure;
    }
    runs_degraded->Increment();
  }

  SimulationResult result;
  if (!report.degraded() && !config.shard.active()) {
    result.ingredient_curve = AverageRankFrequencies(ingredient_curves);
    result.category_curve = AverageRankFrequencies(category_curves);
  } else {
    // Aggregate the survivors only, so a lost replica (or, on a shard,
    // another worker's empty slot) dilutes nothing.
    std::vector<RankFrequency> ok_ingredient;
    std::vector<RankFrequency> ok_category;
    ok_ingredient.reserve(static_cast<size_t>(report.replicas_succeeded));
    ok_category.reserve(static_cast<size_t>(report.replicas_succeeded));
    for (size_t k = 0; k < n; ++k) {
      if (!config.shard.owns(k) || !statuses[k].ok()) continue;
      ok_ingredient.push_back(ingredient_curves[k]);
      ok_category.push_back(category_curves[k]);
    }
    result.ingredient_curve = AverageRankFrequencies(ok_ingredient);
    result.category_curve = AverageRankFrequencies(ok_category);
  }
  result.replica_ingredient_curves = std::move(ingredient_curves);
  result.report = std::move(report);
  return result;
}

}  // namespace culevo
