#ifndef CULEVO_CORE_SIMULATION_H_
#define CULEVO_CORE_SIMULATION_H_

#include <cstdint>
#include <vector>

#include "analysis/combinations.h"
#include "analysis/rank_frequency.h"
#include "core/evolution_model.h"
#include "core/run_journal.h"
#include "lexicon/lexicon.h"
#include "util/cancel.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace culevo {

/// Replica counts of one RunSimulation call. A replica error fails the
/// whole run, so in a returned result `replicas_failed` is always 0 and
/// every requested replica succeeded. A shard counts only the replicas it
/// owns.
struct RunReport {
  int replicas_requested = 0;
  int replicas_succeeded = 0;
  int replicas_failed = 0;
};

/// Stable content hash of the mining parameters that change mined output
/// (the support). Cancel tokens are execution detail and excluded — a
/// checkpoint manifest must not depend on them.
uint64_t HashMiningConfig(const CombinationConfig& mining);

/// Multi-process sharding of the work grid (see exec/fabric.h). The
/// coordinator spawns `count` workers; worker `index` runs only the
/// replicas it owns, journaling them into a `.shard<index>` journal that
/// the coordinator's resume (CheckpointOptions::merge_shards) later folds
/// back together. Replica identity stays GLOBAL: replica k uses
/// DeriveSeed(seed, k) whatever the layout, so the merged output is
/// bit-identical to a single-process run and independent of worker count,
/// scheduling, and which shard computed what. The default {0, 1} means
/// "not sharded".
struct ShardSpec {
  int index = 0;
  int count = 1;

  bool active() const { return count > 1; }
  /// True when this shard computes global unit `unit` (round-robin).
  bool owns(size_t unit) const {
    return !active() ||
           static_cast<int>(unit % static_cast<size_t>(count)) == index;
  }
};

/// Multi-replica simulation settings. The paper aggregates 100 replicas;
/// benches default lower for the single-core harness and expose a flag.
struct SimulationConfig {
  int replicas = 100;
  uint64_t seed = 42;
  /// 5% relative support. `mining.cancel` is overwritten with `cancel`
  /// below.
  CombinationConfig mining;

  /// Cooperative cancellation/deadline token, polled at replica
  /// granularity (and root-class granularity inside mining). Null = run
  /// to completion. A tripped token aborts the run with kCancelled /
  /// kDeadlineExceeded; completed replicas are discarded.
  const CancelToken* cancel = nullptr;

  /// Crash recovery. With `checkpoint.directory` set, every completed
  /// replica is journaled (file `sim_<model>_c<cuisine>.journal` in that
  /// directory) and, with `checkpoint.resume`, previously completed
  /// replicas are restored instead of re-run — the resumed run's curves
  /// and RunReport are bit-identical to an uninterrupted run of the same
  /// config. A journal whose manifest does not match this run (model,
  /// params, seed, replicas, mining, corpus) is refused with
  /// FailedPrecondition. A journal append failure fails the run (a
  /// checkpointed run that cannot checkpoint is lying about its
  /// durability). On cancellation an `interrupt` record is flushed
  /// best-effort before kCancelled/kDeadlineExceeded is returned.
  CheckpointOptions checkpoint;

  /// Worker-process sharding. When active, only owned replicas are run,
  /// journaled (into the `.shard<index>` journal), and aggregated — the
  /// returned result covers this shard's replicas only and non-owned
  /// slots of `replica_ingredient_curves` stay empty, so sharded
  /// execution REQUIRES checkpointing (InvalidArgument otherwise): the
  /// partial result is only meaningful as journal input to the
  /// coordinator's merge pass.
  ShardSpec shard;
};

/// Aggregated output of running one model on one cuisine context.
struct SimulationResult {
  /// Rank-frequency of frequent ingredient combinations, averaged
  /// position-wise across the replicas (the paper's "aggregated
  /// statistics").
  RankFrequency ingredient_curve;
  /// Same for category combinations.
  RankFrequency category_curve;
  /// Per-replica ingredient curves (for dispersion analysis), indexed by
  /// replica.
  std::vector<RankFrequency> replica_ingredient_curves;
  RunReport report;
};

/// Runs `config.replicas` independent replicas of `model` on `context`
/// (replica k runs once, at DeriveSeed(config.seed, k)), mines each
/// generated recipe store at the configured support, and aggregates the
/// curves. The replicas are the tasks of one RunTasks loop, on
/// `pool->num_threads()` threads if `pool` is non-null and on the calling
/// thread otherwise; results are identical either way.
///
/// A replica error fails the run: once every started replica has finished,
/// the lowest failing replica's Status is returned, serially and on a pool
/// alike. A tripped `config.cancel` token aborts between replicas with
/// kCancelled / kDeadlineExceeded.
Result<SimulationResult> RunSimulation(const EvolutionModel& model,
                                       const CuisineContext& context,
                                       const Lexicon& lexicon,
                                       const SimulationConfig& config,
                                       ThreadPool* pool = nullptr);

/// The reference projection of a generated recipe store: recipe i's
/// positions resolved against `ingredients` and sorted, one ingredient-id
/// transaction per recipe (the projection IngredientTransactions applies
/// to a corpus). RunSimulation mines the store itself, without it; tests,
/// perf_models' recipe-pool goldens and culevo_bench's traced
/// decomposition use it as the reference.
TransactionSet StoreTransactions(const RecipeStore& store,
                                 const std::vector<IngredientId>& ingredients);

/// Category projection of StoreTransactions, also a reference only.
TransactionSet StoreCategoryTransactions(
    const RecipeStore& store, const std::vector<IngredientId>& ingredients,
    const Lexicon& lexicon);

}  // namespace culevo

#endif  // CULEVO_CORE_SIMULATION_H_
