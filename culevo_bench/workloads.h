#ifndef CULEVO_BENCH_WORKLOADS_H_
#define CULEVO_BENCH_WORKLOADS_H_

// The four culevo_bench workloads, the inputs they are generated from, and
// the hidden child roles the benchmark re-executes itself in.

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "corpus/recipe_corpus.h"
#include "harness.h"
#include "tracer.h"
#include "util/flags.h"
#include "util/status.h"

namespace culevo::cbench {

/// Input sizes. The default is the benchmark proper; --smoke shrinks
/// every input so a full pass over all workloads takes seconds.
struct Sizes {
  double world_scale = 1.0;      ///< 158,460 recipes, the paper's size
  size_t serve_recipes = 1000000;
  size_t delta_recipes = 10000;  ///< 1% of the serve corpus
  int grid_replicas = 100;       ///< per cuisine x model: the paper's Fig. 4
  int warmup_replicas = 2;       ///< of the untimed warm-up pass
  int trace_cuisines = 5;
  int trace_replicas = 20;
  int trace_requests = 20000;    ///< per traced request replay

  static Sizes Smoke();
};

/// What the benchmark reads from pinned.txt (which also names the
/// held-out seed): the default seed, the core count the bounds in
/// BENCHMARK.json were measured on, and the full-size evolve_grid digest
/// per seed.
struct Pinned {
  uint64_t default_seed = 0;
  unsigned nproc = 0;
  std::map<uint64_t, std::string> grid_digests;  ///< seed -> hex digest
};
Result<Pinned> LoadPinned(const std::string& path);

/// One benchmark run.
struct RunContext {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  /// Flip one byte of a reference response before comparing: the
  /// negative case that proves the response check can fail.
  bool corrupt_reference = false;
  Sizes sizes;
  Pinned pinned;
  /// Scratch directory for this run's inputs, relative to the working
  /// directory (Unix socket paths must stay short).
  std::string dir;
  std::string self_exe;  ///< absolute path of this binary, for re-exec
  unsigned cores = 1;
};

/// Seed of the world corpus. The world stands in for the paper's one
/// dataset, so it is the same in every run; --seed drives everything
/// stochastic that is drawn from it (model replicas, the serve corpus's
/// resampling, deltas, request scripts). With a world per seed the
/// amount of mining work changed with the seed: two seeds run back to
/// back differed by 8% in evolve_grid replicas/s.
inline constexpr uint64_t kWorldSeed = 42;

/// The calibrated synthetic world corpus (Table I counts x scale).
Result<RecipeCorpus> MakeWorld(const RunContext& ctx);

/// What the serve workloads are generated from.
struct ServeInputs {
  std::string snapshot;                ///< CULEVO-CORPUS of the serve corpus
  size_t num_recipes = 0;              ///< of the serve corpus
  std::vector<std::string> deltas;     ///< CULEVO-DELTA chain, in order
  std::vector<size_t> delta_records;
  /// Ingredients each cuisine of the serve corpus uses (so `freq`
  /// requests always hit).
  std::array<std::vector<IngredientId>, kNumCuisines> used;
};

/// Writes the serve corpus (serve_recipes recipes resampled with
/// replacement from `world`, so ingredient popularity keeps its Zipf
/// shape) and a chain of `num_deltas` deltas of delta_recipes recipes,
/// each based on the corpus after the previous one.
Result<ServeInputs> WriteServeInputs(const RunContext& ctx,
                                     const RecipeCorpus& world,
                                     int num_deltas);

void RunServeLookup(const RunContext& ctx, Report* report, Tracer* tracer);
void RunServeReload(const RunContext& ctx, Report* report, Tracer* tracer);
void RunEvolveGrid(const RunContext& ctx, Report* report, Tracer* tracer);
void RunEvolveFabric(const RunContext& ctx, Report* report, Tracer* tracer);

/// Hidden child roles (`--role <name>`); each returns the exit code.
int RunEvolveRole(const std::string& role, const FlagParser& flags);

}  // namespace culevo::cbench

#endif  // CULEVO_BENCH_WORKLOADS_H_
