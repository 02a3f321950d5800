// Perf-regression harness for the flat-arena model-simulation engine.
//
// Times the generate phase (EvolutionModel::GenerateInto into a reused
// RecipeStore — the RunSimulation hot path) across workloads spanning
// replacement policies (CM-R / CM-C / CM-M / NM), initial pool sizes
// (m = 10 / 20 / 80), contexts (the synthetic ITA cuisine at --scale and
// the fixed 300-ingredient golden context), and replica counts (batch of
// --replicas vs a single replica).
//
// Cross-check inside the run (exit code 1 if it fails): fixed-seed
// goldens — recipe-pool hashes (GenerateInto + StoreTransactions, seed 7)
// and RunSimulation rank-frequency curves (seed 42, 8 replicas) on the
// golden context must match values captured from the seed engine (commit
// 7f8afb5), proving the rebuilt engine reproduces the seed engine's output
// draw-for-draw.
//
// With --json <path> it writes BENCH_models.json (schema documented in
// EXPERIMENTS.md). `--reps <n>` controls timing repetitions (default 5,
// median reported). Where the recorded seed-engine baseline applies
// (scale 0.25 or 1.00, 20 replicas), `<row>_speedup_vs_seed` results are
// emitted against baselines measured on the same machine.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/copy_mutate.h"
#include "core/null_model.h"
#include "core/simulation.h"
#include "corpus/cuisine.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace {

using namespace culevo;

/// Median wall time of `reps` runs of `fn` in milliseconds.
template <typename Fn>
double MedianMs(int reps, const Fn& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    fn();
    samples.push_back(watch.ElapsedMillis());
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// The fixed context the goldens were captured on (independent of the
/// synthetic corpus, so synth changes cannot invalidate the cross-check).
CuisineContext GoldenContext() {
  CuisineContext context;
  context.cuisine = 0;
  for (IngredientId id = 0; id < 300; ++id) context.ingredients.push_back(id);
  context.popularity.assign(300, 0.5);
  context.mean_recipe_size = 9;
  context.target_recipes = 2000;
  context.phi = 300.0 / 2000.0;
  return context;
}

uint64_t HashRecipes(const TransactionSet& recipes) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a 64.
  for (size_t i = 0; i < recipes.size(); ++i) {
    for (Item id : recipes.transaction(i)) {
      h ^= static_cast<uint64_t>(id) + 1;
      h *= 1099511628211ull;
    }
    h ^= 0xFFull;
    h *= 1099511628211ull;
  }
  return h;
}

struct GoldenExpectation {
  const char* model;
  uint64_t recipe_hash;  ///< GenerateInto() at seed 7.
  size_t ingredient_curve_size;
  double ingredient_rank0;  ///< RunSimulation seed 42, 8 replicas.
  size_t category_curve_size;
  double category_rank0;
};

/// Captured from the seed engine on GoldenContext (see tests/
/// model_engine_test.cc for the longer curve heads).
constexpr GoldenExpectation kGoldens[] = {
    {"CM-R", 0x2d6329305d0d0ad4ull, 485, 0.515625, 392,
     0.93950000000000011},
    {"CM-C", 0x33f727f483f70e34ull, 410, 0.55693750000000009, 423,
     0.97368750000000004},
    {"CM-M", 0x7fa90fa5f7841098ull, 359, 0.53793750000000007, 411,
     0.94862500000000016},
    {"NM", 0xabf9b9bf0ca8fdaeull, 59, 0.12406249999999999, 317,
     0.91062499999999991},
};

/// Seed-engine generate-phase baselines (its Generate(), 20 replicas, median
/// of 5, -O3 -DNDEBUG, commit 7f8afb5) for the synthetic ITA cuisine.
struct SeedBaseline {
  double scale;
  const char* model;
  double ms;
};

constexpr SeedBaseline kSeedBaselines[] = {
    {0.25, "CM-R", 28.585}, {0.25, "CM-C", 30.886},
    {0.25, "CM-M", 38.886}, {0.25, "NM", 27.254},
    {1.00, "CM-R", 119.976}, {1.00, "CM-C", 131.333},
    {1.00, "CM-M", 160.724}, {1.00, "NM", 96.931},
};

double SeedBaselineMs(double scale, const std::string& model) {
  for (const SeedBaseline& b : kSeedBaselines) {
    if (std::abs(b.scale - scale) < 1e-9 && model == b.model) return b.ms;
  }
  return 0.0;
}

/// Lower-cases a model display name into a JSON key fragment
/// ("CM-R" -> "cmr", "NM" -> "nm").
std::string KeyName(const std::string& model) {
  std::string out;
  for (char c : model) {
    if (c == '-') continue;
    out.push_back(static_cast<char>(std::tolower(c)));
  }
  return out;
}

bool RunGoldenCrossCheck(const std::vector<std::pair<
                             std::string, const EvolutionModel*>>& models,
                         const Lexicon& lexicon) {
  const CuisineContext golden = GoldenContext();
  bool ok = true;
  for (const GoldenExpectation& expect : kGoldens) {
    const EvolutionModel* model = nullptr;
    for (const auto& [name, m] : models) {
      if (name == expect.model) model = m;
    }
    CULEVO_CHECK(model != nullptr);

    RecipeStore store;
    CULEVO_CHECK_OK(model->GenerateInto(golden, 7, &store));
    const uint64_t hash =
        HashRecipes(StoreTransactions(store, golden.ingredients));
    if (hash != expect.recipe_hash) {
      std::fprintf(stderr,
                   "GOLDEN MISMATCH %s: recipe-pool hash %016llx want "
                   "%016llx\n",
                   expect.model, static_cast<unsigned long long>(hash),
                   static_cast<unsigned long long>(expect.recipe_hash));
      ok = false;
    }

    SimulationConfig config;
    config.replicas = 8;
    config.seed = 42;
    Result<SimulationResult> result =
        RunSimulation(*model, golden, lexicon, config);
    CULEVO_CHECK_OK(result.status());
    if (result->ingredient_curve.size() != expect.ingredient_curve_size ||
        result->ingredient_curve.values()[0] != expect.ingredient_rank0 ||
        result->category_curve.size() != expect.category_curve_size ||
        result->category_curve.values()[0] != expect.category_rank0) {
      std::fprintf(stderr,
                   "GOLDEN MISMATCH %s: curves (%zu, %.17g; %zu, %.17g) "
                   "want (%zu, %.17g; %zu, %.17g)\n",
                   expect.model, result->ingredient_curve.size(),
                   result->ingredient_curve.values()[0],
                   result->category_curve.size(),
                   result->category_curve.values()[0],
                   expect.ingredient_curve_size, expect.ingredient_rank0,
                   expect.category_curve_size, expect.category_rank0);
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions options = bench::ParseOptions(argc, argv, {"reps"});
  const int reps = options.flags.GetIntIn("reps", 5, 1);

  bench::BenchReporter reporter("perf_models", options);
  reporter.BeginPhase("workload_build");
  const Lexicon& lexicon = WorldLexicon();
  const RecipeCorpus corpus = bench::MakeWorld(options, &reporter);
  Result<CuisineContext> ita =
      ContextFromCorpus(corpus, CuisineFromCode("ITA").value());
  CULEVO_CHECK_OK(ita.status());
  const CuisineContext golden = GoldenContext();

  const auto cmr = MakeCmR(&lexicon);
  const auto cmc = MakeCmC(&lexicon);
  const auto cmm = MakeCmM(&lexicon);
  const NullModel nm;
  const std::vector<std::pair<std::string, const EvolutionModel*>> models = {
      {"CM-R", cmr.get()},
      {"CM-C", cmc.get()},
      {"CM-M", cmm.get()},
      {"NM", &nm},
  };

  // Pool-size variants of CM-R (the paper's m = 20 plus a small and a
  // large pool; pool size shifts the fresh-recipe/pool-growth balance).
  ModelParams small_pool;
  small_pool.initial_pool = 10;
  ModelParams large_pool;
  large_pool.initial_pool = 80;
  const CopyMutateModel cmr_m10(&lexicon, small_pool);
  const CopyMutateModel cmr_m80(&lexicon, large_pool);

  reporter.BeginPhase("crosscheck");
  const bool goldens_ok = RunGoldenCrossCheck(models, lexicon);
  reporter.AddResult("crosscheck_passed", goldens_ok ? 1.0 : 0.0);
  std::printf("# golden cross-check: %s\n", goldens_ok ? "PASS" : "FAIL");

  const int replicas = options.replicas;
  reporter.AddResult("reps", reps);

  std::printf("\n%-22s %9s %9s %12s %14s\n", "row", "recipes", "replicas",
              "median_ms", "speedup_vs_seed");
  struct Row {
    std::string key;            ///< JSON result key prefix.
    const CuisineContext* context;
    const EvolutionModel* model;
    int replicas;
    double seed_baseline_ms;    ///< 0 = no recorded baseline.
  };
  std::vector<Row> rows;
  for (const auto& [name, model] : models) {
    rows.push_back({"ita_" + KeyName(name), &*ita, model, replicas,
                    replicas == 20 ? SeedBaselineMs(options.scale, name)
                                   : 0.0});
  }
  rows.push_back({"ita_cmr_m10", &*ita, &cmr_m10, replicas, 0.0});
  rows.push_back({"ita_cmr_m80", &*ita, &cmr_m80, replicas, 0.0});
  rows.push_back({"ita_cmr_r1", &*ita, cmr.get(), 1, 0.0});
  for (const auto& [name, model] : models) {
    rows.push_back({"golden_" + KeyName(name), &golden, model, replicas, 0.0});
  }

  reporter.BeginPhase("generate");
  for (const Row& row : rows) {
    RecipeStore store;
    const double ms = MedianMs(reps, [&]() {
      for (uint64_t k = 0; k < static_cast<uint64_t>(row.replicas); ++k) {
        CULEVO_CHECK_OK(row.model->GenerateInto(
            *row.context, DeriveSeed(options.seed, k), &store));
      }
    });
    const double speedup =
        row.seed_baseline_ms > 0.0 ? row.seed_baseline_ms / ms : 0.0;
    if (speedup > 0.0) {
      std::printf("%-22s %9zu %9d %12.3f %14.2f\n", row.key.c_str(),
                  row.context->target_recipes, row.replicas, ms, speedup);
      reporter.AddResult(row.key + "_speedup_vs_seed", speedup);
    } else {
      std::printf("%-22s %9zu %9d %12.3f %14s\n", row.key.c_str(),
                  row.context->target_recipes, row.replicas, ms, "-");
    }
    reporter.AddResult(row.key + "_generate_ms", ms);
  }

  const int exit_code = reporter.Finish();
  if (!goldens_ok) return 1;
  return exit_code;
}
