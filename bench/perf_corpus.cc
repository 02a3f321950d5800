// Perf-regression harness for the million-recipe corpus storage layer.
//
// Builds a synthetic corpus of --recipes recipes (default 100000) over the
// 721-entity world lexicon, then measures the storage paths against each
// other:
//
//   parse_tsv_ms        — ParseCorpusTsv over the canonical TSV text (the
//                         pre-snapshot cold-start path);
//   snapshot_write_ms   — one-shot CULEVO-CORPUS snapshot write;
//   snapshot_load_mmap_ms / snapshot_load_read_ms
//                       — cold snapshot load via mmap and via the buffered
//                         fallback (both verify every section checksum);
//   rebuild_ms          — full rebuild after a 1% batch of new recipes:
//                         Builder over all rows + Build + ComputeCuisineStats
//                         (read off the histograms Build counts);
//   incremental_ms      — the same 1% batch applied as a delta reload
//                         applies it: IncrementalCorpus::FromCorpus on the
//                         corpus, Add per recipe, then Materialize.
//
// Cross-checks inside the run (exit 1 on any failure):
//   - TSV round trip: the parsed corpus must match the built one
//     bit-identically (CuisineStats and Eclat itemsets);
//   - snapshot round trip: the mmap-loaded and fallback-loaded corpora
//     must match the built one the same way;
//   - incremental ingestion: stats, and the per-cuisine transactions of
//     the materialized standing corpus, must be bit-identical to the full
//     rebuild's.
//
// --assert-snapshot-speedup turns the two headline ratios into a gate
// (exit 1): mmap snapshot load must beat TSV parse by >= 20x and the
// incremental 1% ingest must beat the full rebuild by >= 10x. Each ratio
// is the best over --reps back-to-back (slow path, fast path) pairs, so
// shared-host load hits both sides of a pair equally and cannot fail a
// healthy build — the same noise-cancelling idiom as perf_mining's
// ST/MT gate.
// With --json <path> it writes BENCH_corpus.json (schema in
// EXPERIMENTS.md).

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "analysis/combinations.h"
#include "analysis/eclat.h"
#include "analysis/transactions.h"
#include "bench/bench_common.h"
#include "corpus/corpus_io.h"
#include "corpus/corpus_snapshot.h"
#include "corpus/corpus_stats.h"
#include "corpus/ingestion.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace {

using namespace culevo;

/// Synthetic recipe rows in flat columns (no per-row allocations, so the
/// rebuild-vs-incremental timing compares ingestion work, not row-storage
/// overhead).
struct SynthRows {
  std::vector<CuisineId> cuisines;
  std::vector<uint32_t> offsets = {0};
  std::vector<IngredientId> ids;

  size_t size() const { return cuisines.size(); }
  std::span<const IngredientId> row(size_t i) const {
    return std::span<const IngredientId>(ids.data() + offsets[i],
                                         offsets[i + 1] - offsets[i]);
  }
};

/// Draws `count` recipes: cuisine skewed toward low ids (min of two
/// uniform draws, so every cuisine is populated but sizes vary like the
/// real Table-I distribution), 2..12 ingredient draws from the full
/// lexicon universe (duplicates collapse at Add time).
SynthRows SynthesizeRows(size_t count, size_t universe, uint64_t seed) {
  SynthRows rows;
  Rng rng(seed);
  rows.cuisines.reserve(count);
  rows.offsets.reserve(count + 1);
  rows.ids.reserve(count * 7);
  for (size_t i = 0; i < count; ++i) {
    const uint64_t a = rng.NextBounded(kNumCuisines);
    const uint64_t b = rng.NextBounded(kNumCuisines);
    rows.cuisines.push_back(static_cast<CuisineId>(std::min(a, b)));
    const size_t recipe_size = 2 + rng.NextBounded(11);
    for (size_t k = 0; k < recipe_size; ++k) {
      rows.ids.push_back(static_cast<IngredientId>(rng.NextBounded(universe)));
    }
    rows.offsets.push_back(static_cast<uint32_t>(rows.ids.size()));
  }
  return rows;
}

RecipeCorpus BuildCorpus(const SynthRows& rows) {
  RecipeCorpus::Builder builder;
  builder.Reserve(rows.size(), rows.ids.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const Status status = builder.Add(rows.cuisines[i], rows.row(i));
    CULEVO_CHECK(status.ok());
  }
  return builder.Build();
}

bool SameStats(const std::vector<CuisineStats>& a,
               const std::vector<CuisineStats>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].cuisine != b[i].cuisine ||
        a[i].num_recipes != b[i].num_recipes ||
        a[i].num_unique_ingredients != b[i].num_unique_ingredients ||
        a[i].mean_recipe_size != b[i].mean_recipe_size ||
        a[i].min_recipe_size != b[i].min_recipe_size ||
        a[i].max_recipe_size != b[i].max_recipe_size ||
        a[i].size_histogram != b[i].size_histogram) {
      return false;
    }
  }
  return true;
}

bool SameItemsets(const std::vector<Itemset>& a,
                  const std::vector<Itemset>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].support != b[i].support || a[i].items != b[i].items) {
      return false;
    }
  }
  return true;
}

/// Bit-identity check between the reference corpus and a corpus that took
/// another storage path: exact stats match plus exact frequent-itemset
/// match on the largest cuisine.
bool EquivalentCorpora(const RecipeCorpus& reference,
                       const RecipeCorpus& other, const char* label) {
  if (!SameStats(ComputeCuisineStats(reference),
                 ComputeCuisineStats(other))) {
    std::fprintf(stderr, "ROUND-TRIP FAILURE (%s): CuisineStats diverged\n",
                 label);
    return false;
  }
  const CuisineId cuisine = 0;  // Most recipes under the skewed draw.
  const TransactionSet ref_txns = IngredientTransactions(reference, cuisine);
  const TransactionSet other_txns = IngredientTransactions(other, cuisine);
  const size_t support = AbsoluteSupport(ref_txns.size(), 0.02);
  if (!SameItemsets(MineEclat(ref_txns, support),
                    MineEclat(other_txns, support))) {
    std::fprintf(stderr,
                 "ROUND-TRIP FAILURE (%s): Eclat itemsets diverged\n",
                 label);
    return false;
  }
  return true;
}

/// Minimum wall time of `reps` runs of `fn`, in milliseconds.
template <typename Fn>
double BestMs(int reps, const Fn& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    fn();
    const double ms = watch.ElapsedMillis();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions options = bench::ParseOptions(
      argc, argv,
      {"recipes", "reps", "assert-snapshot-speedup", "snapshot-path"});
  const size_t num_recipes =
      static_cast<size_t>(options.flags.GetIntIn("recipes", 100000, 1));
  const int reps = options.flags.GetIntIn("reps", 3, 1);
  const bool assert_speedup =
      options.flags.GetBool("assert-snapshot-speedup", false);
  std::string snapshot_path =
      options.flags.GetString("snapshot-path", "");
  if (snapshot_path.empty()) {
    snapshot_path = StrFormat("/tmp/culevo_perf_corpus_%d.snapshot",
                              static_cast<int>(::getpid()));
  }

  bench::BenchReporter reporter("perf_corpus", options);
  const Lexicon& lexicon = WorldLexicon();
  bool consistent = true;
  bool gate_passed = true;

  // -- Base corpus ---------------------------------------------------------
  reporter.BeginPhase("synthesize_rows");
  const SynthRows rows =
      SynthesizeRows(num_recipes, lexicon.size(), options.seed);

  reporter.BeginPhase("build_corpus");
  Stopwatch build_watch;
  const RecipeCorpus corpus = BuildCorpus(rows);
  const double build_ms = build_watch.ElapsedMillis();
  const std::vector<CuisineStats> stats = ComputeCuisineStats(corpus);
  std::printf("# corpus: %zu recipes, %zu mentions, built in %.1f ms\n",
              corpus.num_recipes(), corpus.total_mentions(), build_ms);

  // -- TSV text + snapshot file --------------------------------------------
  reporter.BeginPhase("format_tsv");
  const std::string tsv = FormatCorpusTsv(corpus, lexicon);

  reporter.BeginPhase("snapshot_write");
  SnapshotWriteOptions write_options;
  write_options.sync = false;  // Measure serialization, not tmpfs fsync.
  double snapshot_bytes = 0.0;
  const double snapshot_write_ms = BestMs(reps, [&] {
    const Status status =
        WriteCorpusSnapshot(snapshot_path, corpus, write_options);
    CULEVO_CHECK(status.ok());
  });

  // -- TSV parse vs cold mmap load, timed as back-to-back pairs ------------
  // The headline ratio compares a member of each pair, so shared-host load
  // hits both sides of it equally and one clean pair proves the speedup —
  // the same noise-cancelling idiom as perf_mining's ST/MT gate.
  reporter.BeginPhase("parse_vs_load");
  double parse_tsv_ms = 0.0;
  double snapshot_load_mmap_ms = 0.0;
  double load_speedup = 0.0;
  double snapshot_load_read_ms = 0.0;
  {
    LoadedCorpusSnapshot loaded;
    for (int r = 0; r < reps; ++r) {
      Stopwatch parse_watch;
      Result<RecipeCorpus> parse_result = ParseCorpusTsv(tsv, lexicon);
      CULEVO_CHECK(parse_result.ok());
      const double pair_parse_ms = parse_watch.ElapsedMillis();

      Stopwatch load_watch;
      Result<LoadedCorpusSnapshot> load_result =
          LoadCorpusSnapshot(snapshot_path);
      CULEVO_CHECK(load_result.ok());
      const double pair_load_ms = load_watch.ElapsedMillis();

      if (r == 0 || pair_parse_ms < parse_tsv_ms) {
        parse_tsv_ms = pair_parse_ms;
      }
      if (r == 0 || pair_load_ms < snapshot_load_mmap_ms) {
        snapshot_load_mmap_ms = pair_load_ms;
      }
      if (pair_load_ms > 0.0) {
        load_speedup = std::max(load_speedup, pair_parse_ms / pair_load_ms);
      }
      if (r == 0) {
        consistent =
            EquivalentCorpora(corpus, parse_result.value(), "tsv") &&
            consistent;
      }
      loaded = std::move(load_result).value();
    }
    snapshot_bytes = static_cast<double>(loaded.file_bytes);
    consistent = loaded.memory_mapped && consistent;
    consistent =
        SameStats(loaded.stats, stats) &&
        EquivalentCorpora(corpus, loaded.corpus, "snapshot-mmap") &&
        consistent;

    SnapshotLoadOptions no_mmap;
    no_mmap.allow_mmap = false;
    snapshot_load_read_ms = BestMs(reps, [&] {
      Result<LoadedCorpusSnapshot> result =
          LoadCorpusSnapshot(snapshot_path, no_mmap);
      CULEVO_CHECK(result.ok());
      loaded = std::move(result).value();
    });
    consistent = !loaded.memory_mapped &&
                 EquivalentCorpora(corpus, loaded.corpus, "snapshot-read") &&
                 consistent;
  }

  // -- Incremental 1% ingest vs full rebuild -------------------------------
  reporter.BeginPhase("ingest_delta");
  const size_t delta_count = std::max<size_t>(1, num_recipes / 100);
  const SynthRows delta =
      SynthesizeRows(delta_count, lexicon.size(), options.seed ^ 0x9E3779B9ull);

  // Rebuild vs incremental, timed as back-to-back pairs (same idiom as
  // parse-vs-load above). The full rebuild pushes every row again through
  // the builder and recomputes the stats from scratch; the incremental
  // side is a delta reload's apply stage: it seeds an IncrementalCorpus
  // from the corpus (sharing its base), absorbs one same-size batch and
  // materializes the next corpus. The first batch is the cross-checked
  // one; later reps apply fresh batches to the same corpus.
  std::vector<CuisineStats> rebuilt_stats;
  RecipeCorpus rebuilt;
  double rebuild_ms = 0.0;
  double incremental_ms = 0.0;
  double ingest_speedup = 0.0;
  for (int r = 0; r < reps; ++r) {
    Stopwatch rebuild_watch;
    {
      RecipeCorpus::Builder builder;
      builder.Reserve(rows.size() + delta.size(),
                      rows.ids.size() + delta.ids.size());
      for (size_t i = 0; i < rows.size(); ++i) {
        CULEVO_CHECK(builder.Add(rows.cuisines[i], rows.row(i)).ok());
      }
      for (size_t i = 0; i < delta.size(); ++i) {
        CULEVO_CHECK(builder.Add(delta.cuisines[i], delta.row(i)).ok());
      }
      rebuilt = builder.Build();
      rebuilt_stats = ComputeCuisineStats(rebuilt);
    }
    const double pair_rebuild_ms = rebuild_watch.ElapsedMillis();

    const SynthRows batch =
        r == 0 ? delta
               : SynthesizeRows(
                     delta_count, lexicon.size(),
                     options.seed ^
                         (0x9E3779B9ull * (static_cast<uint64_t>(r) + 1)));
    Stopwatch incremental_watch;
    IncrementalCorpus incremental = IncrementalCorpus::FromCorpus(
        corpus, {}, batch.size(), batch.ids.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      CULEVO_CHECK(incremental.Add(batch.cuisines[i], batch.row(i)).ok());
    }
    Result<RecipeCorpus> applied = std::move(incremental).Materialize();
    const double pair_incremental_ms = incremental_watch.ElapsedMillis();
    CULEVO_CHECK(applied.ok());

    if (r == 0 || pair_rebuild_ms < rebuild_ms) rebuild_ms = pair_rebuild_ms;
    if (r == 0 || pair_incremental_ms < incremental_ms) {
      incremental_ms = pair_incremental_ms;
    }
    if (pair_incremental_ms > 0.0) {
      ingest_speedup =
          std::max(ingest_speedup, pair_rebuild_ms / pair_incremental_ms);
    }

    if (r == 0) {
      // Cross-check against the full rebuild: the first batch applied to
      // the corpus is exactly what the rebuild holds.
      if (!SameStats(ComputeCuisineStats(*applied), rebuilt_stats)) {
        std::fprintf(
            stderr, "INCREMENTAL FAILURE: stats diverged from full rebuild\n");
        consistent = false;
      }
      for (int c = 0; c < kNumCuisines && consistent; ++c) {
        const auto cuisine = static_cast<CuisineId>(c);
        if (IngredientTransactions(*applied, cuisine) !=
            IngredientTransactions(rebuilt, cuisine)) {
          std::fprintf(stderr,
                       "INCREMENTAL FAILURE: cuisine %d transactions diverged "
                       "from full rebuild\n",
                       c);
          consistent = false;
        }
      }
    }
  }

  std::remove(snapshot_path.c_str());

  // -- Report --------------------------------------------------------------
  std::printf("\n%-26s %12s\n", "path", "best_ms");
  std::printf("%-26s %12.2f\n", "parse_tsv", parse_tsv_ms);
  std::printf("%-26s %12.2f\n", "snapshot_write", snapshot_write_ms);
  std::printf("%-26s %12.2f\n", "snapshot_load_mmap", snapshot_load_mmap_ms);
  std::printf("%-26s %12.2f\n", "snapshot_load_read", snapshot_load_read_ms);
  std::printf("%-26s %12.2f\n", "rebuild_1pct", rebuild_ms);
  std::printf("%-26s %12.2f\n", "incremental_1pct", incremental_ms);
  std::printf("\nsnapshot-vs-parse speedup: %.1fx, "
              "incremental-vs-rebuild speedup: %.1fx\n",
              load_speedup, ingest_speedup);

  reporter.AddResult("recipes", static_cast<double>(corpus.num_recipes()));
  reporter.AddResult("mentions",
                     static_cast<double>(corpus.total_mentions()));
  reporter.AddResult("tsv_bytes", static_cast<double>(tsv.size()));
  reporter.AddResult("snapshot_bytes", snapshot_bytes);
  reporter.AddResult("build_ms", build_ms);
  reporter.AddResult("parse_tsv_ms", parse_tsv_ms);
  reporter.AddResult("snapshot_write_ms", snapshot_write_ms);
  reporter.AddResult("snapshot_load_mmap_ms", snapshot_load_mmap_ms);
  reporter.AddResult("snapshot_load_read_ms", snapshot_load_read_ms);
  reporter.AddResult("rebuild_ms", rebuild_ms);
  reporter.AddResult("incremental_ms", incremental_ms);
  reporter.AddResult("reps", static_cast<double>(reps));
  reporter.AddResult("cores",
                     static_cast<double>(std::thread::hardware_concurrency()));
  reporter.AddResult("load_speedup", load_speedup);
  reporter.AddResult("ingest_speedup", ingest_speedup);

  if (assert_speedup) {
    if (load_speedup < 20.0) {
      std::fprintf(stderr,
                   "SNAPSHOT GATE FAILURE: best parse/load pair is only "
                   "%.1fx (best mmap load %.2f ms, best TSV parse %.2f ms; "
                   "need 20x)\n",
                   load_speedup, snapshot_load_mmap_ms, parse_tsv_ms);
      gate_passed = false;
    }
    if (ingest_speedup < 10.0) {
      std::fprintf(stderr,
                   "INGEST GATE FAILURE: best rebuild/incremental pair is "
                   "only %.1fx (best incremental %.2f ms, best rebuild "
                   "%.2f ms; need 10x)\n",
                   ingest_speedup, incremental_ms, rebuild_ms);
      gate_passed = false;
    }
    std::printf("snapshot gate: %s\n",
                gate_passed ? "PASS" : "FAIL (see stderr)");
  }

  const int exit_code = reporter.Finish();
  if (!consistent || !gate_passed) return 1;
  return exit_code;
}
