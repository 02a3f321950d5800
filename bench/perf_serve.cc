// Perf-regression harness for the culevod query service.
//
// Builds a synthetic corpus of --recipes recipes (default 100000, the
// gate uses 1000000), snapshots it, mmap-loads it into a ServiceCore —
// the exact startup path of the culevod binary — and then drives
// --queries mixed point queries (overrep / nearest / freq / search /
// recipe / stats / info, deterministically rotated and parameterized by
// --seed) from --threads concurrent clients hammering Handle() directly.
// The transport is deliberately excluded: this measures the query engine
// and the snapshot-index serving path, not Unix-socket syscalls.
//
// Reported (and written to BENCH_serve.json with --json):
//   load_ms       — snapshot mmap load + full QueryIndex build (its
//                   per-table parts are the serve.index.*_ms histograms);
//   cores         — hardware threads of the host the run was taken on;
//   queries, ok_responses, error_responses — workload composition check;
//   wall_ms, qps  — whole-workload throughput;
//   p50_ms / p99_ms — serve.latency_ms histogram quantiles (per-request
//                    latency as the service itself measures it).
//
// Cross-check inside the run (exit 1 on failure): every response must be
// `ok ...` (or a NotFound freq miss on a random id) — anything else marks
// the run inconsistent, since the workload only issues valid requests.
//
// --assert-serve-slo turns the headline numbers into a gate (exit 1):
// aggregate throughput >= --min-qps (default 10000) and the service-side
// p99 must stay under the default request deadline (250 ms) — a served
// point query that blows the deadline budget at p99 would be rejected in
// production, so the gate treats it as a regression.
//
// --assert-brownout-slo runs an additional overload phase and gates the
// brownout policy itself: expensive `simulate` clients hammer a core with
// the latency brownout trigger armed (--brownout-latency-ms, default 5)
// while cheap point-query clients measure their own latency. The gate
// (exit 1) requires that brownout actually shed expensive work
// (serve.brownout.sheds grew), that no cheap query was rejected or
// errored, and that the cheap clients' observed p99 stayed under
// --brownout-cheap-p99-ms (default 100) — degraded service must stay
// fast for the traffic it chose to keep.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "corpus/corpus_snapshot.h"
#include "corpus/corpus_stats.h"
#include "lexicon/world_lexicon.h"
#include "obs/metrics.h"
#include "service/service_core.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace {

using namespace culevo;

/// Synthetic recipe rows, same generator shape as perf_corpus so the two
/// harnesses describe the same population.
RecipeCorpus SynthesizeCorpus(size_t count, size_t universe, uint64_t seed) {
  Rng rng(seed);
  RecipeCorpus::Builder builder;
  builder.Reserve(count, count * 7);
  std::vector<IngredientId> recipe;
  for (size_t i = 0; i < count; ++i) {
    const uint64_t a = rng.NextBounded(kNumCuisines);
    const uint64_t b = rng.NextBounded(kNumCuisines);
    const CuisineId cuisine = static_cast<CuisineId>(std::min(a, b));
    const size_t recipe_size = 2 + rng.NextBounded(11);
    recipe.clear();
    for (size_t k = 0; k < recipe_size; ++k) {
      recipe.push_back(static_cast<IngredientId>(rng.NextBounded(universe)));
    }
    CULEVO_CHECK(builder.Add(cuisine, recipe).ok());
  }
  return builder.Build();
}

/// One deterministic mixed query, parameterized by the caller's RNG. The
/// mix is mostly the cheap precomputed lookups with a tail of search and
/// recipe queries — a plausible interactive read workload.
std::string NextQuery(Rng& rng, size_t num_recipes, size_t universe) {
  const std::string code(
      CuisineAt(static_cast<CuisineId>(rng.NextBounded(kNumCuisines))).code);
  switch (rng.NextBounded(8)) {
    case 0:
    case 1:
      return "overrep " + code + " " + std::to_string(1 + rng.NextBounded(10));
    case 2:
      return "nearest " + code + " " + std::to_string(1 + rng.NextBounded(5));
    case 3:
      return "freq " + code + " #" + std::to_string(rng.NextBounded(universe));
    case 4:
      return "search #" + std::to_string(rng.NextBounded(universe)) + ",#" +
             std::to_string(rng.NextBounded(universe)) + " limit=5";
    case 5:
      return "recipe " + std::to_string(rng.NextBounded(num_recipes));
    case 6:
      return "stats " + code;
    default:
      return "info";
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions options = bench::ParseOptions(argc, argv);
  const size_t num_recipes =
      static_cast<size_t>(options.flags.GetInt("recipes", 100000));
  const size_t num_queries =
      static_cast<size_t>(options.flags.GetInt("queries", 20000));
  const int threads = static_cast<int>(options.flags.GetInt("threads", 2));
  const bool assert_slo = options.flags.GetBool("assert-serve-slo", false);
  const double min_qps = options.flags.GetDouble("min-qps", 10000.0);
  std::string snapshot_path = options.flags.GetString("snapshot-path", "");
  if (snapshot_path.empty()) {
    snapshot_path = StrFormat("/tmp/culevo_perf_serve_%d.snapshot",
                              static_cast<int>(::getpid()));
  }
  if (num_recipes == 0 || num_queries == 0 || threads <= 0) {
    std::fprintf(stderr, "--recipes, --queries, --threads must be positive\n");
    return 2;
  }

  bench::BenchReporter reporter("perf_serve", options);
  const Lexicon& lexicon = WorldLexicon();

  // -- Corpus + snapshot (the served artifact) -----------------------------
  reporter.BeginPhase("synthesize_corpus");
  const RecipeCorpus corpus =
      SynthesizeCorpus(num_recipes, lexicon.size(), options.seed);
  std::printf("# corpus: %zu recipes, %zu mentions\n", corpus.num_recipes(),
              corpus.total_mentions());
  SnapshotWriteOptions write_options;
  write_options.sync = false;
  CULEVO_CHECK(WriteCorpusSnapshot(snapshot_path, corpus, write_options).ok());

  // -- Server startup: mmap load + index build -----------------------------
  reporter.BeginPhase("load_and_index");
  ServiceOptions service_options;  // production defaults, 250 ms deadline
  ServiceCore core(&lexicon, service_options);
  Stopwatch load_watch;
  {
    const Status loaded = core.LoadFromFile(snapshot_path);
    CULEVO_CHECK(loaded.ok());
  }
  const double load_ms = load_watch.ElapsedMillis();
  std::printf("# snapshot load + index build: %.1f ms\n", load_ms);

  // -- Mixed point-query workload ------------------------------------------
  reporter.BeginPhase("serve_queries");
  // Pre-render the request strings so the timed region is pure serving.
  std::vector<std::vector<std::string>> scripts(
      static_cast<size_t>(threads));
  const size_t per_thread = num_queries / static_cast<size_t>(threads);
  for (int t = 0; t < threads; ++t) {
    Rng rng(options.seed ^ (0x9E3779B9ull * (static_cast<uint64_t>(t) + 1)));
    scripts[static_cast<size_t>(t)].reserve(per_thread);
    for (size_t q = 0; q < per_thread; ++q) {
      scripts[static_cast<size_t>(t)].push_back(
          NextQuery(rng, corpus.num_recipes(), lexicon.size()));
    }
  }

  std::atomic<size_t> ok_responses{0};
  std::atomic<size_t> error_responses{0};
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(threads));
  Stopwatch serve_watch;
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&core, &scripts, &ok_responses, &error_responses,
                          t] {
      size_t ok = 0;
      size_t errors = 0;
      for (const std::string& request : scripts[static_cast<size_t>(t)]) {
        const std::string response = core.Handle(request);
        // A freq probe with a random id may miss the cuisine entirely —
        // that NotFound is a correctly served answer, not a failure.
        if (response.rfind("ok ", 0) == 0) {
          ++ok;
        } else if (response.rfind("error NotFound", 0) == 0) {
          ++ok;  // random-id freq miss: a correct, served answer
        } else {
          ++errors;
        }
      }
      ok_responses.fetch_add(ok, std::memory_order_relaxed);
      error_responses.fetch_add(errors, std::memory_order_relaxed);
    });
  }
  for (std::thread& client : clients) client.join();
  const double wall_ms = serve_watch.ElapsedMillis();
  const size_t served = ok_responses.load() + error_responses.load();
  const double qps = served / (wall_ms / 1000.0);

  const obs::HistogramStats latency =
      obs::MetricsRegistry::Get().histogram("serve.latency_ms")->Snapshot();
  const double p50_ms = latency.Quantile(0.50);
  const double p99_ms = latency.Quantile(0.99);

  std::remove(snapshot_path.c_str());

  // -- Report --------------------------------------------------------------
  std::printf("\n%-18s %12s\n", "metric", "value");
  std::printf("%-18s %12.1f\n", "load_ms", load_ms);
  std::printf("%-18s %12zu\n", "queries", served);
  std::printf("%-18s %12.1f\n", "wall_ms", wall_ms);
  std::printf("%-18s %12.0f\n", "qps", qps);
  std::printf("%-18s %12.3f\n", "p50_ms", p50_ms);
  std::printf("%-18s %12.3f\n", "p99_ms", p99_ms);

  reporter.AddResult("recipes", static_cast<double>(corpus.num_recipes()));
  reporter.AddResult("threads", static_cast<double>(threads));
  reporter.AddResult("cores",
                     static_cast<double>(std::thread::hardware_concurrency()));
  reporter.AddResult("load_ms", load_ms);
  reporter.AddResult("queries", static_cast<double>(served));
  reporter.AddResult("ok_responses",
                     static_cast<double>(ok_responses.load()));
  reporter.AddResult("error_responses",
                     static_cast<double>(error_responses.load()));
  reporter.AddResult("wall_ms", wall_ms);
  reporter.AddResult("qps", qps);
  reporter.AddResult("p50_ms", p50_ms);
  reporter.AddResult("p99_ms", p99_ms);

  bool consistent = error_responses.load() == 0;
  if (!consistent) {
    std::fprintf(stderr, "SERVE FAILURE: %zu of %zu responses were errors\n",
                 error_responses.load(), served);
  }

  // -- Brownout-under-overload phase (own core, brownout trigger armed) ----
  bool brownout_passed = true;
  if (options.flags.GetBool("assert-brownout-slo", false)) {
    reporter.BeginPhase("brownout_overload");
    const double cheap_p99_slo =
        options.flags.GetDouble("brownout-cheap-p99-ms", 100.0);
    const int64_t duration_ms =
        options.flags.GetInt("brownout-duration-ms", 2000);
    ServiceOptions brownout_options;  // production defaults...
    brownout_options.brownout_latency_ms =
        options.flags.GetDouble("brownout-latency-ms", 5.0);  // ...armed
    ServiceCore brownout_core(&lexicon, brownout_options);
    CULEVO_CHECK(brownout_core.InstallCorpus(corpus, "<bench>").ok());

    const int64_t sheds_before = obs::MetricsRegistry::Get()
                                     .counter("serve.brownout.sheds")
                                     ->Value();
    std::atomic<bool> stop{false};
    std::atomic<size_t> expensive_admitted{0};
    std::atomic<size_t> expensive_shed{0};
    std::atomic<size_t> cheap_errors{0};

    // Expensive load: simulate requests under the production deadline.
    // Whether an admitted one finishes or is deadline-cancelled is
    // irrelevant here — both spike the latency EMA, which is what trips
    // the brownout and sheds the rest.
    const int expensive_threads = std::max(2, threads);
    std::vector<std::thread> hammers;
    hammers.reserve(static_cast<size_t>(expensive_threads));
    for (int t = 0; t < expensive_threads; ++t) {
      hammers.emplace_back([&brownout_core, &stop, &expensive_admitted,
                            &expensive_shed, t] {
        const std::string request =
            "simulate " + std::string(CuisineAt(0).code) +
            " NM replicas=1 seed=" + std::to_string(t + 1);
        while (!stop.load(std::memory_order_relaxed)) {
          const std::string response = brownout_core.Handle(request);
          if (response.find("retry-after-ms\t") != std::string::npos) {
            expensive_shed.fetch_add(1, std::memory_order_relaxed);
          } else {
            expensive_admitted.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }

    // Cheap clients: the traffic brownout exists to protect. Client-side
    // latency, measured around the whole Handle call.
    const std::vector<std::string> cheap_requests = {
        "overrep " + std::string(CuisineAt(0).code) + " 5",
        "stats " + std::string(CuisineAt(1).code),
        "nearest " + std::string(CuisineAt(2).code) + " 3",
    };
    std::vector<std::vector<double>> cheap_latencies(2);
    std::vector<std::thread> cheap_clients;
    for (size_t t = 0; t < cheap_latencies.size(); ++t) {
      cheap_clients.emplace_back([&brownout_core, &stop, &cheap_errors,
                                  &cheap_requests,
                                  samples = &cheap_latencies[t], t] {
        size_t i = t;
        while (!stop.load(std::memory_order_relaxed)) {
          const std::string& request = cheap_requests[i++ %
                                                      cheap_requests.size()];
          const Stopwatch watch;
          const std::string response = brownout_core.Handle(request);
          samples->push_back(watch.ElapsedMillis());
          if (response.rfind("ok ", 0) != 0) {
            cheap_errors.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }

    std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& thread : hammers) thread.join();
    for (std::thread& thread : cheap_clients) thread.join();

    const int64_t sheds = obs::MetricsRegistry::Get()
                              .counter("serve.brownout.sheds")
                              ->Value() -
                          sheds_before;
    std::vector<double> all_cheap;
    for (const std::vector<double>& samples : cheap_latencies) {
      all_cheap.insert(all_cheap.end(), samples.begin(), samples.end());
    }
    std::sort(all_cheap.begin(), all_cheap.end());
    const double cheap_p99 =
        all_cheap.empty()
            ? 0.0
            : all_cheap[std::min(all_cheap.size() - 1,
                                 static_cast<size_t>(0.99 *
                                                     all_cheap.size()))];

    std::printf("%-18s %12lld\n", "brownout_sheds",
                static_cast<long long>(sheds));
    std::printf("%-18s %12zu\n", "cheap_served", all_cheap.size());
    std::printf("%-18s %12.3f\n", "cheap_p99_ms", cheap_p99);
    reporter.AddResult("brownout_sheds", static_cast<double>(sheds));
    reporter.AddResult("brownout_expensive_admitted",
                       static_cast<double>(expensive_admitted.load()));
    reporter.AddResult("brownout_cheap_served",
                       static_cast<double>(all_cheap.size()));
    reporter.AddResult("brownout_cheap_p99_ms", cheap_p99);

    if (sheds <= 0) {
      std::fprintf(stderr,
                   "BROWNOUT GATE FAILURE: overload never shed an "
                   "expensive request (%zu admitted)\n",
                   expensive_admitted.load());
      brownout_passed = false;
    }
    if (cheap_errors.load() > 0) {
      std::fprintf(stderr,
                   "BROWNOUT GATE FAILURE: %zu cheap queries rejected or "
                   "errored during brownout\n",
                   cheap_errors.load());
      brownout_passed = false;
    }
    if (cheap_p99 >= cheap_p99_slo) {
      std::fprintf(stderr,
                   "BROWNOUT GATE FAILURE: cheap-query p99 %.3f ms "
                   "breaches the %.1f ms SLO under overload\n",
                   cheap_p99, cheap_p99_slo);
      brownout_passed = false;
    }
    std::printf("brownout gate: %s\n",
                brownout_passed ? "PASS" : "FAIL (see stderr)");
  }

  bool gate_passed = true;
  if (assert_slo) {
    if (qps < min_qps) {
      std::fprintf(stderr,
                   "SERVE GATE FAILURE: %.0f qps < %.0f qps floor "
                   "(%zu queries in %.1f ms)\n",
                   qps, min_qps, served, wall_ms);
      gate_passed = false;
    }
    if (p99_ms >= static_cast<double>(service_options.default_deadline_ms)) {
      std::fprintf(stderr,
                   "SERVE GATE FAILURE: p99 latency %.3f ms breaches the "
                   "%lld ms default deadline\n",
                   p99_ms,
                   static_cast<long long>(service_options.default_deadline_ms));
      gate_passed = false;
    }
    std::printf("serve gate: %s\n", gate_passed ? "PASS" : "FAIL (see stderr)");
  }

  const int exit_code = reporter.Finish();
  if (!consistent || !gate_passed || !brownout_passed) return 1;
  return exit_code;
}
