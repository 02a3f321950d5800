#ifndef CULEVO_BENCH_BENCH_COMMON_H_
#define CULEVO_BENCH_BENCH_COMMON_H_

// Shared scaffolding for the paper-reproduction benchmark binaries.
//
// Every binary accepts:
//   --scale <0..1>   fraction of Table-I recipe counts (default 0.25)
//   --replicas <n>   simulation replicas (default 20; paper uses 100)
//   --seed <n>       master seed (default 42)
//   --json <path>    write a structured BENCH_<name>.json telemetry file
// plus the flags it names to ParseOptions, refuses any other flag, and
// prints the table/figure series it reproduces to stdout. With
// --json, the binary also emits machine-readable telemetry (options,
// per-phase wall times, the metrics-registry snapshot, scalar results,
// and the reproduced series) — the schema is documented in EXPERIMENTS.md.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/rank_frequency.h"
#include "corpus/recipe_corpus.h"
#include "lexicon/world_lexicon.h"
#include "obs/metrics.h"
#include "obs/metrics_json.h"
#include "synth/generator.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/stopwatch.h"
#include "util/strings.h"

namespace culevo::bench {

struct BenchOptions {
  double scale = 0.25;
  int replicas = 20;
  uint64_t seed = 42;
  std::string json_path;  ///< empty = no JSON telemetry
  FlagParser flags;
};

/// Overlays the parsed common flags onto `options` — the current field
/// values act as the defaults — then validates the result. Split from
/// ParseOptions so tests can exercise the validation without the
/// process-exit behavior.
inline Status ApplyParsedFlags(BenchOptions* options) {
  options->scale = options->flags.GetDouble("scale", options->scale);
  const long long replicas =
      options->flags.GetInt("replicas", options->replicas);
  options->seed = static_cast<uint64_t>(options->flags.GetInt(
      "seed", static_cast<long long>(options->seed)));
  options->json_path = options->flags.GetString("json", options->json_path);
  if (!(options->scale > 0.0 && options->scale <= 1.0)) {
    return Status::InvalidArgument(
        StrFormat("--scale must be in (0, 1], got %g", options->scale));
  }
  // Read as the 64-bit value given: 4294967297 must not wrap to 1.
  if (replicas <= 0 || replicas > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument(StrFormat(
        "--replicas must be in [1, %d], got %lld",
        std::numeric_limits<int>::max(), replicas));
  }
  options->replicas = static_cast<int>(replicas);
  // A value-less `--json` parses as the literal string "true" and would
  // silently write the telemetry to a file named `true`.
  if (options->json_path == "true") {
    return Status::InvalidArgument("--json requires a file path");
  }
  return Status::Ok();
}

/// Parses the common flags and `own`, the flags the binary reads besides
/// them; exits the process with status 2 on a malformed command line, a
/// flag that is neither (a misspelling, say), or an out-of-range value.
inline BenchOptions ParseOptions(int argc, char** argv,
                                 std::vector<std::string_view> own = {}) {
  own.insert(own.end(), {"scale", "replicas", "seed", "json"});
  BenchOptions options;
  if (Status s = options.flags.Parse(argc, argv, own); !s.ok()) {
    std::cerr << s << "\n";
    std::exit(2);
  }
  if (Status s = ApplyParsedFlags(&options); !s.ok()) {
    std::cerr << s << "\n";
    std::exit(2);
  }
  return options;
}

class BenchReporter;

/// Collects per-run telemetry — phase wall times, scalar results, and the
/// reproduced series — and writes the BENCH_<name>.json document when
/// --json was given. Typical use:
///
///   BenchReporter reporter("fig3_combinations", options);
///   reporter.BeginPhase("world_synthesis");
///   const RecipeCorpus corpus = MakeWorld(options);
///   reporter.BeginPhase("analysis");
///   ...
///   reporter.AddCurve("fig3a_aggregate", aggregate_curve);
///   reporter.AddResult("avg_pairwise_mae", mae);
///   return reporter.Finish();
class BenchReporter {
 public:
  BenchReporter(std::string name, const BenchOptions& options)
      : name_(std::move(name)), options_(options) {}

  /// Starts a named phase, closing the previous one. Phase wall times are
  /// reported in order in the JSON document.
  void BeginPhase(const std::string& phase) {
    EndPhase();
    current_phase_ = phase;
    phase_watch_.Restart();
  }

  /// Ends the current phase (if any). Finish() calls this implicitly.
  void EndPhase() {
    if (current_phase_.empty()) return;
    phases_.emplace_back(current_phase_, phase_watch_.ElapsedSeconds());
    current_phase_.clear();
  }

  /// Records a scalar headline result (e.g. an MAE or a hit count).
  void AddResult(const std::string& name, double value) {
    results_.emplace_back(name, value);
  }

  /// Records a reproduced numeric series (figure curve, table column).
  void AddSeries(const std::string& name, std::vector<double> values) {
    series_.emplace_back(name, std::move(values));
  }

  /// Convenience: records the first `max_points` ranks of a curve.
  void AddCurve(const std::string& name, const RankFrequency& curve,
                size_t max_points = 200) {
    const size_t n = std::min(max_points, curve.size());
    std::vector<double> values(curve.values().begin(),
                               curve.values().begin() +
                                   static_cast<long>(n));
    AddSeries(name, std::move(values));
  }

  /// Closes the last phase and, if --json was given, writes the telemetry
  /// document (including a full metrics-registry snapshot). Returns the
  /// process exit code: 0 on success, 1 if the JSON file could not be
  /// written.
  int Finish() { return FinishInternal(nullptr); }

  /// Error exit: the workload failed mid-run. Prints the status, and with
  /// --json still writes a complete, valid telemetry document whose
  /// top-level `"error"` field holds the status — so automation never
  /// finds a stale BENCH_*.json from a previous run next to a failed one
  /// (the write itself is atomic, see WriteFileAtomic). Returns the
  /// nonzero process exit code.
  int Fail(const Status& status) {
    std::cerr << name_ << " failed: " << status << "\n";
    const std::string error = status.ToString();
    FinishInternal(&error);
    return 1;
  }

 private:
  int FinishInternal(const std::string* error) {
    EndPhase();
    if (options_.json_path.empty()) return 0;

    JsonWriter json;
    json.BeginObject();
    json.Key("bench");
    json.String(name_);
    json.Key("schema_version");
    json.Int(1);
    if (error != nullptr) {
      json.Key("error");
      json.String(*error);
    }

    json.Key("options");
    json.BeginObject();
    json.Key("scale");
    json.Number(options_.scale);
    json.Key("replicas");
    json.Int(options_.replicas);
    json.Key("seed");
    json.Int(static_cast<long long>(options_.seed));
    json.EndObject();

    json.Key("total_seconds");
    json.Number(total_.ElapsedSeconds());

    json.Key("phases");
    json.BeginArray();
    for (const auto& [phase, seconds] : phases_) {
      json.BeginObject();
      json.Key("name");
      json.String(phase);
      json.Key("seconds");
      json.Number(seconds);
      json.EndObject();
    }
    json.EndArray();

    json.Key("results");
    json.BeginObject();
    for (const auto& [name, value] : results_) {
      json.Key(name);
      json.Number(value);
    }
    json.EndObject();

    json.Key("series");
    json.BeginObject();
    for (const auto& [name, values] : series_) {
      json.Key(name);
      json.BeginArray();
      for (double v : values) json.Number(v);
      json.EndArray();
    }
    json.EndObject();

    json.Key("metrics");
    obs::WriteMetricsSnapshot(obs::MetricsRegistry::Get().Snapshot(),
                              &json);

    json.EndObject();
    if (Status s = WriteStringToFile(options_.json_path,
                                     std::move(json).Take());
        !s.ok()) {
      std::cerr << "failed to write bench JSON: " << s << "\n";
      return 1;
    }
    std::printf("\nBench telemetry written to %s\n",
                options_.json_path.c_str());
    return 0;
  }

  std::string name_;
  const BenchOptions& options_;
  std::vector<std::pair<std::string, double>> phases_;
  std::vector<std::pair<std::string, std::vector<double>>> series_;
  std::vector<std::pair<std::string, double>> results_;
  std::string current_phase_;
  Stopwatch phase_watch_;
  Stopwatch total_;
};

/// Synthesizes the calibrated world corpus, logging the wall time. On
/// failure the process exits nonzero — through `reporter->Fail` when a
/// reporter is supplied, so a --json run still leaves a valid document
/// with an `"error"` field instead of a stale file from a previous run.
inline RecipeCorpus MakeWorld(const BenchOptions& options,
                              BenchReporter* reporter = nullptr) {
  SynthConfig config;
  config.scale = options.scale;
  config.seed = options.seed;
  Stopwatch timer;
  Result<RecipeCorpus> corpus =
      SynthesizeWorldCorpus(WorldLexicon(), config);
  if (!corpus.ok()) {
    if (reporter != nullptr) std::exit(reporter->Fail(corpus.status()));
    std::cerr << "world synthesis failed: " << corpus.status() << "\n";
    std::exit(1);
  }
  std::printf("# world corpus: %zu recipes (scale %.2f) in %.2fs\n",
              corpus->num_recipes(), options.scale,
              timer.ElapsedSeconds());
  return std::move(corpus).value();
}

}  // namespace culevo::bench

#endif  // CULEVO_BENCH_BENCH_COMMON_H_
