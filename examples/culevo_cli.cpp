// culevo_cli: the kitchen-sink command-line tool an open-source release
// ships. Subcommands:
//
//   culevo_cli stats                       world corpus statistics
//   culevo_cli evaluate --cuisine ITA      model comparison for a cuisine
//   culevo_cli generate --cuisine INSC     novel recipe proposals
//                                          (--include <ingredient>,
//                                          --vegetarian)
//   culevo_cli ingest <raw.txt>            ingest raw scraped recipes
//                                          (--out <tsv>, --snapshot <path>)
//   culevo_cli export-corpus <out.tsv>     write a synthetic world corpus
//   culevo_cli export-lexicon <out.tsv>    write the 721-entity lexicon
//
// Common flags: --scale, --replicas, --seed (as in the bench harness).
// Corpus-bearing subcommands also take --load-snapshot <path> (mmap a
// CULEVO-CORPUS binary snapshot instead of synthesizing the world) and
// --snapshot <path> (write a snapshot of the corpus they ran on, for
// fast reloads; see DATA_FORMATS.md). `ingest --snapshot` writes the
// ingested corpus, so the other subcommands can --load-snapshot it.
// Pass --metrics to dump the process metrics registry (counters, gauges,
// latency histograms) as JSON on exit. Pass --timeout-ms <n> to bound the
// whole run with a deadline; Ctrl-C (SIGINT) or SIGTERM (what container
// orchestrators send on shutdown) requests a cooperative cancel — either
// way the tool exits nonzero with Cancelled / DeadlineExceeded instead of
// being killed mid-write.
//
// Crash recovery (evaluate): --checkpoint <dir> journals every completed
// replica through atomic writes; after an interruption, rerunning the
// same command with --resume restores the completed replicas and finishes
// only the remainder — bit-identical results to an uninterrupted run. See
// DESIGN.md §10 and EXPERIMENTS.md for the workflow.
//
// Multi-process execution (evaluate): --workers <n> re-execs this binary
// n times with the hidden --worker-shard flag; each worker journals its
// replica shard into --checkpoint <dir> (required) while the coordinator
// supervises progress heartbeats, SIGKILLs workers whose journals stall
// for --worker-stall-ms (default 30000), and re-dispatches crashed
// shards up to --worker-retries times; --tolerate <k> lets up to k shards
// fail permanently. A final in-process pass merges the shard journals and
// re-runs anything no worker finished — results are bit-identical to
// --workers 1. See DESIGN.md §12.

#include <algorithm>
#include <iostream>
#include <limits>
#include <optional>
#include <vector>

#include "obs/metrics.h"
#include "obs/metrics_json.h"

#include "analysis/overrepresentation.h"
#include "core/copy_mutate.h"
#include "core/evaluator.h"
#include "core/null_model.h"
#include "core/recipe_generator.h"
#include "corpus/corpus_io.h"
#include "corpus/corpus_snapshot.h"
#include "corpus/corpus_stats.h"
#include "corpus/ingestion.h"
#include "exec/fabric.h"
#include "lexicon/lexicon_io.h"
#include "lexicon/world_lexicon.h"
#include "synth/generator.h"
#include "util/cancel.h"
#include "util/csv.h"
#include "util/signal.h"
#include "util/flags.h"
#include "util/strings.h"
#include "util/table_printer.h"

namespace {

using namespace culevo;

// Process-wide cancellation token. SIGINT and SIGTERM trip it through
// util/signal's shared async-signal-safe handler, and --timeout-ms arms
// its deadline; the long-running subcommands poll it at replica /
// root-class granularity.
CancelToken& GlobalCancel() {
  static CancelToken token;
  return token;
}

// The original command line, captured in main: the fabric coordinator
// re-execs it verbatim (plus --worker-shard) to spawn workers.
std::vector<std::string>& OriginalArgv() {
  static std::vector<std::string> argv;
  return argv;
}

int Usage() {
  std::cerr
      << "usage: culevo_cli <stats|evaluate|generate|ingest|export-corpus|"
         "export-lexicon> [flags]\n"
         "common flags: --scale <0..1> --replicas <n> --seed <n> "
         "--timeout-ms <n> (deadline for the whole run) "
         "--metrics (dump metrics registry JSON on exit) "
         "--load-snapshot <path> (mmap a CULEVO-CORPUS snapshot instead "
         "of synthesizing) --snapshot <path> (write a snapshot of the "
         "corpus used)\n"
         "evaluate flags: --cuisine <code> "
         "--checkpoint <dir> (journal completed replicas for crash "
         "recovery) --resume (restore completed replicas from the "
         "checkpoint journal) --workers <n> (shard replicas across n "
         "supervised worker processes; requires --checkpoint) "
         "--worker-stall-ms <n> --worker-retries <n> --tolerate <k> "
         "(worker shards that may fail permanently; needs --workers > 1, "
         "the default 0 fails fast)\n"
         "generate flags: --cuisine <code> --size <2..38> --count <n> "
         "--include <ingredient> (must appear in every recipe) "
         "--vegetarian (no meat, fish or seafood)\n";
  return 2;
}

// --snapshot <path>: writes a snapshot of the corpus a subcommand ran on.
Status WriteSnapshotFlag(const FlagParser& flags, const RecipeCorpus& corpus) {
  const std::string save = flags.GetString("snapshot", "");
  if (save.empty()) return Status::Ok();
  CULEVO_RETURN_IF_ERROR(WriteCorpusSnapshot(save, corpus));
  std::cerr << "snapshot written to " << save << "\n";
  return Status::Ok();
}

Result<RecipeCorpus> World(const FlagParser& flags) {
  // Checked before any world work, whether or not a snapshot is loaded.
  const double scale = flags.GetDouble("scale", 0.25);
  if (!(scale > 0 && scale <= 1)) flags.RefuseValue("scale");
  Result<RecipeCorpus> corpus = [&]() -> Result<RecipeCorpus> {
    const std::string load = flags.GetString("load-snapshot", "");
    if (!load.empty()) {
      Result<LoadedCorpusSnapshot> loaded = LoadCorpusSnapshot(load);
      if (!loaded.ok()) return loaded.status();
      CULEVO_RETURN_IF_ERROR(
          CheckIdsInLexicon(loaded->corpus, WorldLexicon(), load));
      return std::move(loaded->corpus);
    }
    SynthConfig config;
    config.scale = scale;
    config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
    return SynthesizeWorldCorpus(WorldLexicon(), config);
  }();
  if (!corpus.ok()) return corpus;
  CULEVO_RETURN_IF_ERROR(WriteSnapshotFlag(flags, *corpus));
  return corpus;
}

int RunStats(const FlagParser& flags) {
  Result<RecipeCorpus> corpus = World(flags);
  if (!corpus.ok()) {
    std::cerr << corpus.status() << "\n";
    return 1;
  }
  const Lexicon& lexicon = WorldLexicon();
  TablePrinter table(
      {"Cuisine", "Recipes", "Ingredients", "Mean size", "Top ingredient"});
  const std::vector<CuisineStats> stats = ComputeCuisineStats(*corpus);
  for (const CuisineStats& s : stats) {
    const auto top = TopOverrepresented(*corpus, s.cuisine, 1);
    table.AddRow({std::string(CuisineAt(s.cuisine).code),
                  std::to_string(s.num_recipes),
                  std::to_string(s.num_unique_ingredients),
                  TablePrinter::Num(s.mean_recipe_size, 2),
                  top.empty() ? "-" : lexicon.name(top[0].ingredient)});
  }
  table.Print(std::cout);
  return 0;
}

int RunEvaluate(const FlagParser& flags) {
  // Every flag is read and checked before the world corpus is built, so a
  // malformed value exits 2 without synthesizing or loading one.
  const Result<CuisineId> cuisine =
      CuisineFromCode(flags.GetString("cuisine", "ITA"));
  if (!cuisine.ok()) flags.RefuseValue("cuisine");
  SimulationConfig config;
  config.replicas = flags.GetIntIn("replicas", 10, 1);
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  config.cancel = &GlobalCancel();
  config.checkpoint.directory = flags.GetString("checkpoint", "");
  config.checkpoint.resume = flags.GetBool("resume", false);
  config.checkpoint.sync = true;  // the CLI journals durably
  if (config.checkpoint.resume && !config.checkpoint.enabled()) {
    std::cerr << "--resume requires --checkpoint <dir> (the journal to "
                 "resume from)\n";
    return 2;
  }

  const int workers = flags.GetIntIn("workers", 1, 1);
  const bool is_worker = flags.Has("worker-shard");
  if (workers > 1 && !config.checkpoint.enabled()) {
    std::cerr << "--workers requires --checkpoint <dir> (shard journals "
                 "are how workers hand results to the coordinator)\n";
    return 2;
  }
  if (is_worker) {
    // Hidden worker mode (the coordinator spawns us with this flag):
    // compute only the owned shard of the replica grid into the shard
    // journal. Resume is forced on so a re-dispatched worker skips what
    // its killed predecessor already journaled. The shard may be any int;
    // RunSimulation refuses one outside [0, --workers).
    config.shard.index = flags.GetIntIn("worker-shard", 0,
                                        std::numeric_limits<int>::min());
    config.shard.count = workers;
    config.checkpoint.resume = true;
  }
  FabricOptions fabric;
  fabric.workers = workers;
  fabric.checkpoint_dir = config.checkpoint.directory;
  // Any int: a value of 0 or below turns stall detection off.
  fabric.stall_ms = flags.GetIntIn("worker-stall-ms", 30000,
                                   std::numeric_limits<int>::min());
  fabric.max_worker_retries = flags.GetIntIn("worker-retries", 2, 0);
  // --tolerate budgets lost worker shards, so it needs --workers > 1.
  fabric.tolerate_k = flags.GetIntIn(
      "tolerate", 0, 0, workers > 1 ? std::numeric_limits<int>::max() : 0);
  fabric.cancel = &GlobalCancel();

  Result<RecipeCorpus> corpus = World(flags);
  if (!corpus.ok()) {
    std::cerr << corpus.status() << "\n";
    return 1;
  }
  const Lexicon& lexicon = WorldLexicon();
  const auto cm_r = MakeCmR(&lexicon);
  const auto cm_c = MakeCmC(&lexicon);
  const auto cm_m = MakeCmM(&lexicon);
  const NullModel nm;

  std::string fabric_json;
  if (workers > 1 && !is_worker) {
    Result<FabricReport> dispatched =
        RunWorkerFabric(OriginalArgv(), fabric);
    if (!dispatched.ok()) {
      std::cerr << dispatched.status() << "\n";
      return 1;
    }
    fabric_json = FabricReportToJson(dispatched.value());
    // Final pass: fold the shard journals into the canonical per-model
    // journals and resume from them in-process — restored replicas are
    // bit-identical to locally computed ones, and whatever no shard
    // finished (tolerated stragglers) is re-run here with its canonical
    // seed.
    config.checkpoint.resume = true;
    config.checkpoint.merge_shards = workers;
  }

  Result<CuisineEvaluation> evaluation = EvaluateCuisine(
      *corpus, cuisine.value(), lexicon,
      {cm_r.get(), cm_c.get(), cm_m.get(), &nm}, config);
  if (!evaluation.ok()) {
    std::cerr << evaluation.status() << "\n";
    return 1;
  }
  if (is_worker) return 0;  // results live in the shard journals
  if (!fabric_json.empty()) {
    std::cout << "fabric " << fabric_json << "\n";
  }
  TablePrinter table({"Model", "MAE ingredient", "MAE category"});
  for (const ModelScore& score : evaluation->scores) {
    table.AddRow({score.model, TablePrinter::Num(score.mae_ingredient, 4),
                  TablePrinter::Num(score.mae_category, 4)});
  }
  table.Print(std::cout);
  std::cout << "winner: "
            << evaluation->scores[evaluation->BestByIngredientMae()].model
            << "\n";
  return 0;
}

int RunGenerate(const FlagParser& flags) {
  // As in evaluate, every flag is checked before the world corpus is built.
  const Lexicon& lexicon = WorldLexicon();
  const Result<CuisineId> cuisine =
      CuisineFromCode(flags.GetString("cuisine", "ITA"));
  if (!cuisine.ok()) flags.RefuseValue("cuisine");
  const int count = flags.GetIntIn("count", 3, 1);
  GenerationConstraints constraints;
  constraints.target_size =
      flags.GetIntIn("size", 9, kMinRecipeSize, kMaxRecipeSize);
  if (flags.GetBool("vegetarian", false)) {
    constraints.excluded_categories = {Category::kMeat, Category::kFish,
                                       Category::kSeafood};
  }
  if (flags.Has("include")) {
    // An unknown ingredient, or one the diet excludes, is refused here.
    const std::optional<IngredientId> include =
        lexicon.Find(flags.GetString("include", ""));
    if (!include.has_value() ||
        std::ranges::find(constraints.excluded_categories,
                          lexicon.category(*include)) !=
            constraints.excluded_categories.end()) {
      flags.RefuseValue("include");
    }
    constraints.must_include = {*include};
  }

  Result<RecipeCorpus> corpus = World(flags);
  if (!corpus.ok()) {
    std::cerr << corpus.status() << "\n";
    return 1;
  }
  Result<RecipeGenerator> generator = RecipeGenerator::Create(
      &corpus.value(), cuisine.value(), &lexicon,
      static_cast<uint64_t>(flags.GetInt("seed", 42)));
  if (!generator.ok()) {
    std::cerr << generator.status() << "\n";
    return 1;
  }
  Result<std::vector<NovelRecipe>> batch =
      generator->GenerateBatch(constraints, count);
  if (!batch.ok()) {
    std::cerr << batch.status() << "\n";
    return 1;
  }
  for (const NovelRecipe& recipe : batch.value()) {
    std::vector<std::string> names;
    for (IngredientId id : recipe.ingredients) {
      names.push_back(lexicon.name(id));
    }
    std::cout << Join(names, ", ") << "\n  (typicality "
              << TablePrinter::Num(recipe.typicality, 2) << ", novelty "
              << TablePrinter::Num(recipe.novelty, 2) << ")\n";
  }
  return 0;
}

int RunIngest(const FlagParser& flags) {
  if (flags.positional().size() < 2) {
    std::cerr << "usage: culevo_cli ingest <raw.txt> [--out corpus.tsv] "
                 "[--snapshot corpus.snap]\n";
    return 2;
  }
  Result<std::string> text = ReadFileToString(flags.positional()[1]);
  if (!text.ok()) {
    std::cerr << text.status() << "\n";
    return 1;
  }
  const std::vector<RawRecipe> raw = ParseRawRecipeText(text.value());
  IngestionReport report;
  Result<RecipeCorpus> corpus =
      IngestRawRecipes(raw, WorldLexicon(), &report);
  if (!corpus.ok()) {
    std::cerr << corpus.status() << "\n";
    return 1;
  }
  std::cout << "recipes: " << report.recipes_ingested << " ingested, "
            << report.recipes_dropped << " dropped\n"
            << "lines:   " << report.lines_resolved << "/" << report.lines_in
            << " resolved ("
            << TablePrinter::Num(100.0 * report.line_resolution_rate(), 1)
            << "%)\n";
  if (!report.unresolved_mentions.empty()) {
    std::cout << "top unresolved mentions:\n";
    for (size_t i = 0; i < report.unresolved_mentions.size() && i < 10;
         ++i) {
      std::cout << "  " << report.unresolved_mentions[i].first << " x"
                << report.unresolved_mentions[i].second << "\n";
    }
  }
  const std::string out = flags.GetString("out", "");
  if (!out.empty()) {
    if (Status s = WriteCorpusTsv(out, *corpus, WorldLexicon()); !s.ok()) {
      std::cerr << s << "\n";
      return 1;
    }
    std::cout << "corpus written to " << out << "\n";
  }
  if (Status s = WriteSnapshotFlag(flags, *corpus); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  return 0;
}

int RunExportCorpus(const FlagParser& flags) {
  if (flags.positional().size() < 2) {
    std::cerr << "usage: culevo_cli export-corpus <out.tsv>\n";
    return 2;
  }
  Result<RecipeCorpus> corpus = World(flags);
  if (!corpus.ok()) {
    std::cerr << corpus.status() << "\n";
    return 1;
  }
  if (Status s = WriteCorpusTsv(flags.positional()[1], *corpus,
                                WorldLexicon());
      !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  std::cout << corpus->num_recipes() << " recipes written to "
            << flags.positional()[1] << "\n";
  return 0;
}

int RunExportLexicon(const FlagParser& flags) {
  if (flags.positional().size() < 2) {
    std::cerr << "usage: culevo_cli export-lexicon <out.tsv>\n";
    return 2;
  }
  if (Status s = WriteLexiconTsv(flags.positional()[1], WorldLexicon());
      !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  std::cout << WorldLexicon().size() << " entities written to "
            << flags.positional()[1] << "\n";
  return 0;
}

int Dispatch(const FlagParser& flags) {
  if (flags.positional().empty()) return Usage();
  const std::string& command = flags.positional()[0];
  if (command == "stats") return RunStats(flags);
  if (command == "evaluate") return RunEvaluate(flags);
  if (command == "generate") return RunGenerate(flags);
  if (command == "ingest") return RunIngest(flags);
  if (command == "export-corpus") return RunExportCorpus(flags);
  if (command == "export-lexicon") return RunExportLexicon(flags);
  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  // Every flag any subcommand reads.
  if (Status s = flags.Parse(
          argc, argv,
          {"scale", "seed", "replicas", "load-snapshot", "snapshot",
           "cuisine", "tolerate", "checkpoint", "resume",
           "workers", "worker-shard", "worker-stall-ms", "worker-retries",
           "size", "count", "include", "vegetarian", "out", "timeout-ms",
           "metrics"});
      !s.ok()) {
    std::cerr << s << "\n";
    return 2;
  }
  OriginalArgv().assign(argv, argv + argc);
  // SIGINT and SIGTERM (what docker stop / Kubernetes / CI runners send
  // on shutdown) request a cooperative cancel, so checkpointed runs flush
  // a resumable journal instead of dying mid-write.
  InstallCancelHandlers(&GlobalCancel());
  const long long timeout_ms = flags.GetInt("timeout-ms", 0);
  if (timeout_ms > 0) {
    GlobalCancel().set_deadline(Deadline::AfterMillis(timeout_ms));
  }
  int rc = Dispatch(flags);
  if (Status s = GlobalCancel().Check(); !s.ok()) {
    std::cerr << s << "\n";
    if (rc == 0) rc = 1;
  }
  if (flags.GetBool("metrics", false)) {
    std::cout << obs::MetricsSnapshotToJson(
                     obs::MetricsRegistry::Get().Snapshot())
              << "\n";
  }
  return rc;
}
