// Kill-and-resume integration tests: a checkpointed run killed by a
// wall-clock deadline (the CLI's --timeout-ms path) is resumed and must
// reproduce the uninterrupted run bit-for-bit, no matter how many
// replicas the first attempt managed to finish. Also covers the
// evaluator-level workflow the CLI drives: several models over one
// cuisine, killed during a later model's run, resumed to completion —
// and the fabric-era variant: a real worker process SIGKILLed mid-shard,
// recovered by the coordinator's merge + resume pass.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <vector>

#include "core/copy_mutate.h"
#include "core/evaluator.h"
#include "core/null_model.h"
#include "core/simulation.h"
#include "fabric_test_context.h"
#include "lexicon/world_lexicon.h"
#include "synth/generator.h"
#include "util/cancel.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/subprocess.h"

namespace culevo {
namespace {

CuisineContext SmallContext() { return FabricTestContext(); }

/// Transparent wrapper that trips a CancelToken after a fixed number of
/// generate calls; delegates name() and ConfigFingerprint() so the
/// checkpoint manifest it writes is resumable by the bare model.
class InterruptModel : public EvolutionModel {
 public:
  InterruptModel(const EvolutionModel* inner, CancelToken* token, int fuse)
      : inner_(inner), token_(token), fuse_(fuse) {}

  std::string name() const override { return inner_->name(); }
  uint64_t ConfigFingerprint() const override {
    return inner_->ConfigFingerprint();
  }

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

class KillResumeTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoints::Get().DisarmAll(); }

  std::string FreshDir(const std::string& tag) {
    const std::string dir =
        ::testing::TempDir() + "/culevo_kill_resume_" + tag + "_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir);
    return dir;
  }

  static CheckpointOptions Checkpointed(const std::string& dir,
                                        bool resume) {
    CheckpointOptions options;
    options.directory = dir;
    options.resume = resume;
    options.sync = false;
    return options;
  }
};

void ExpectBitIdentical(const SimulationResult& resumed,
                        const SimulationResult& golden) {
  EXPECT_EQ(resumed.ingredient_curve.values(),
            golden.ingredient_curve.values());
  EXPECT_EQ(resumed.category_curve.values(),
            golden.category_curve.values());
  EXPECT_EQ(resumed.report.replicas_requested,
            golden.report.replicas_requested);
  EXPECT_EQ(resumed.report.replicas_succeeded,
            golden.report.replicas_succeeded);
  EXPECT_EQ(resumed.report.replicas_failed, golden.report.replicas_failed);
}

// The CLI's deadline path: a run killed by --timeout-ms leaves a journal,
// and a later --resume completes it bit-identically. The kill point is
// wall-clock dependent, so the first attempt may finish anywhere between
// zero and all replicas — resume must close whatever gap remains,
// including the degenerate ends of the range.
TEST_F(KillResumeTest, DeadlineKillThenResumeMatchesGolden) {
  const Lexicon& lexicon = WorldLexicon();
  const auto model = MakeCmR(&lexicon);
  const CuisineContext context = SmallContext();

  SimulationConfig config;
  config.replicas = 5;
  config.seed = 77;
  Result<SimulationResult> golden =
      RunSimulation(*model, context, lexicon, config);
  ASSERT_TRUE(golden.ok());

  // 0ms: dead on arrival, nothing completes. 5ms: dies somewhere in the
  // middle on most machines, or even completes — every outcome is legal.
  int attempt = 0;
  for (const int64_t timeout_ms : {0, 5}) {
    const std::string dir = FreshDir(std::to_string(attempt++));
    CancelToken token(Deadline::AfterMillis(timeout_ms));
    SimulationConfig killed = config;
    killed.cancel = &token;
    killed.checkpoint = Checkpointed(dir, false);
    Result<SimulationResult> interrupted =
        RunSimulation(*model, context, lexicon, killed);
    if (!interrupted.ok()) {
      EXPECT_EQ(interrupted.status().code(), StatusCode::kDeadlineExceeded)
          << "timeout " << timeout_ms << "ms";
    }

    SimulationConfig resumed_config = config;
    resumed_config.checkpoint = Checkpointed(dir, true);
    Result<SimulationResult> resumed =
        RunSimulation(*model, context, lexicon, resumed_config);
    ASSERT_TRUE(resumed.ok()) << "timeout " << timeout_ms << "ms";
    ExpectBitIdentical(resumed.value(), golden.value());
  }
}

// The evaluator-level workflow the CLI drives: models share one
// checkpoint directory (one journal per model × cuisine). A kill during
// the *second* model's run leaves the first model's journal complete;
// resume restores it wholesale and finishes the rest.
TEST_F(KillResumeTest, EvaluateCuisineKilledMidModelResumes) {
  const Lexicon& lexicon = WorldLexicon();
  const CuisineId bn = CuisineFromCode("BN").value();
  const RecipeCorpus corpus = [&]() {
    const CuisineProfile profile = BuildCuisineProfile(lexicon, bn, 3);
    SynthConfig synth;
    RecipeCorpus::Builder builder;
    CULEVO_CHECK_OK(SynthesizeCuisine(lexicon, profile, synth, 300, &builder));
    return builder.Build();
  }();

  const auto cm_r = MakeCmR(&lexicon);
  const NullModel nm;
  SimulationConfig config;
  config.replicas = 3;
  config.seed = 11;

  const std::vector<const EvolutionModel*> models = {cm_r.get(), &nm};
  Result<CuisineEvaluation> golden =
      EvaluateCuisine(corpus, bn, lexicon, models, config);
  ASSERT_TRUE(golden.ok());

  // Kill during the null model's second replica: CM-R's journal is
  // complete, NM's holds one replica.
  const std::string dir = FreshDir("eval");
  CancelToken token;
  InterruptModel nm_killer(&nm, &token, 2);
  const std::vector<const EvolutionModel*> killed_models = {cm_r.get(),
                                                            &nm_killer};
  SimulationConfig killed = config;
  killed.cancel = &token;
  killed.checkpoint = Checkpointed(dir, false);
  Result<CuisineEvaluation> interrupted =
      EvaluateCuisine(corpus, bn, lexicon, killed_models, killed);
  EXPECT_EQ(interrupted.status().code(), StatusCode::kCancelled);

  SimulationConfig resumed_config = config;
  resumed_config.checkpoint = Checkpointed(dir, true);
  Result<CuisineEvaluation> resumed =
      EvaluateCuisine(corpus, bn, lexicon, models, resumed_config);
  ASSERT_TRUE(resumed.ok());

  ASSERT_EQ(resumed->scores.size(), golden->scores.size());
  for (size_t m = 0; m < golden->scores.size(); ++m) {
    const ModelScore& a = resumed->scores[m];
    const ModelScore& b = golden->scores[m];
    EXPECT_EQ(a.model, b.model);
    EXPECT_EQ(a.mae_ingredient, b.mae_ingredient);
    EXPECT_EQ(a.mae_category, b.mae_category);
    EXPECT_EQ(a.ingredient_curve.values(), b.ingredient_curve.values());
    EXPECT_EQ(a.category_curve.values(), b.category_curve.values());
    EXPECT_EQ(a.report.replicas_requested, b.report.replicas_requested);
    EXPECT_EQ(a.report.replicas_succeeded, b.report.replicas_succeeded);
    EXPECT_EQ(a.report.replicas_failed, b.report.replicas_failed);
  }
  EXPECT_EQ(resumed->empirical_ingredient.values(),
            golden->empirical_ingredient.values());

  // A second resume restores everything and recomputes nothing new, still
  // matching the golden evaluation.
  Result<CuisineEvaluation> again =
      EvaluateCuisine(corpus, bn, lexicon, models, resumed_config);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->scores[0].ingredient_curve.values(),
            golden->scores[0].ingredient_curve.values());
}

// The fabric-era kill: a real worker process (fabric_worker, the binary
// the exec-fabric suite dispatches) is SIGKILLed while journaling its
// shard — no graceful shutdown, possibly zero replicas landed. The
// coordinator-side merge + resume pass must absorb whatever survived,
// recompute the rest (including the entire unstarted shard 1), and match
// the single-process golden bit-for-bit.
TEST_F(KillResumeTest, WorkerSigkilledMidShardMergesAndResumes) {
  const Lexicon& lexicon = WorldLexicon();
  const auto model = MakeCmR(&lexicon);
  const CuisineContext context = SmallContext();
  SimulationConfig config;
  config.replicas = 7;
  config.seed = 77;
  Result<SimulationResult> golden =
      RunSimulation(*model, context, lexicon, config);
  ASSERT_TRUE(golden.ok());

  const std::string dir = FreshDir("worker_kill");
  Subprocess worker;
  SpawnOptions spawn;
  spawn.silence_stdout = true;
  spawn.silence_stderr = true;
  ASSERT_TRUE(worker
                  .Spawn({FABRIC_WORKER_PATH, "--checkpoint", dir,
                          "--replicas", "7", "--seed", "77", "--workers",
                          "2", "--worker-shard", "0"},
                         spawn)
                  .ok());

  // The shard journal appears the moment the worker opens it (the
  // manifest is flushed immediately); killing right after that lands the
  // SIGKILL mid-shard, before the worker can finish its units.
  bool journal_seen = false;
  for (int i = 0; i < 1500 && !journal_seen; ++i) {
    if (std::filesystem::exists(dir)) {
      for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().filename().string().find(".shard0.") !=
            std::string::npos) {
          journal_seen = true;
          break;
        }
      }
    }
    if (!journal_seen) ::usleep(5 * 1000);
  }
  worker.Kill();

  // Merge + resume: shard 0's salvaged prefix is restored, shard 1 never
  // ran and is skipped as missing — the in-process pass closes both gaps.
  SimulationConfig resumed = config;
  resumed.checkpoint = Checkpointed(dir, true);
  resumed.checkpoint.merge_shards = 2;
  Result<SimulationResult> merged =
      RunSimulation(*model, context, lexicon, resumed);
  ASSERT_TRUE(merged.ok()) << merged.status();
  ExpectBitIdentical(merged.value(), golden.value());
}

}  // namespace
}  // namespace culevo
