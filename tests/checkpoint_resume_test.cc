// Resume-protocol tests for the crash-recovery subsystem: the
// bit-identical resume-equivalence guarantee for every model, manifest
// mismatch refusals, corruption recovery at the RunSimulation level,
// resume after a failed attempt, and the merged resume of shard journals
// (one read, parse and write each).

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "core/copy_mutate.h"
#include "core/null_model.h"
#include "core/run_journal.h"
#include "core/simulation.h"
#include "lexicon/world_lexicon.h"
#include "obs/metrics.h"
#include "util/cancel.h"
#include "util/check.h"
#include "util/csv.h"
#include "util/failpoint.h"
#include "util/file_io.h"
#include "util/rng.h"
#include "util/strings.h"

namespace culevo {
namespace {

CuisineContext SmallContext() {
  CuisineContext context;
  context.cuisine = 0;
  for (IngredientId id = 0; id < 100; ++id) {
    context.ingredients.push_back(id);
  }
  context.popularity.assign(100, 0.5);
  context.mean_recipe_size = 6;
  context.target_recipes = 160;
  context.phi = 0.5;
  return context;
}

/// Transparent wrapper that trips a CancelToken after a fixed number of
/// generate calls. Unlike the fault_injection_test variant it delegates
/// ConfigFingerprint too: a checkpoint written through the wrapper must
/// be resumable by the bare model, so the wrapper may not change the
/// run's manifest identity.
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

/// Transparent wrapper that fails every replica whose seed is denied,
/// again preserving the inner model's manifest identity.
class FlakyModel : public EvolutionModel {
 public:
  FlakyModel(const EvolutionModel* inner, std::vector<uint64_t> deny)
      : inner_(inner), deny_(std::move(deny)) {}

  std::string name() const override { return inner_->name(); }
  uint64_t ConfigFingerprint() const override {
    return inner_->ConfigFingerprint();
  }

  Status GenerateInto(const CuisineContext& context, uint64_t seed,
                      RecipeStore* store) const override {
    for (uint64_t denied : deny_) {
      if (seed == denied) return Status::Internal("injected replica fault");
    }
    return inner_->GenerateInto(context, seed, store);
  }

 private:
  const EvolutionModel* inner_;
  std::vector<uint64_t> deny_;
};

class CheckpointResumeTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoints::Get().DisarmAll(); }

  /// A fresh (empty) checkpoint directory unique to this test.
  std::string FreshDir() {
    const std::string dir =
        ::testing::TempDir() + "/culevo_resume_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir);
    return dir;
  }

  static SimulationConfig BaseConfig() {
    SimulationConfig config;
    config.replicas = 6;
    config.seed = 33;
    return config;
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

/// Replaces `from` with `to` in the first record of the journal at `path`
/// that holds it, and re-signs that record as any producer could.
void EditRecord(const std::string& path, const std::string& from,
                const std::string& to) {
  Result<std::string> raw = ReadFileToString(path);
  ASSERT_TRUE(raw.ok());
  std::string content = raw.value();
  const size_t at = content.find(from);
  ASSERT_NE(at, std::string::npos) << from;
  const size_t line = content.rfind('\n', at) + 1;
  const size_t eol = content.find('\n', at);
  const size_t payload_start = line + 17;  // after "<hex16> "
  std::string payload = content.substr(payload_start, eol - payload_start);
  payload.replace(at - payload_start, from.size(), to);
  content.replace(line, eol + 1 - line, FormatJournalRecord(payload));
  ASSERT_TRUE(WriteStringToFile(path, content).ok());
}

void ExpectBitIdentical(const SimulationResult& resumed,
                        const SimulationResult& golden) {
  EXPECT_EQ(resumed.ingredient_curve.values(),
            golden.ingredient_curve.values());
  EXPECT_EQ(resumed.category_curve.values(),
            golden.category_curve.values());
  ASSERT_EQ(resumed.replica_ingredient_curves.size(),
            golden.replica_ingredient_curves.size());
  for (size_t k = 0; k < golden.replica_ingredient_curves.size(); ++k) {
    EXPECT_EQ(resumed.replica_ingredient_curves[k].values(),
              golden.replica_ingredient_curves[k].values())
        << "replica " << k;
  }
  EXPECT_EQ(resumed.report.replicas_requested,
            golden.report.replicas_requested);
  EXPECT_EQ(resumed.report.replicas_succeeded,
            golden.report.replicas_succeeded);
  EXPECT_EQ(resumed.report.replicas_failed, golden.report.replicas_failed);
}

/// The names of the temp files in `dir`: what an atomic rewrite that never
/// committed left behind.
std::vector<std::string> TempFilesIn(const std::string& dir) {
  std::vector<std::string> temps;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.find(".tmp-") != std::string::npos) temps.push_back(name);
  }
  std::sort(temps.begin(), temps.end());
  return temps;
}

/// The bytes of `path`, or nullopt when it does not exist.
std::optional<std::string> BytesOf(const std::string& path) {
  if (!std::filesystem::exists(path)) return std::nullopt;
  Result<std::string> raw = ReadFileToString(path);
  EXPECT_TRUE(raw.ok()) << raw.status();
  return raw.ok() ? std::optional<std::string>(raw.value()) : std::nullopt;
}

/// Appends `payload` to the journal at `path` as a signed record, the way
/// an older build wrote its records.
void AppendRawRecord(const std::string& path, const std::string& payload) {
  Result<std::string> raw = ReadFileToString(path);
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(
      WriteStringToFile(path, raw.value() + FormatJournalRecord(payload))
          .ok());
}

// The core guarantee, for every model the paper evaluates: interrupt a
// checkpointed run after k < replicas completed, resume, and the final
// aggregate curves and report are bit-identical to the same run never
// interrupted.
TEST_F(CheckpointResumeTest, ResumeEquivalenceForAllModels) {
  const Lexicon& lexicon = WorldLexicon();
  const auto cm_r = MakeCmR(&lexicon);
  const auto cm_c = MakeCmC(&lexicon);
  const auto cm_m = MakeCmM(&lexicon);
  const NullModel nm;
  const std::vector<const EvolutionModel*> models = {cm_r.get(), cm_c.get(),
                                                     cm_m.get(), &nm};
  const CuisineContext context = SmallContext();
  const std::string dir = FreshDir();

  for (const EvolutionModel* model : models) {
    SimulationConfig config = BaseConfig();
    Result<SimulationResult> golden =
        RunSimulation(*model, context, lexicon, config);
    ASSERT_TRUE(golden.ok()) << model->name();

    // Interrupt mid-run, journaling as we go: the token trips during the
    // 4th generate call, so some prefix of the replicas completes and the
    // rest is cancelled. Resume must close the gap whatever the split.
    CancelToken token;
    InterruptModel interruptible(model, &token, 4);
    config.cancel = &token;
    config.checkpoint = Checkpointed(dir, false);
    Result<SimulationResult> interrupted =
        RunSimulation(interruptible, context, lexicon, config);
    EXPECT_EQ(interrupted.status().code(), StatusCode::kCancelled)
        << model->name();

    // Resume with the bare model and no cancellation.
    config.cancel = nullptr;
    config.checkpoint = Checkpointed(dir, true);
    Result<SimulationResult> resumed =
        RunSimulation(*model, context, lexicon, config);
    ASSERT_TRUE(resumed.ok()) << model->name();
    ExpectBitIdentical(resumed.value(), golden.value());
  }
}

TEST_F(CheckpointResumeTest, ResumeOfCompletedRunRecomputesNothing) {
  const Lexicon& lexicon = WorldLexicon();
  const NullModel model;
  const CuisineContext context = SmallContext();
  const std::string dir = FreshDir();

  SimulationConfig config = BaseConfig();
  Result<SimulationResult> golden =
      RunSimulation(model, context, lexicon, config);
  ASSERT_TRUE(golden.ok());

  config.checkpoint = Checkpointed(dir, false);
  ASSERT_TRUE(RunSimulation(model, context, lexicon, config).ok());

  // All replicas restore; the FlakyModel denying *every* replica seed
  // proves no replica is re-generated.
  std::vector<uint64_t> all_seeds;
  for (int k = 0; k < config.replicas; ++k) {
    all_seeds.push_back(DeriveSeed(config.seed, static_cast<uint64_t>(k)));
  }
  FlakyModel deny_all(&model, all_seeds);
  config.checkpoint = Checkpointed(dir, true);
  Result<SimulationResult> resumed =
      RunSimulation(deny_all, context, lexicon, config);
  ASSERT_TRUE(resumed.ok());
  ExpectBitIdentical(resumed.value(), golden.value());
}

TEST_F(CheckpointResumeTest, ResumeWithMissingJournalIsFreshStart) {
  const Lexicon& lexicon = WorldLexicon();
  const NullModel model;
  const CuisineContext context = SmallContext();

  SimulationConfig config = BaseConfig();
  Result<SimulationResult> golden =
      RunSimulation(model, context, lexicon, config);
  ASSERT_TRUE(golden.ok());

  config.checkpoint = Checkpointed(FreshDir(), true);  // nothing to resume
  Result<SimulationResult> resumed =
      RunSimulation(model, context, lexicon, config);
  ASSERT_TRUE(resumed.ok());
  ExpectBitIdentical(resumed.value(), golden.value());
}

TEST_F(CheckpointResumeTest, ManifestMismatchesAreRefused) {
  const Lexicon& lexicon = WorldLexicon();
  const NullModel model;
  const CuisineContext context = SmallContext();
  const std::string dir = FreshDir();

  SimulationConfig config = BaseConfig();
  config.checkpoint = Checkpointed(dir, false);
  ASSERT_TRUE(RunSimulation(model, context, lexicon, config).ok());

  config.checkpoint = Checkpointed(dir, true);

  {  // Different base seed.
    SimulationConfig changed = config;
    changed.seed = 34;
    EXPECT_EQ(RunSimulation(model, context, lexicon, changed)
                  .status()
                  .code(),
              StatusCode::kFailedPrecondition);
  }
  {  // Different replica count.
    SimulationConfig changed = config;
    changed.replicas = 7;
    EXPECT_EQ(RunSimulation(model, context, lexicon, changed)
                  .status()
                  .code(),
              StatusCode::kFailedPrecondition);
  }
  {  // Different mining support.
    SimulationConfig changed = config;
    changed.mining.min_relative_support = 0.10;
    EXPECT_EQ(RunSimulation(model, context, lexicon, changed)
                  .status()
                  .code(),
              StatusCode::kFailedPrecondition);
  }
  {  // Different corpus content (same shape, different popularity).
    CuisineContext changed_context = context;
    changed_context.popularity[0] = 0.25;
    EXPECT_EQ(RunSimulation(model, changed_context, lexicon, config)
                  .status()
                  .code(),
              StatusCode::kFailedPrecondition);
  }
  // The matching run still resumes fine after all those refusals.
  EXPECT_TRUE(RunSimulation(model, context, lexicon, config).ok());
}

// Two CM-M instances print the same name; only ConfigFingerprint can tell
// them apart — the manifest must refuse cross-parameter resumes.
TEST_F(CheckpointResumeTest, SameNameDifferentParamsIsRefused) {
  const Lexicon& lexicon = WorldLexicon();
  const CuisineContext context = SmallContext();
  const std::string dir = FreshDir();

  ModelParams params;
  params.policy = ReplacementPolicy::kMixture;
  params.mutations = 6;
  params.mixture_cross_prob = 0.5;
  const CopyMutateModel half(&lexicon, params);
  params.mixture_cross_prob = 0.9;
  const CopyMutateModel ninety(&lexicon, params);
  ASSERT_EQ(half.name(), ninety.name());
  ASSERT_NE(half.ConfigFingerprint(), ninety.ConfigFingerprint());

  SimulationConfig config = BaseConfig();
  config.checkpoint = Checkpointed(dir, false);
  ASSERT_TRUE(RunSimulation(half, context, lexicon, config).ok());

  config.checkpoint = Checkpointed(dir, true);
  EXPECT_EQ(RunSimulation(ninety, context, lexicon, config).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(RunSimulation(half, context, lexicon, config).ok());
}

// A model's ConfigFingerprint is its identity in every journal manifest,
// so a journal an earlier build wrote resumes only while these values
// hold: the three paper models, and a CM-M with every probability moved
// off its default.
TEST_F(CheckpointResumeTest, ConfigFingerprintsArePinned) {
  const Lexicon& lexicon = WorldLexicon();
  EXPECT_EQ(MakeCmR(&lexicon)->ConfigFingerprint(), 0x4FCF8F11CBCDABF5ull);
  EXPECT_EQ(MakeCmC(&lexicon)->ConfigFingerprint(), 0x8FD8B169E3DCA0E1ull);
  EXPECT_EQ(MakeCmM(&lexicon)->ConfigFingerprint(), 0x2708A6E5FD13104Cull);

  ModelParams params;
  params.policy = ReplacementPolicy::kMixture;
  params.mutations = 6;
  params.mixture_cross_prob = 0.25;
  params.insert_prob = 0.1;
  params.delete_prob = 0.05;
  EXPECT_EQ(CopyMutateModel(&lexicon, params).ConfigFingerprint(),
            0x20E7E32B5981E1E8ull);
}

TEST_F(CheckpointResumeTest, CorruptTailReRunsOnlyAffectedReplicas) {
  const Lexicon& lexicon = WorldLexicon();
  const NullModel model;
  const CuisineContext context = SmallContext();
  const std::string dir = FreshDir();

  SimulationConfig config = BaseConfig();
  Result<SimulationResult> golden =
      RunSimulation(model, context, lexicon, config);
  ASSERT_TRUE(golden.ok());

  config.checkpoint = Checkpointed(dir, false);
  ASSERT_TRUE(RunSimulation(model, context, lexicon, config).ok());

  // Bit-flip the last replica record: the quarantine drops it, resume
  // re-runs that replica, and the final result is still bit-identical.
  const std::string path = dir + "/sim_nm_c0.journal";
  Result<std::string> raw = ReadFileToString(path);
  ASSERT_TRUE(raw.ok());
  std::string content = raw.value();
  const size_t last_record = content.rfind("kind=replica");
  ASSERT_NE(last_record, std::string::npos);
  content[last_record + 20] ^= 0x40;
  ASSERT_TRUE(WriteStringToFile(path, content).ok());

  // Restored replicas must be 5 of 6: deny the five restored seeds to
  // prove only the quarantined replica is re-generated.
  std::vector<uint64_t> first_five;
  for (int k = 0; k < 5; ++k) {
    first_five.push_back(DeriveSeed(config.seed, static_cast<uint64_t>(k)));
  }
  FlakyModel deny_restored(&model, first_five);
  config.checkpoint = Checkpointed(dir, true);
  Result<SimulationResult> resumed =
      RunSimulation(deny_restored, context, lexicon, config);
  ASSERT_TRUE(resumed.ok());
  ExpectBitIdentical(resumed.value(), golden.value());
}

TEST_F(CheckpointResumeTest, CorruptManifestRefusesResume) {
  const Lexicon& lexicon = WorldLexicon();
  const NullModel model;
  const CuisineContext context = SmallContext();
  const std::string dir = FreshDir();

  SimulationConfig config = BaseConfig();
  config.checkpoint = Checkpointed(dir, false);
  ASSERT_TRUE(RunSimulation(model, context, lexicon, config).ok());

  const std::string path = dir + "/sim_nm_c0.journal";
  Result<std::string> raw = ReadFileToString(path);
  ASSERT_TRUE(raw.ok());
  std::string content = raw.value();
  const size_t manifest = content.find("kind=manifest");
  ASSERT_NE(manifest, std::string::npos);
  content[manifest] ^= 0x01;  // corrupts record 0 → nothing certifies the run
  ASSERT_TRUE(WriteStringToFile(path, content).ok());

  config.checkpoint = Checkpointed(dir, true);
  EXPECT_EQ(RunSimulation(model, context, lexicon, config).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(CheckpointResumeTest, FormatVersionBumpRefusesResume) {
  const Lexicon& lexicon = WorldLexicon();
  const NullModel model;
  const CuisineContext context = SmallContext();
  const std::string dir = FreshDir();

  SimulationConfig config = BaseConfig();
  config.checkpoint = Checkpointed(dir, false);
  ASSERT_TRUE(RunSimulation(model, context, lexicon, config).ok());

  const std::string path = dir + "/sim_nm_c0.journal";
  Result<std::string> raw = ReadFileToString(path);
  ASSERT_TRUE(raw.ok());
  std::string content = raw.value();
  const size_t eol = content.find('\n');
  content.replace(0, eol, JournalHeader(kJournalFormatVersion + 1));
  ASSERT_TRUE(WriteStringToFile(path, content).ok());

  config.checkpoint = Checkpointed(dir, true);
  EXPECT_EQ(RunSimulation(model, context, lexicon, config).status().code(),
            StatusCode::kFailedPrecondition);
}

// Journals written before the manifest lost its `run` and `points` fields
// still resume: the parser ignores fields it does not read.
TEST_F(CheckpointResumeTest, ManifestWithRunAndPointsFieldsResumes) {
  const Lexicon& lexicon = WorldLexicon();
  const NullModel model;
  const CuisineContext context = SmallContext();
  const std::string dir = FreshDir();

  SimulationConfig config = BaseConfig();
  config.checkpoint = Checkpointed(dir, false);
  Result<SimulationResult> golden =
      RunSimulation(model, context, lexicon, config);
  ASSERT_TRUE(golden.ok());

  // The manifest line in that older layout:
  // `kind=manifest v=1 run=simulation name=NM ... replicas=6 points=0
  // mining=...`.
  const std::string path = dir + "/sim_nm_c0.journal";
  EditRecord(path, "kind=manifest v=1 name=",
             "kind=manifest v=1 run=simulation name=");
  EditRecord(path, " mining=", " points=0 mining=");

  // Every replica restores: a model that fails every replica seed
  // finishes anyway.
  std::vector<uint64_t> all_seeds;
  for (int k = 0; k < config.replicas; ++k) {
    all_seeds.push_back(DeriveSeed(config.seed, static_cast<uint64_t>(k)));
  }
  FlakyModel deny_all(&model, all_seeds);
  config.checkpoint = Checkpointed(dir, true);
  Result<SimulationResult> resumed =
      RunSimulation(deny_all, context, lexicon, config);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  ExpectBitIdentical(resumed.value(), golden.value());
}

// A failed attempt journals the replicas that succeeded and nothing for
// the one that failed, so a resume once the fault is gone re-runs only
// that replica and finishes as the clean run.
TEST_F(CheckpointResumeTest, FailedAttemptResumesToTheCleanRun) {
  const Lexicon& lexicon = WorldLexicon();
  const NullModel inner;
  const CuisineContext context = SmallContext();
  const std::string dir = FreshDir();

  SimulationConfig config = BaseConfig();
  config.replicas = 4;
  Result<SimulationResult> golden =
      RunSimulation(inner, context, lexicon, config);
  ASSERT_TRUE(golden.ok());

  // Attempt 1: replica 1 fails, and with it the run.
  FlakyModel flaky(&inner, {DeriveSeed(config.seed, 1)});
  config.checkpoint = Checkpointed(dir, false);
  Result<SimulationResult> attempt1 =
      RunSimulation(flaky, context, lexicon, config);
  EXPECT_EQ(attempt1.status().code(), StatusCode::kInternal);

  // Attempt 2 (resume, fault gone): every other replica restores, which
  // a model that fails their seeds proves, and the result is the clean
  // run's.
  FlakyModel deny_restored(&inner, {DeriveSeed(config.seed, 0),
                                    DeriveSeed(config.seed, 2),
                                    DeriveSeed(config.seed, 3)});
  config.checkpoint = Checkpointed(dir, true);
  Result<SimulationResult> attempt2 =
      RunSimulation(deny_restored, context, lexicon, config);
  ASSERT_TRUE(attempt2.ok()) << attempt2.status();
  ExpectBitIdentical(attempt2.value(), golden.value());
}

TEST_F(CheckpointResumeTest, ParallelResumeMatchesSerialGolden) {
  const Lexicon& lexicon = WorldLexicon();
  const auto model = MakeCmR(&lexicon);
  const CuisineContext context = SmallContext();
  const std::string dir = FreshDir();

  SimulationConfig config = BaseConfig();
  Result<SimulationResult> golden =
      RunSimulation(*model, context, lexicon, config);
  ASSERT_TRUE(golden.ok());

  CancelToken token;
  InterruptModel interruptible(model.get(), &token, 3);
  config.cancel = &token;
  config.checkpoint = Checkpointed(dir, false);
  ThreadPool pool(3);
  Result<SimulationResult> interrupted =
      RunSimulation(interruptible, context, lexicon, config, &pool);
  EXPECT_EQ(interrupted.status().code(), StatusCode::kCancelled);

  config.cancel = nullptr;
  config.checkpoint = Checkpointed(dir, true);
  Result<SimulationResult> resumed =
      RunSimulation(*model, context, lexicon, config, &pool);
  ASSERT_TRUE(resumed.ok());
  ExpectBitIdentical(resumed.value(), golden.value());
}

TEST_F(CheckpointResumeTest, CkptMetricsTrackResumes) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  obs::Counter* resumes = registry.counter("ckpt.resumes");
  obs::Counter* restored = registry.counter("ckpt.replicas_restored");
  const int64_t resumes0 = resumes->Value();
  const int64_t restored0 = restored->Value();

  const Lexicon& lexicon = WorldLexicon();
  const NullModel model;
  const CuisineContext context = SmallContext();
  const std::string dir = FreshDir();

  SimulationConfig config = BaseConfig();
  config.checkpoint = Checkpointed(dir, false);
  ASSERT_TRUE(RunSimulation(model, context, lexicon, config).ok());

  config.checkpoint = Checkpointed(dir, true);
  ASSERT_TRUE(RunSimulation(model, context, lexicon, config).ok());
  EXPECT_EQ(resumes->Value() - resumes0, 1);
  EXPECT_EQ(restored->Value() - restored0, config.replicas);
}

// A journal integer outside `int` is an unreadable record, not a value to
// truncate: 4294967303 would otherwise read as the 7 of this run.
TEST_F(CheckpointResumeTest, ManifestCountOutsideIntIsRefused) {
  const Lexicon& lexicon = WorldLexicon();
  const NullModel model;
  const std::string dir = FreshDir();
  SimulationConfig config = BaseConfig();
  config.replicas = 7;
  config.checkpoint = Checkpointed(dir, false);
  ASSERT_TRUE(RunSimulation(model, SmallContext(), lexicon, config).ok());

  EditRecord(dir + "/sim_nm_c0.journal", "replicas=7 ",
             "replicas=4294967303 ");
  config.checkpoint = Checkpointed(dir, true);
  EXPECT_EQ(
      RunSimulation(model, SmallContext(), lexicon, config).status().code(),
      StatusCode::kFailedPrecondition);
}

// Likewise a replica index: k=4294967299 would otherwise restore into
// slot 3.
TEST_F(CheckpointResumeTest, ReplicaIndexOutsideIntIsRefused) {
  const Lexicon& lexicon = WorldLexicon();
  const NullModel model;
  const std::string dir = FreshDir();
  SimulationConfig config = BaseConfig();
  config.replicas = 7;
  config.checkpoint = Checkpointed(dir, false);
  ASSERT_TRUE(RunSimulation(model, SmallContext(), lexicon, config).ok());

  EditRecord(dir + "/sim_nm_c0.journal", "kind=replica k=3 ",
             "kind=replica k=4294967299 ");
  config.checkpoint = Checkpointed(dir, true);
  EXPECT_EQ(
      RunSimulation(model, SmallContext(), lexicon, config).status().code(),
      StatusCode::kFailedPrecondition);
}

// The merged resume reads each shard journal once and writes the
// consolidated journal once.
TEST_F(CheckpointResumeTest, MergedResumeReadsAndWritesEachRecordOnce) {
  const Lexicon& lexicon = WorldLexicon();
  const auto model = MakeCmR(&lexicon);
  const CuisineContext context = SmallContext();
  const std::string dir = FreshDir();
  SimulationConfig config = BaseConfig();
  Result<SimulationResult> golden =
      RunSimulation(*model, context, lexicon, config);
  ASSERT_TRUE(golden.ok());

  const std::string file_name =
      "sim_" + SanitizeFileToken(model->name()) + "_c0.journal";
  size_t shard_records = 0;
  for (int s = 0; s < 2; ++s) {
    SimulationConfig shard = config;
    shard.checkpoint = Checkpointed(dir, true);
    shard.shard.index = s;
    shard.shard.count = 2;
    ASSERT_TRUE(RunSimulation(*model, context, lexicon, shard).ok());
    Result<JournalContents> contents =
        ReadJournal(dir + "/" + ShardJournalFileName(file_name, s));
    ASSERT_TRUE(contents.ok()) << contents.status();
    shard_records += contents->records.size();
  }

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  obs::Counter* atomic_writes = registry.counter("io.write.atomic");
  obs::Counter* loaded = registry.counter("ckpt.records_loaded");
  const int64_t atomic_writes0 = atomic_writes->Value();
  const int64_t loaded0 = loaded->Value();
  config.checkpoint = Checkpointed(dir, true);
  config.checkpoint.merge_shards = 2;
  Result<SimulationResult> merged =
      RunSimulation(*model, context, lexicon, config);
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ(atomic_writes->Value() - atomic_writes0, 1);
  EXPECT_EQ(loaded->Value() - loaded0, static_cast<int64_t>(shard_records));
  ExpectBitIdentical(merged.value(), golden.value());
}

// The journal resume rewrites holds exactly what it restored: interrupt
// records and the incident records older builds wrote are dropped, a
// replica record that still carries their `retries` field restores, and
// merging the rewritten journal again adds nothing.
TEST_F(CheckpointResumeTest, RewrittenJournalHoldsTheRestoredState) {
  const std::string dir = FreshDir();
  RunManifest manifest;
  manifest.name = "NM";
  manifest.replicas = 4;
  const std::string file_name = "sim_nm_c0.journal";
  const std::string shard_name = ShardJournalFileName(file_name, 0);
  // Replica 1 failed with Internal "flaky = 100%" after two retries.
  const std::string incident =
      "kind=incident k=1 code=6 retries=2 msg=flaky%20%3D%20100%25";
  {
    Result<std::unique_ptr<RunJournal>> journal =
        RunJournal::Open(Checkpointed(dir, false), file_name, manifest);
    ASSERT_TRUE(journal.ok()) << journal.status();
    ASSERT_TRUE((*journal)->AppendReplica({0, {1.0, 0.5}, {2.0}}).ok());
    ASSERT_TRUE(
        (*journal)->AppendInterrupt(Status::Cancelled("stopped")).ok());
  }
  AppendRawRecord(dir + "/" + file_name, incident);
  AppendRawRecord(dir + "/" + file_name, incident);
  {
    Result<std::unique_ptr<RunJournal>> shard =
        RunJournal::Open(Checkpointed(dir, false), shard_name, manifest);
    ASSERT_TRUE(shard.ok()) << shard.status();
    ASSERT_TRUE((*shard)->AppendReplica({0, {9.0}, {9.0}}).ok());
  }
  AppendRawRecord(dir + "/" + shard_name, incident);
  // Replica 3 with ingredient curve {4.0}, written with a `retries` field.
  AppendRawRecord(dir + "/" + shard_name,
                  "kind=replica k=3 retries=1 ic=4010000000000000 cc=");

  const auto expect_restored = [&](int merge_shards, size_t replicas) {
    CheckpointOptions options = Checkpointed(dir, true);
    options.merge_shards = merge_shards;
    Result<std::unique_ptr<RunJournal>> journal =
        RunJournal::Open(options, file_name, manifest);
    ASSERT_TRUE(journal.ok()) << journal.status();
    const std::vector<ReplicaCheckpoint>& restored =
        (*journal)->restored_replicas();
    ASSERT_EQ(restored.size(), replicas) << merge_shards;
    EXPECT_EQ(restored[0].replica, 0);
    EXPECT_EQ(restored[0].ingredient, (std::vector<double>{1.0, 0.5}));
    if (replicas > 1) {
      EXPECT_EQ(restored[1].replica, 3);
      EXPECT_EQ(restored[1].ingredient, (std::vector<double>{4.0}));
      EXPECT_TRUE(restored[1].category.empty());
    }
    Result<std::string> rewritten = ReadFileToString(dir + "/" + file_name);
    ASSERT_TRUE(rewritten.ok());
    EXPECT_EQ(rewritten->find("kind=interrupt"), std::string::npos);
    EXPECT_EQ(rewritten->find("kind=incident"), std::string::npos);
  };
  expect_restored(0, 1);
  expect_restored(1, 2);
  expect_restored(1, 2);  // re-merging the merged journal adds nothing
}

/// Leaves in `dir` what a coordinator that crashed while rewriting
/// `file_name` would: its temp file, here under another pid, and, since a
/// successor may run under the crashed one's pid, the next temp names this
/// process would take. Returns their names, sorted.
std::vector<std::string> PlantStaleTemps(const std::string& dir,
                                         const std::string& file_name) {
  std::vector<std::string> stale = {file_name + ".tmp-1-0"};
  std::ofstream(dir + "/" + stale[0]) << JournalHeader(kJournalFormatVersion)
                                      << "\n0123";
  std::string probe;
  {
    AtomicFileWriter writer;
    EXPECT_TRUE(writer.Open(dir + "/" + file_name, /*sync=*/false).ok());
    for (const std::string& name : TempFilesIn(dir)) {
      if (name != stale[0]) probe = name;
    }
  }
  const std::string stem =
      StrFormat("%s.tmp-%d-", file_name.c_str(), static_cast<int>(::getpid()));
  if (probe.rfind(stem, 0) != 0) {
    ADD_FAILURE() << "unexpected temp name " << probe;
    return stale;
  }
  const unsigned long long n = std::stoull(probe.substr(stem.size()));
  for (unsigned long long k = n + 1; k <= n + 3; ++k) {
    stale.push_back(stem + std::to_string(k));
    std::ofstream(dir + "/" + stale.back()) << "stale";
  }
  std::sort(stale.begin(), stale.end());
  return stale;
}

// The merge streams the consolidated journal to a temp file and publishes
// it with one rename; a write that fails part-way through is not retried.
// It fails the run and leaves the previous journal (or its absence) and
// every shard as they were, with no temp file, so a rerun merges the same
// sources. The write fails right after the header, and again part-way
// through the sources, after a whole source has been streamed. The rerun
// then finds stale temp files beside the target, which change nothing.
TEST_F(CheckpointResumeTest, FailedMergeRewriteLeavesEveryJournalAsItWas) {
  const Lexicon& lexicon = WorldLexicon();
  const auto model = MakeCmR(&lexicon);
  const CuisineContext context = SmallContext();
  SimulationConfig config = BaseConfig();
  Result<SimulationResult> golden =
      RunSimulation(*model, context, lexicon, config);
  ASSERT_TRUE(golden.ok());
  const std::string file_name =
      "sim_" + SanitizeFileToken(model->name()) + "_c0.journal";

  for (const bool with_target : {false, true}) {
    for (const int skip : {1, 5}) {
      SCOPED_TRACE(StrFormat("target %d, skip %d", with_target, skip));
      const std::string dir =
          FreshDir() + StrFormat("_%d_%d", with_target, skip);
      std::filesystem::remove_all(dir);
      if (with_target) {
        // An interrupted single-process run left a partial target.
        CancelToken token;
        InterruptModel interruptible(model.get(), &token, 3);
        SimulationConfig interrupted = config;
        interrupted.cancel = &token;
        interrupted.checkpoint = Checkpointed(dir, false);
        EXPECT_EQ(RunSimulation(interruptible, context, lexicon, interrupted)
                      .status()
                      .code(),
                  StatusCode::kCancelled);
      }
      std::vector<std::string> paths = {dir + "/" + file_name};
      for (int s = 0; s < 2; ++s) {
        SimulationConfig shard = config;
        shard.checkpoint = Checkpointed(dir, true);
        shard.shard.index = s;
        shard.shard.count = 2;
        ASSERT_TRUE(RunSimulation(*model, context, lexicon, shard).ok());
        paths.push_back(dir + "/" + ShardJournalFileName(file_name, s));
      }
      std::vector<std::optional<std::string>> before;
      for (const std::string& path : paths) before.push_back(BytesOf(path));
      ASSERT_EQ(before[0].has_value(), with_target);

      config.checkpoint = Checkpointed(dir, true);
      config.checkpoint.merge_shards = 2;
      Failpoints::ArmSpec spec;
      spec.skip = skip;
      spec.fires = 1;
      Failpoints::Get().Arm("io.write.write", spec);
      Result<SimulationResult> failed =
          RunSimulation(*model, context, lexicon, config);
      EXPECT_EQ(failed.status().code(), StatusCode::kIOError)
          << failed.status();
      // The writes it let through, then the one that failed: nothing is
      // written or retried after it.
      EXPECT_EQ(Failpoints::Get().HitCount("io.write.write"), skip + 1);
      Failpoints::Get().DisarmAll();

      for (size_t i = 0; i < paths.size(); ++i) {
        EXPECT_EQ(BytesOf(paths[i]), before[i]) << paths[i];
      }
      EXPECT_TRUE(TempFilesIn(dir).empty());

      const std::vector<std::string> stale = PlantStaleTemps(dir, file_name);
      Result<SimulationResult> merged =
          RunSimulation(*model, context, lexicon, config);
      ASSERT_TRUE(merged.ok()) << merged.status();
      ExpectBitIdentical(merged.value(), golden.value());
      EXPECT_EQ(TempFilesIn(dir), stale);
    }
  }
}

}  // namespace
}  // namespace culevo
