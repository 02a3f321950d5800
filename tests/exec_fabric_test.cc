// Fabric supervision and shard-merge tests: spawn the fabric_worker
// helper binary (path injected as FABRIC_WORKER_PATH) across shards of
// the shared FabricTestContext run, inject worker deaths / stalls /
// permanent failures, and verify the merged resume pass reproduces the
// single-process golden result bit-for-bit in every recovery scenario.

#include "exec/fabric.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/copy_mutate.h"
#include "core/simulation.h"
#include "fabric_test_context.h"
#include "lexicon/world_lexicon.h"
#include "obs/metrics.h"
#include "util/cancel.h"
#include "util/check.h"
#include "util/failpoint.h"

namespace culevo {
namespace {

constexpr int kReplicas = 7;
constexpr uint64_t kSeed = 77;

class FabricTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoints::Get().DisarmAll(); }

  std::string FreshDir() {
    const std::string dir =
        ::testing::TempDir() + "/culevo_fabric_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir);
    return dir;
  }

  /// The single-process result every recovery path must reproduce.
  const SimulationResult& Golden() {
    static const SimulationResult golden = [] {
      const Lexicon& lexicon = WorldLexicon();
      const auto model = MakeCmR(&lexicon);
      SimulationConfig config;
      config.replicas = kReplicas;
      config.seed = kSeed;
      Result<SimulationResult> result =
          RunSimulation(*model, FabricTestContext(), lexicon, config);
      CULEVO_CHECK_OK(result.status());
      return std::move(result).value();
    }();
    return golden;
  }

  static std::vector<std::string> WorkerArgv(
      const std::string& dir, int workers,
      std::vector<std::string> extra = {}) {
    std::vector<std::string> argv = {
        FABRIC_WORKER_PATH,
        "--checkpoint", dir,
        "--replicas", std::to_string(kReplicas),
        "--seed", std::to_string(kSeed),
        "--workers", std::to_string(workers),
    };
    for (std::string& arg : extra) argv.push_back(std::move(arg));
    return argv;
  }

  static FabricOptions FastFabric(const std::string& dir, int workers) {
    FabricOptions options;
    options.workers = workers;
    options.checkpoint_dir = dir;
    options.retry_backoff_ms = 10;
    options.retry_backoff_cap_ms = 100;
    options.poll_ms = 5;
    return options;
  }

  /// The coordinator's final pass: merge the shard journals, resume the
  /// remainder in-process, return the whole-run result.
  static Result<SimulationResult> RunMerged(const std::string& dir,
                                            int workers) {
    const Lexicon& lexicon = WorldLexicon();
    const auto model = MakeCmR(&lexicon);
    SimulationConfig config;
    config.replicas = kReplicas;
    config.seed = kSeed;
    config.checkpoint.directory = dir;
    config.checkpoint.resume = true;
    config.checkpoint.sync = false;
    config.checkpoint.merge_shards = workers;
    return RunSimulation(*model, FabricTestContext(), lexicon, config);
  }

  /// One shard of the run computed in this process (no subprocess), for
  /// the merge-layer tests that need direct control over shard journals.
  static Result<SimulationResult> RunShardInProcess(const std::string& dir,
                                                    int index, int count,
                                                    uint64_t seed = kSeed) {
    const Lexicon& lexicon = WorldLexicon();
    const auto model = MakeCmR(&lexicon);
    SimulationConfig config;
    config.replicas = kReplicas;
    config.seed = seed;
    config.checkpoint.directory = dir;
    config.checkpoint.resume = true;
    config.checkpoint.sync = false;
    config.shard.index = index;
    config.shard.count = count;
    return RunSimulation(*model, FabricTestContext(), lexicon, config);
  }

  static std::string FindShardJournal(const std::string& dir, int shard) {
    const std::string token = ".shard" + std::to_string(shard) + ".";
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      if (name.find(token) != std::string::npos) return entry.path().string();
    }
    return "";
  }

  static int64_t ReplicasRun() {
    return obs::MetricsRegistry::Get().counter("sim.replicas_run")->Value();
  }

  void ExpectBitIdentical(const SimulationResult& merged) {
    EXPECT_EQ(merged.ingredient_curve.values(),
              Golden().ingredient_curve.values());
    EXPECT_EQ(merged.category_curve.values(),
              Golden().category_curve.values());
    EXPECT_EQ(merged.report.replicas_requested,
              Golden().report.replicas_requested);
    EXPECT_EQ(merged.report.replicas_succeeded,
              Golden().report.replicas_succeeded);
    EXPECT_EQ(merged.report.replicas_failed, Golden().report.replicas_failed);
  }
};

TEST_F(FabricTest, CleanShardedRunMatchesGolden) {
  const std::string dir = FreshDir();
  Result<FabricReport> report =
      RunWorkerFabric(WorkerArgv(dir, 3), FastFabric(dir, 3));
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->shards_completed, 3);
  EXPECT_EQ(report->shards_failed, 0);
  EXPECT_FALSE(report->degraded());
  EXPECT_EQ(report->total_retries(), 0);

  Result<SimulationResult> merged = RunMerged(dir, 3);
  ASSERT_TRUE(merged.ok()) << merged.status();
  ExpectBitIdentical(merged.value());
}

// The acceptance scenario's first leg: a worker SIGKILLed mid-shard (via
// the coordinator-side failpoint) is re-dispatched, resumes its own shard
// journal, and the merged output is still bit-identical.
TEST_F(FabricTest, SigkilledWorkerIsRedispatchedAndRecovers) {
  const std::string dir = FreshDir();
  Failpoints::ArmSpec spec;
  spec.fires = 1;  // exactly one worker killed, exactly once
  spec.skip = 3;   // let a few supervision ticks pass first
  Failpoints::Get().Arm("exec.fabric.kill_worker", spec);

  // The linger keeps workers alive across enough supervision ticks that
  // the kill is guaranteed to land on a live process.
  Result<FabricReport> report = RunWorkerFabric(
      WorkerArgv(dir, 3, {"--linger-ms", "500"}), FastFabric(dir, 3));
  Failpoints::Get().DisarmAll();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->shards_completed, 3);
  EXPECT_GE(report->total_retries(), 1);
  ASSERT_FALSE(report->incidents.empty());

  Result<SimulationResult> merged = RunMerged(dir, 3);
  ASSERT_TRUE(merged.ok()) << merged.status();
  ExpectBitIdentical(merged.value());
}

TEST_F(FabricTest, CrashedWorkerRetriesWithinBudget) {
  const std::string dir = FreshDir();
  Result<FabricReport> report = RunWorkerFabric(
      WorkerArgv(dir, 3, {"--fail-shard", "1"}), FastFabric(dir, 3));
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->shards_completed, 3);
  EXPECT_FALSE(report->degraded());
  // The transient crash of shard 1 must be on the ledger as a recovered
  // incident, not silently absorbed.
  ASSERT_EQ(report->incidents.size(), 1u);
  EXPECT_EQ(report->incidents[0].shard, 1);
  EXPECT_TRUE(report->incidents[0].status.ok());
  EXPECT_GE(report->incidents[0].retries, 1);

  Result<SimulationResult> merged = RunMerged(dir, 3);
  ASSERT_TRUE(merged.ok()) << merged.status();
  ExpectBitIdentical(merged.value());
}

// The acceptance scenario's second leg: a worker that hangs past stall_ms
// is presumed dead, SIGKILLed, and re-dispatched; the fresh attempt picks
// up the stalled shard's journal.
TEST_F(FabricTest, StalledWorkerIsKilledAndRedispatched) {
  const std::string dir = FreshDir();
  FabricOptions options = FastFabric(dir, 3);
  options.stall_ms = 800;
  const int64_t stalls_before =
      obs::MetricsRegistry::Get().counter("exec.worker_stalls")->Value();

  Result<FabricReport> report = RunWorkerFabric(
      WorkerArgv(dir, 3, {"--stall-shard", "0"}), options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->shards_completed, 3);
  EXPECT_GE(report->total_retries(), 1);
  EXPECT_GE(
      obs::MetricsRegistry::Get().counter("exec.worker_stalls")->Value(),
      stalls_before + 1);

  Result<SimulationResult> merged = RunMerged(dir, 3);
  ASSERT_TRUE(merged.ok()) << merged.status();
  ExpectBitIdentical(merged.value());
}

TEST_F(FabricTest, PermanentShardFailureFailsFast) {
  const std::string dir = FreshDir();
  FabricOptions options = FastFabric(dir, 3);
  options.max_worker_retries = 1;
  Result<FabricReport> report = RunWorkerFabric(
      WorkerArgv(dir, 3, {"--fail-shard-always", "2"}), options);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().message().find("failed permanently"),
            std::string::npos)
      << report.status();
}

// tolerate_k at worker granularity: a permanently dead shard is tolerated
// and its units are recovered by the coordinator's merge + resume pass —
// straggler recovery, with the final output still complete.
TEST_F(FabricTest, TolerateKRecoversFailedShardUnits) {
  const std::string dir = FreshDir();
  FabricOptions options = FastFabric(dir, 3);
  options.max_worker_retries = 1;
  options.tolerate_k = 1;
  Result<FabricReport> report = RunWorkerFabric(
      WorkerArgv(dir, 3, {"--fail-shard-always", "2"}), options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->degraded());
  EXPECT_EQ(report->shards_failed, 1);
  EXPECT_EQ(report->shards_completed, 2);

  // Shard 2 owns replicas 2 and 5 (unit % 3 == 2); the merged resume must
  // re-run exactly those and nothing the surviving shards completed.
  const int64_t before = ReplicasRun();
  Result<SimulationResult> merged = RunMerged(dir, 3);
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ(ReplicasRun() - before, 2);
  ExpectBitIdentical(merged.value());
}

TEST_F(FabricTest, MergeRefusesForeignShardJournal) {
  const std::string dir = FreshDir();
  // A shard journal from a DIFFERENT run (other master seed) in the same
  // directory: the merge pass must refuse it via the manifest matrix, not
  // silently blend two runs.
  ASSERT_TRUE(RunShardInProcess(dir, 0, 2, kSeed + 1).ok());
  const Lexicon& lexicon = WorldLexicon();
  const auto model = MakeCmR(&lexicon);
  SimulationConfig config;
  config.replicas = kReplicas;
  config.seed = kSeed;
  config.checkpoint.directory = dir;
  config.checkpoint.resume = true;
  config.checkpoint.sync = false;
  config.checkpoint.merge_shards = 2;
  Result<SimulationResult> merged =
      RunSimulation(*model, FabricTestContext(), lexicon, config);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kFailedPrecondition)
      << merged.status();
}

// A shard journal truncated mid-record (torn final append, e.g. a worker
// killed inside the write) loses exactly that record: the merge salvages
// the intact prefix and the resume pass re-runs only the lost replica.
TEST_F(FabricTest, TruncatedShardTailSalvagedOnMerge) {
  const std::string dir = FreshDir();
  ASSERT_TRUE(RunShardInProcess(dir, 0, 2).ok());  // owns 0, 2, 4, 6
  ASSERT_TRUE(RunShardInProcess(dir, 1, 2).ok());  // owns 1, 3, 5

  const std::string shard0 = FindShardJournal(dir, 0);
  ASSERT_FALSE(shard0.empty());
  const auto size = std::filesystem::file_size(shard0);
  ASSERT_GT(size, 10u);
  std::filesystem::resize_file(shard0, size - 10);  // tear the last record

  const int64_t before = ReplicasRun();
  Result<SimulationResult> merged = RunMerged(dir, 2);
  ASSERT_TRUE(merged.ok()) << merged.status();
  // Only the torn replica (shard 0's last append) re-ran.
  EXPECT_EQ(ReplicasRun() - before, 1);
  ExpectBitIdentical(merged.value());
}

// The issue's acceptance scenario in one run: four workers, one SIGKILLed
// mid-shard (coordinator failpoint) and one stalled past stall_ms (worker
// failpoint). The fabric recovers both, the retries land in the incident
// ledger, and the merged output is byte-identical to the single-process
// run.
TEST_F(FabricTest, KillAndStallAcrossFourWorkersStaysBitIdentical) {
  const std::string dir = FreshDir();
  FabricOptions options = FastFabric(dir, 4);
  options.stall_ms = 800;
  Failpoints::ArmSpec spec;
  spec.skip = 3;   // a few supervision ticks of clean running first
  spec.fires = 1;  // one SIGKILL, one victim
  Failpoints::Get().Arm("exec.fabric.kill_worker", spec);

  // All four workers linger past the kill tick, so the SIGKILL lands on a
  // live worker (shard 0, first in the scan) while shard 1 later hangs on
  // its own failpoint — two distinct recoveries in one fabric run.
  Result<FabricReport> report = RunWorkerFabric(
      WorkerArgv(dir, 4, {"--stall-shard", "1", "--linger-ms", "400"}),
      options);
  Failpoints::Get().DisarmAll();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->shards_completed, 4);
  EXPECT_FALSE(report->degraded());
  EXPECT_GE(report->total_retries(), 2);
  EXPECT_GE(report->incidents.size(), 2u);

  Result<SimulationResult> merged = RunMerged(dir, 4);
  ASSERT_TRUE(merged.ok()) << merged.status();
  ExpectBitIdentical(merged.value());
}

// Salvage under concurrent writers: two shards journal in parallel while
// an armed ckpt.write.record failpoint tears exactly one append. The
// affected shard's run fails, its journal keeps the durable prefix, and
// the merge + resume re-runs only the replica whose record was lost.
TEST_F(FabricTest, ConcurrentShardWriterTornRecordSalvaged) {
  const std::string dir = FreshDir();
  Failpoints::ArmSpec spec;
  spec.skip = 2;   // let both writers land some records first
  spec.fires = 1;  // exactly one torn append across the two shards
  Failpoints::Get().Arm("ckpt.write.record", spec);

  Result<SimulationResult> results[2] = {
      Status::Internal("shard 0 never ran"),
      Status::Internal("shard 1 never ran")};
  std::thread shard0(
      [&] { results[0] = RunShardInProcess(dir, 0, 2); });
  std::thread shard1(
      [&] { results[1] = RunShardInProcess(dir, 1, 2); });
  shard0.join();
  shard1.join();
  Failpoints::Get().DisarmAll();

  // Exactly one shard hit the injected append failure and failed its run;
  // the other completed.
  const int failures = static_cast<int>(!results[0].ok()) +
                       static_cast<int>(!results[1].ok());
  ASSERT_EQ(failures, 1);

  const int64_t before = ReplicasRun();
  Result<SimulationResult> merged = RunMerged(dir, 2);
  ASSERT_TRUE(merged.ok()) << merged.status();
  // Every replica ran in the concurrent phase; only the one whose record
  // was torn lost its journal entry and re-runs here.
  EXPECT_EQ(ReplicasRun() - before, 1);
  ExpectBitIdentical(merged.value());
}

// Cancelling the coordinator kills every live worker and returns
// kCancelled at once, even with a worker hung far inside the stall
// cutoff. Killing for a cancel is no worker failure.
TEST_F(FabricTest, CancelKillsWorkersAndReturnsCancelled) {
  const std::string dir = FreshDir();
  CancelToken cancel;
  FabricOptions options = FastFabric(dir, 3);
  options.stall_ms = 60000;
  options.cancel = &cancel;
  obs::Counter* failures =
      obs::MetricsRegistry::Get().counter("exec.worker_failures");
  const int64_t failures_before = failures->Value();

  std::thread canceller([&cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    cancel.Cancel();
  });
  const auto start = std::chrono::steady_clock::now();
  Result<FabricReport> report = RunWorkerFabric(
      WorkerArgv(dir, 3, {"--stall-shard", "0"}), options);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  canceller.join();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kCancelled)
      << report.status();
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  EXPECT_EQ(failures->Value(), failures_before);
}

}  // namespace
}  // namespace culevo
