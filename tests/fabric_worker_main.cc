// fabric_worker: the worker binary the exec-fabric tests dispatch.
//
// Runs the shared FabricTestContext simulation (CM-R) as one shard of a
// fabric run — the same role culevo_cli plays in production, but with
// scripted failure modes for the supervision tests:
//
//   --fail-shard <s>         shard s exits 3 on its first attempt only
//                            (transient crash; the re-dispatch succeeds)
//   --fail-shard-always <s>  shard s exits 3 on every attempt
//                            (permanent failure; exhausts the retry budget)
//   --stall-shard <s>        shard s hangs after one replica on its first
//                            attempt (arms the exec.worker.stall
//                            failpoint; the coordinator's stall detector
//                            must SIGKILL and re-dispatch it)
//   --linger-ms <n>          sleep n ms before the run. The context is
//                            small enough that workers can finish inside
//                            a couple of supervision ticks; lingering
//                            keeps them alive long enough for the
//                            coordinator-side kill tests to hit a live
//                            process deterministically.
//
// The attempt number arrives via CULEVO_WORKER_ATTEMPT, exported by the
// fabric per spawn, so "first attempt only" needs no on-disk state.

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "core/copy_mutate.h"
#include "core/simulation.h"
#include "fabric_test_context.h"
#include "lexicon/world_lexicon.h"
#include "util/failpoint.h"
#include "util/flags.h"

namespace {

using namespace culevo;

int Run(int argc, char** argv) {
  FlagParser flags;
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::cerr << s << "\n";
    return 2;
  }
  const int shard = static_cast<int>(flags.GetInt("worker-shard", 0));
  const int workers = static_cast<int>(flags.GetInt("workers", 1));
  const char* attempt_env = std::getenv("CULEVO_WORKER_ATTEMPT");
  const int attempt = attempt_env != nullptr ? std::atoi(attempt_env) : 0;

  if (shard == flags.GetInt("fail-shard-always", -1)) return 3;
  if (attempt == 0) {
    if (shard == flags.GetInt("fail-shard", -1)) return 3;
    if (shard == flags.GetInt("stall-shard", -1)) {
      Failpoints::ArmSpec spec;
      spec.skip = 1;  // one replica lands in the journal, then the hang
      Failpoints::Get().Arm("exec.worker.stall", spec);
    }
  }

  const int64_t linger_ms = flags.GetInt("linger-ms", 0);
  if (linger_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(linger_ms));
  }

  const Lexicon& lexicon = WorldLexicon();
  const auto model = MakeCmR(&lexicon);
  SimulationConfig config;
  config.replicas = static_cast<int>(flags.GetInt("replicas", 7));
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 77));
  config.checkpoint.directory = flags.GetString("checkpoint", "");
  config.checkpoint.resume = true;
  config.checkpoint.sync = false;
  config.shard.index = shard;
  config.shard.count = workers;
  Result<SimulationResult> result =
      RunSimulation(*model, FabricTestContext(), lexicon, config);
  if (!result.ok()) {
    std::cerr << result.status() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
