#ifndef CULEVO_EXEC_FABRIC_H_
#define CULEVO_EXEC_FABRIC_H_

#include <string>
#include <vector>

#include "core/simulation.h"
#include "util/cancel.h"
#include "util/status.h"
#include "util/subprocess.h"

namespace culevo {

/// Coordinator-side settings for one fabric run (see RunWorkerFabric).
struct FabricOptions {
  /// Worker processes == shards. Each worker s computes the units with
  /// `unit % workers == s` (ShardSpec round-robin).
  int workers = 1;
  /// The run's checkpoint directory. Doubles as the heartbeat channel:
  /// progress is the total size of this directory's `.shard<s>.` files,
  /// which grows on every journal append. Required.
  std::string checkpoint_dir;
  /// A worker whose shard journals grow by nothing for this long is
  /// presumed hung, SIGKILLed, and re-dispatched. Must comfortably exceed
  /// the worst per-unit compute time (a worker mid-replica makes no
  /// journal progress while healthy). <= 0 disables stall detection.
  int stall_ms = 30000;
  /// Re-dispatch budget per shard beyond the first attempt. A re-spawned
  /// worker resumes its own shard journal, so completed units are never
  /// re-run — only the interrupted remainder.
  int max_worker_retries = 2;
  /// Decorrelated-jitter backoff between re-dispatches of the same shard
  /// (each shard's RestartPacer, util/subprocess.h): the first retry waits
  /// uniform in [base, 3·base], each later one uniform in [base, 3 × the
  /// previous wait], never more than the cap. The jitter is seeded from
  /// the coordinator's pid and the shard.
  int retry_backoff_ms = 250;
  int retry_backoff_cap_ms = 5000;
  /// Shard fault budget: how many shards may fail permanently. With 0
  /// (fail-fast) a shard that exhausts its retries kills the remaining
  /// workers and fails the fabric. With k > 0 up to k shards may die
  /// permanently — their unfinished units are recovered by the
  /// coordinator's merge + resume pass (straggler recovery), so the final
  /// output is still complete and bit-identical.
  int tolerate_k = 0;
  /// Supervision tick. Each tick reaps exits, samples heartbeats, and
  /// evaluates the `exec.fabric.kill_worker` failpoint once per live
  /// worker (the fault-injection hook used by the SIGKILL tests).
  int poll_ms = 15;
  /// Cooperative cancellation: a tripped token kills all workers and
  /// returns kCancelled / kDeadlineExceeded.
  const CancelToken* cancel = nullptr;
};

/// One shard that needed attention. An OK status means the shard
/// recovered via re-dispatch; a non-OK one is a permanent shard failure
/// (tolerated or fatal per tolerate_k).
struct WorkerIncident {
  int shard = -1;
  Status status;
  int retries = 0;
};

/// Supervision ledger of one fabric run. Deliberately separate from the
/// run's RunReport: worker deaths are execution-environment noise, and
/// folding them into the replica counts would break the bit-identity of
/// the merged report against a single-process run.
struct FabricReport {
  int workers = 0;
  int shards_completed = 0;
  int shards_failed = 0;
  std::vector<WorkerIncident> incidents;

  bool degraded() const { return shards_failed > 0; }
  int total_retries() const;
};

/// Compact JSON rendering (for CLI/bench telemetry).
std::string FabricReportToJson(const FabricReport& report);

/// Runs `worker_argv` + `--worker-shard <s>` once per shard s in
/// [0, options.workers), supervising the children until every shard
/// completes, fails permanently, or the policy aborts the run:
///
///  - exit 0            → shard complete; never re-dispatched.
///  - exit != 0 / signal → re-dispatched with decorrelated-jitter backoff
///                         while the retry budget lasts.
///  - journal progress stalls past `stall_ms` → SIGKILL + re-dispatch.
///
/// Workers inherit the coordinator's environment (including
/// CULEVO_FAILPOINTS) plus CULEVO_WORKER_ATTEMPT=<a>, so tests can arm
/// per-attempt behaviour.
/// Worker stdout and stderr go to /dev/null: N workers interleaving on
/// the coordinator's terminal help nobody, and results flow exclusively
/// through the shard journals, which the caller merges afterwards by
/// re-running the command in-process with CheckpointOptions::merge_shards
/// (see run_journal.h).
Result<FabricReport> RunWorkerFabric(
    const std::vector<std::string>& worker_argv, const FabricOptions& options);

}  // namespace culevo

#endif  // CULEVO_EXEC_FABRIC_H_
