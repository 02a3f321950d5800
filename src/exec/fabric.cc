#include "exec/fabric.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <thread>

#include "obs/metrics.h"
#include "util/failpoint.h"
#include "util/file_io.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/strings.h"

namespace culevo {
namespace {

using Clock = std::chrono::steady_clock;

struct FabricMetrics {
  obs::Counter* workers_spawned;
  obs::Counter* worker_retries;
  obs::Counter* worker_stalls;
  obs::Counter* worker_failures;
  obs::Counter* shards_completed;

  static const FabricMetrics& Get() {
    static const FabricMetrics metrics = {
        obs::MetricsRegistry::Get().counter("exec.workers_spawned"),
        obs::MetricsRegistry::Get().counter("exec.worker_retries"),
        obs::MetricsRegistry::Get().counter("exec.worker_stalls"),
        obs::MetricsRegistry::Get().counter("exec.worker_failures"),
        obs::MetricsRegistry::Get().counter("exec.shards_completed"),
    };
    return metrics;
  }
};

/// The heartbeat: total bytes of every file in `dir` whose name contains
/// `token` (".shard<s>."). Each journal append grows the shard file by one
/// record, so any live worker grows this number between appends;
/// a worker that is computing (not journaling) holds it flat, which is
/// why stall_ms must dominate per-unit compute time.
int64_t ShardProgressBytes(const std::string& dir, const std::string& token) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0;
  int64_t total = 0;
  while (struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name.find(token) == std::string::npos) continue;
    struct stat st;
    if (::stat((dir + "/" + name).c_str(), &st) == 0) {
      total += static_cast<int64_t>(st.st_size);
    }
  }
  ::closedir(d);
  return total;
}

/// Per-shard supervision state.
struct ShardState {
  Subprocess process;
  bool running = false;
  bool completed = false;
  bool failed = false;
  int spawns = 0;  ///< attempts so far; retries used = spawns - 1
  Status last_status;
  int64_t last_bytes = -1;
  Clock::time_point last_change;
  Clock::time_point next_dispatch;  ///< backoff gate for the next spawn
  std::chrono::milliseconds backoff{0};  ///< the last backoff delay
};

}  // namespace

int FabricReport::total_retries() const {
  int total = 0;
  for (const WorkerIncident& incident : incidents) {
    total += incident.retries;
  }
  return total;
}

std::string FabricReportToJson(const FabricReport& report) {
  JsonWriter json;
  json.BeginObject();
  json.Key("workers");
  json.Int(report.workers);
  json.Key("shards_completed");
  json.Int(report.shards_completed);
  json.Key("shards_failed");
  json.Int(report.shards_failed);
  json.Key("total_retries");
  json.Int(report.total_retries());
  json.Key("degraded");
  json.Bool(report.degraded());
  json.Key("incidents");
  json.BeginArray();
  for (const WorkerIncident& incident : report.incidents) {
    json.BeginObject();
    json.Key("shard");
    json.Int(incident.shard);
    json.Key("status");
    json.String(incident.status.ToString());
    json.Key("retries");
    json.Int(incident.retries);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return std::move(json).Take();
}

Result<FabricReport> RunWorkerFabric(
    const std::vector<std::string>& worker_argv,
    const FabricOptions& options) {
  if (worker_argv.empty()) {
    return Status::InvalidArgument("fabric: empty worker argv");
  }
  if (options.workers < 1) {
    return Status::InvalidArgument("fabric: workers must be >= 1");
  }
  if (options.checkpoint_dir.empty()) {
    return Status::InvalidArgument(
        "fabric: a checkpoint directory is required (it carries both the "
        "shard journals and the progress heartbeats)");
  }
  if (options.max_worker_retries < 0 || options.tolerate_k < 0) {
    return Status::InvalidArgument(
        "fabric: retry/tolerate budgets must be >= 0");
  }

  const FabricMetrics& metrics = FabricMetrics::Get();
  const int n = options.workers;
  std::vector<ShardState> shards(static_cast<size_t>(n));
  FabricReport report;
  report.workers = n;

  // One estimator across all shards: units are round-robin sharded, so
  // every worker sees the same unit population and one per-unit rhythm
  // describes them all (and slow workloads pool their samples faster).
  StallEstimator stall_estimator(options.stall_ms,
                                 options.adaptive_stall_multiplier);
  static obs::Gauge* stall_cutoff_gauge =
      obs::MetricsRegistry::Get().gauge("exec.stall_cutoff_ms");

  const auto kill_all = [&shards] {
    for (ShardState& shard : shards) {
      if (shard.running) {
        shard.process.Kill();
        shard.running = false;
      }
    }
  };

  // Decorrelated-jitter backoff between re-dispatches (the supervisor's
  // and WriteFileAtomic's policy), seeded from the pid like theirs.
  const std::chrono::milliseconds backoff_base(options.retry_backoff_ms);
  const std::chrono::milliseconds backoff_cap(options.retry_backoff_cap_ms);
  Rng backoff_rng(DeriveSeed(0xFAB81Cull, static_cast<uint64_t>(::getpid())));

  // Handles one worker death (exit, signal, or stall-kill): re-dispatch
  // within budget, otherwise a permanent shard failure judged by the
  // failure policy. Returns non-OK only when the whole fabric must abort.
  const auto on_worker_death = [&](int s, Status status) -> Status {
    ShardState& shard = shards[static_cast<size_t>(s)];
    shard.running = false;
    shard.last_status = std::move(status);
    metrics.worker_failures->Increment();
    if (shard.spawns - 1 < options.max_worker_retries) {
      metrics.worker_retries->Increment();
      shard.backoff = NextBackoffDelay(
          backoff_base, shard.spawns == 1 ? backoff_base : shard.backoff,
          backoff_cap, &backoff_rng);
      shard.next_dispatch = Clock::now() + shard.backoff;
      return Status::Ok();
    }
    shard.failed = true;
    ++report.shards_failed;
    report.incidents.push_back(
        WorkerIncident{s, shard.last_status, shard.spawns - 1});
    if (options.failure_policy == FailurePolicy::kFailFast ||
        report.shards_failed > options.tolerate_k) {
      kill_all();
      return Status(shard.last_status.code(),
                    StrFormat("fabric: shard %d failed permanently after %d "
                              "attempt(s): %s",
                              s, shard.spawns,
                              shard.last_status.message().c_str()));
    }
    // Tolerated: the merge + resume pass recovers this shard's units.
    return Status::Ok();
  };

  for (;;) {
    if (Status cancelled = CancelToken::Check(options.cancel);
        !cancelled.ok()) {
      kill_all();
      return cancelled;
    }

    bool all_settled = true;
    for (int s = 0; s < n; ++s) {
      ShardState& shard = shards[static_cast<size_t>(s)];
      if (shard.completed || shard.failed) continue;
      all_settled = false;

      if (!shard.running) {
        if (Clock::now() < shard.next_dispatch) continue;
        std::vector<std::string> argv = worker_argv;
        argv.push_back("--worker-shard");
        argv.push_back(std::to_string(s));
        SpawnOptions spawn;
        spawn.silence_stdout = options.silence_worker_output;
        spawn.silence_stderr = options.silence_worker_output;
        spawn.extra_env = {
            StrFormat("CULEVO_WORKER_SHARD=%d", s),
            StrFormat("CULEVO_WORKER_ATTEMPT=%d", shard.spawns),
        };
        if (Status spawned = shard.process.Spawn(argv, spawn);
            !spawned.ok()) {
          // fork failure — treat like a worker death so the backoff and
          // retry budget apply instead of a tight respawn loop.
          ++shard.spawns;
          CULEVO_RETURN_IF_ERROR(on_worker_death(s, spawned));
          continue;
        }
        ++shard.spawns;
        shard.running = true;
        shard.last_bytes = -1;
        shard.last_change = Clock::now();
        metrics.workers_spawned->Increment();
        continue;
      }

      // Coordinator-side fault injection: an armed exec.fabric.kill_worker
      // SIGKILLs this live worker at the failpoint-chosen supervision
      // tick; the death is then handled by the regular reap path below.
      if (!FailpointCheck("exec.fabric.kill_worker").ok()) {
        shard.process.Kill();
      }

      ExitState state;
      if (shard.process.TryWait(&state)) {
        shard.process = Subprocess();  // release the reaped handle
        if (state.exited && state.code == 0) {
          shard.running = false;
          shard.completed = true;
          ++report.shards_completed;
          metrics.shards_completed->Increment();
          if (shard.spawns > 1) {
            report.incidents.push_back(
                WorkerIncident{s, Status::Ok(), shard.spawns - 1});
          }
        } else {
          CULEVO_RETURN_IF_ERROR(on_worker_death(
              s, state.ToStatus(StrFormat("worker shard %d", s))));
        }
        continue;
      }

      if (options.stall_ms > 0) {
        const int64_t bytes = ShardProgressBytes(
            options.checkpoint_dir, StrFormat(".shard%d.", s));
        if (bytes != shard.last_bytes) {
          // A growth event. The gap since the previous one (not the one
          // following the spawn, which measures process startup) feeds
          // the adaptive cutoff.
          if (shard.last_bytes >= 0) {
            stall_estimator.ObserveGrowthGap(
                std::chrono::duration<double, std::milli>(
                    Clock::now() - shard.last_change)
                    .count());
            stall_cutoff_gauge->Set(
                static_cast<double>(stall_estimator.CutoffMs()));
          }
          shard.last_bytes = bytes;
          shard.last_change = Clock::now();
        } else if (const int64_t cutoff_ms = stall_estimator.CutoffMs();
                   Clock::now() - shard.last_change >
                   std::chrono::milliseconds(cutoff_ms)) {
          metrics.worker_stalls->Increment();
          shard.process.Kill();
          shard.process = Subprocess();
          CULEVO_RETURN_IF_ERROR(on_worker_death(
              s, Status::DeadlineExceeded(StrFormat(
                     "worker shard %d stalled: no journal progress in "
                     "%lld ms (floor %d ms, growth EMA %.1f ms)",
                     s, static_cast<long long>(cutoff_ms), options.stall_ms,
                     stall_estimator.ema_ms()))));
        }
      }
    }

    if (all_settled) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(options.poll_ms));
  }

  return report;
}

}  // namespace culevo
