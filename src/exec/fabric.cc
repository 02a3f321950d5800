#include "exec/fabric.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <thread>

#include "obs/metrics.h"
#include "util/failpoint.h"
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
  explicit ShardState(RestartPacer shard_pacer) : pacer(shard_pacer) {}

  Subprocess process;
  RestartPacer pacer;  ///< retries used = pacer.restarts()
  bool completed = false;
  bool failed = false;
  int64_t last_bytes = -1;
  Clock::time_point last_change;
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
  // Each shard paces its own re-dispatches, with the jitter seeded from
  // the coordinator's pid and the shard.
  const uint64_t jitter_seed =
      DeriveSeed(0xFAB81Cull, static_cast<uint64_t>(::getpid()));
  std::vector<ShardState> shards;
  shards.reserve(static_cast<size_t>(n));
  for (int s = 0; s < n; ++s) {
    shards.emplace_back(
        RestartPacer(options.max_worker_retries,
                     std::chrono::milliseconds(options.retry_backoff_ms),
                     std::chrono::milliseconds(options.retry_backoff_cap_ms),
                     DeriveSeed(jitter_seed, static_cast<uint64_t>(s))));
  }
  FabricReport report;
  report.workers = n;

  const auto kill_all = [&shards] {
    for (ShardState& shard : shards) shard.process.Kill();
  };

  // Handles one worker death (exit, signal, stall-kill or failed spawn):
  // re-dispatch within budget, otherwise a permanent shard failure judged
  // against tolerate_k. Returns non-OK only when the whole fabric must
  // abort.
  const auto on_worker_death = [&](int s, const Status& status) -> Status {
    ShardState& shard = shards[static_cast<size_t>(s)];
    metrics.worker_failures->Increment();
    if (shard.pacer.RecordDeath(Clock::now())) {
      metrics.worker_retries->Increment();
      return Status::Ok();
    }
    shard.failed = true;
    ++report.shards_failed;
    report.incidents.push_back(
        WorkerIncident{s, status, shard.pacer.restarts()});
    if (report.shards_failed > options.tolerate_k) {
      kill_all();
      return Status(status.code(),
                    StrFormat("fabric: shard %d failed permanently after %d "
                              "attempt(s): %s",
                              s, shard.pacer.restarts() + 1,
                              status.message().c_str()));
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

      if (!shard.process.running()) {
        if (Clock::now() < shard.pacer.next_spawn()) continue;
        std::vector<std::string> argv = worker_argv;
        argv.push_back("--worker-shard");
        argv.push_back(std::to_string(s));
        SpawnOptions spawn;
        spawn.silence_stdout = true;
        spawn.silence_stderr = true;
        spawn.extra_env = {
            StrFormat("CULEVO_WORKER_ATTEMPT=%d", shard.pacer.restarts())};
        if (Status spawned = shard.process.Spawn(argv, spawn);
            !spawned.ok()) {
          CULEVO_RETURN_IF_ERROR(on_worker_death(s, spawned));
          continue;
        }
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
        if (state.exited && state.code == 0) {
          shard.completed = true;
          ++report.shards_completed;
          metrics.shards_completed->Increment();
          if (shard.pacer.restarts() > 0) {
            report.incidents.push_back(
                WorkerIncident{s, Status::Ok(), shard.pacer.restarts()});
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
          shard.last_bytes = bytes;
          shard.last_change = Clock::now();
        } else if (Clock::now() - shard.last_change >
                   std::chrono::milliseconds(options.stall_ms)) {
          metrics.worker_stalls->Increment();
          shard.process.Kill();
          CULEVO_RETURN_IF_ERROR(on_worker_death(
              s, Status::DeadlineExceeded(StrFormat(
                     "worker shard %d stalled: no journal progress in %d ms",
                     s, options.stall_ms))));
        }
      }
    }

    if (all_settled) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(options.poll_ms));
  }

  return report;
}

}  // namespace culevo
