// culevod: the long-running culevo query server.
//
// Serves concurrent point queries — overrepresentation top-k, recipe
// search, nearest cuisines, usage frequency, bounded on-demand model
// simulation — over a length-prefixed protocol on a local Unix socket
// (service/protocol.h; grammar in service/service_core.h). The corpus is
// an immutable CULEVO-CORPUS snapshot mmap-loaded at startup with all
// query indexes precomputed; SIGHUP re-reads the snapshot path and swaps
// the new generation in RCU-style while in-flight requests finish on the
// old one. SIGINT/SIGTERM drain cleanly: the listener stops accepting,
// workers finish their current request, then the process exits 0.
//
//   culevod --socket /tmp/culevod.sock --load-snapshot corpus.snap
//   culevod --socket /tmp/culevod.sock --scale 0.25 --seed 42   (synth)
//   culevod --supervise --socket ... --load-snapshot ...   (HA serving)
//   culevod --once < requests.txt                 (stdin/stdout, no socket)
//   culevod --client /tmp/culevod.sock < requests.txt
//   culevod --client /tmp/culevod.sock "overrep ITA 5"
//
// Flags: --threads <n> worker threads; --deadline-ms <n> default request
// deadline; --max-inflight <n> admission-control cap;
// --client-read-timeout-ms <n> per-connection frame-read deadline (a
// client stalling mid-frame is disconnected, serve.client_timeouts);
// --delta-path <file> makes SIGHUP apply that CULEVO-DELTA file to the
// serving generation (hot incremental reload) instead of re-reading the
// full snapshot; --brownout-latency-ms <n> enables the latency half of
// the brownout detector; --metrics dumps the metrics registry as JSON on
// exit (serve.* counters and latency histograms).
//
// --supervise re-runs this binary as a supervised child (the same argv
// minus the supervisor flags) and restarts it on crash or probe stall,
// with jittered backoff seeded from the supervisor's pid; see
// service/supervisor.h. Supervisor-only flags: --pidfile <path>,
// --probe-interval-ms, --probe-timeout-ms, --probe-failures,
// --startup-grace-ms, --restart-backoff-ms, --restart-backoff-cap-ms,
// --max-restarts, --silence-child.

#include <chrono>
#include <iostream>
#include <limits>
#include <string>
#include <thread>

#include <unistd.h>

#include "corpus/corpus_snapshot.h"
#include "lexicon/world_lexicon.h"
#include "obs/metrics.h"
#include "obs/metrics_json.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/service_core.h"
#include "service/supervisor.h"
#include "synth/generator.h"
#include "util/flags.h"
#include "util/signal.h"
#include "util/strings.h"

namespace {

using namespace culevo;

CancelToken& GlobalCancel() {
  static CancelToken token;
  return token;
}

int Usage() {
  std::cerr
      << "usage: culevod --socket <path> [--load-snapshot <file>] "
         "[--delta-path <file>]\n"
         "       culevod --once [--load-snapshot <file>]\n"
         "       culevod --supervise --socket <path> [supervisor flags]\n"
         "       culevod --client <socket-path> [request...]\n"
         "flags: --scale <0..1> --seed <n> (synthesize when no snapshot) "
         "--threads <n> --deadline-ms <n> --max-inflight <n> "
         "--client-read-timeout-ms <n> --brownout-latency-ms <n> "
         "--metrics\n"
         "supervisor flags: --pidfile <path> --probe-interval-ms <n> "
         "--probe-timeout-ms <n> --probe-failures <n> --startup-grace-ms <n> "
         "--restart-backoff-ms <n> --restart-backoff-cap-ms <n> "
         "--max-restarts <n> --silence-child\n";
  return 2;
}

/// Builds the core's first snapshot: the `snapshot_path` file when given,
/// a world corpus synthesized with `synth` otherwise.
Status InstallInitial(ServiceCore& core, const std::string& snapshot_path,
                      const SynthConfig& synth) {
  if (!snapshot_path.empty()) return core.LoadFromFile(snapshot_path);
  Result<RecipeCorpus> corpus = SynthesizeWorldCorpus(WorldLexicon(), synth);
  if (!corpus.ok()) return corpus.status();
  return core.InstallCorpus(std::move(*corpus), "<synthetic>");
}

/// `--once`: requests on stdin, responses on stdout, no socket. Exists so
/// tests and scripts can exercise the full request path hermetically.
int RunOnce(ServiceCore& core) {
  std::string line;
  while (std::getline(std::cin, line)) {
    if (Trim(line).empty()) continue;
    std::cout << core.Handle(line);
  }
  return 0;
}

/// `--client <socket>`: ships each request as one frame and prints the
/// response payloads. Requests come from trailing positional arguments
/// when given, each stdin line otherwise. The reference client for the
/// protocol.
int RunClient(const std::string& socket_path,
              const std::vector<std::string>& requests) {
  Result<int> connected = ConnectUnixSocket(socket_path);
  if (!connected.ok()) {
    std::cerr << connected.status() << "\n";
    // A path no socket can have is a usage error.
    return connected.status().code() == StatusCode::kInvalidArgument ? 2 : 1;
  }
  const int fd = connected.value();
  int rc = 0;
  std::string response;
  const auto send_one = [&](const std::string& request) {
    if (Status s = WriteFrame(fd, request); !s.ok()) {
      std::cerr << s << "\n";
      return false;
    }
    if (Status s = ReadFrame(fd, &response); !s.ok()) {
      std::cerr << s << "\n";
      return false;
    }
    std::cout << response;
    return true;
  };
  if (!requests.empty()) {
    for (const std::string& request : requests) {
      if (Trim(request).empty()) continue;
      if (!send_one(request)) {
        rc = 1;
        break;
      }
    }
  } else {
    std::string line;
    while (std::getline(std::cin, line)) {
      if (Trim(line).empty()) continue;
      if (!send_one(line)) {
        rc = 1;
        break;
      }
    }
  }
  ::close(fd);
  return rc;
}

/// `--supervise`: re-exec this binary (argv minus the supervisor-only
/// flags) as the serving child and keep it alive; see
/// service/supervisor.h.
int RunSupervisor(int argc, char** argv, const FlagParser& flags) {
  SupervisorOptions options;
  options.socket_path = flags.GetString("socket", "");
  if (options.socket_path.empty()) return Usage();
  options.probe_interval_ms = flags.GetIntIn("probe-interval-ms", 1000, 1);
  options.probe_timeout_ms = flags.GetIntIn("probe-timeout-ms", 1000, 1);
  options.probe_failures_to_kill = flags.GetIntIn("probe-failures", 3, 1);
  options.startup_grace_ms = flags.GetIntIn("startup-grace-ms", 10000, 1);
  options.restart_backoff_ms = flags.GetIntIn("restart-backoff-ms", 200, 1);
  options.restart_backoff_cap_ms = flags.GetIntIn(
      "restart-backoff-cap-ms", 2000, options.restart_backoff_ms);
  // Any int: a negative count means unlimited.
  options.max_restarts = flags.GetIntIn("max-restarts", -1,
                                        std::numeric_limits<int>::min());
  options.pidfile = flags.GetString("pidfile", "");
  options.silence_child = flags.GetBool("silence-child", false);
  options.cancel = &GlobalCancel();

  // The child's argv is this invocation minus everything only the
  // supervisor consumes. Flag values follow FlagParser's rule: a
  // flag without '=' swallows the next token unless it starts with "--".
  const auto is_supervisor_flag = [](const std::string& name) {
    return name == "--supervise" || name == "--pidfile" ||
           name == "--probe-interval-ms" || name == "--probe-timeout-ms" ||
           name == "--probe-failures" || name == "--startup-grace-ms" ||
           name == "--restart-backoff-ms" ||
           name == "--restart-backoff-cap-ms" || name == "--max-restarts" ||
           name == "--silence-child";
  };
  options.child_argv.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string name = arg.substr(0, arg.find('='));
    if (is_supervisor_flag(name)) {
      if (arg.find('=') == std::string::npos && i + 1 < argc &&
          !StartsWith(argv[i + 1], "--")) {
        ++i;  // the flag's value token
      }
      continue;
    }
    options.child_argv.push_back(arg);
  }

  InstallReloadHandler();  // forwarded to the child, not handled here
  Result<SupervisorReport> report = SuperviseServer(options);
  if (!report.ok()) {
    std::cerr << report.status() << "\n";
    return 1;
  }
  std::cerr << "culevod supervisor done: " << report->restarts
            << " restart(s), " << report->probe_failures
            << " failed probe(s)\n";
  return 0;
}

/// Server mode: accept loop until SIGINT/SIGTERM. SIGHUP applies the
/// `delta_path` CULEVO-DELTA file to the serving generation when given
/// (hot incremental reload), and re-reads `snapshot_path` otherwise.
int RunServer(ServiceCore& core, const ServerOptions& server_options,
              const std::string& snapshot_path,
              const std::string& delta_path) {
  SocketServer server(&core, server_options);
  if (Status s = server.Start(); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  std::cerr << "culevod serving on " << server_options.socket_path << " ("
            << server_options.threads << " threads)\n";

  while (!GlobalCancel().ShouldStop()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (!ConsumeReloadRequest()) continue;
    if (snapshot_path.empty() && delta_path.empty()) {
      std::cerr << "SIGHUP ignored: no --load-snapshot or --delta-path to "
                   "reload\n";
      continue;
    }
    // A failed reload keeps the previous generation serving; the error
    // only lands in the log and serve.reload_failures.
    const std::string& source =
        !delta_path.empty() ? delta_path : snapshot_path;
    Status s = !delta_path.empty() ? core.ReloadDelta(delta_path)
                                   : core.LoadFromFile(snapshot_path);
    if (!s.ok()) {
      std::cerr << "reload failed: " << s << "\n";
    } else {
      std::cerr << "reloaded " << source << " (epoch "
                << core.Acquire()->epoch << ")\n";
    }
  }
  server.Stop();
  std::cerr << "culevod drained\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  // Every flag any mode reads; the supervisor's too, since the supervised
  // child is started with the same argv.
  if (Status s = flags.Parse(
          argc, argv,
          {"client", "supervise", "socket", "probe-interval-ms",
           "probe-timeout-ms", "probe-failures", "startup-grace-ms",
           "restart-backoff-ms", "restart-backoff-cap-ms", "max-restarts",
           "pidfile", "silence-child", "once", "metrics", "load-snapshot",
           "delta-path", "scale", "seed", "deadline-ms", "max-inflight",
           "brownout-latency-ms", "threads", "client-read-timeout-ms"});
      !s.ok()) {
    std::cerr << s << "\n";
    return 2;
  }

  if (flags.Has("client")) {
    return RunClient(flags.GetString("client", ""), flags.positional());
  }

  InstallCancelHandlers(&GlobalCancel());
  // A client closing mid-response must cost one connection, not the
  // process (the write path sees EPIPE instead of a fatal SIGPIPE).
  IgnoreSigPipe();

  // The serving child's out-of-range values are refused here, before
  // --supervise spawns a child that would exit on them again and again.
  SynthConfig synth;
  synth.scale = flags.GetDouble("scale", 0.25);
  if (!(synth.scale > 0 && synth.scale <= 1)) flags.RefuseValue("scale");
  ServiceOptions options;
  options.max_inflight = flags.GetIntIn("max-inflight", 256, 1);
  ServerOptions server_options;
  server_options.threads = flags.GetIntIn("threads", 4, 1);
  // Any int: a value of 0 or below turns the read deadline off.
  server_options.client_read_timeout_ms = flags.GetIntIn(
      "client-read-timeout-ms", 5000, std::numeric_limits<int>::min());

  if (flags.GetBool("supervise", false)) {
    return RunSupervisor(argc, argv, flags);
  }

  // Every flag is read before the cold start, so a malformed value or a
  // missing --socket exits 2 without loading or synthesizing a corpus.
  const bool once = flags.GetBool("once", false);
  const bool dump_metrics = flags.GetBool("metrics", false);
  const std::string snapshot_path = flags.GetString("load-snapshot", "");
  const std::string delta_path = flags.GetString("delta-path", "");
  synth.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  options.default_deadline_ms = flags.GetInt("deadline-ms", 250);
  options.brownout_latency_ms = flags.GetDouble("brownout-latency-ms", 0);
  server_options.socket_path = flags.GetString("socket", "");
  if (!once && server_options.socket_path.empty()) return Usage();

  // SIGHUP's default action ends the process. The server catches it
  // before the corpus load, so a reload request that arrives during
  // startup waits for the serve loop instead of killing the server.
  if (!once) InstallReloadHandler();

  ServiceCore core(&WorldLexicon(), options);
  if (Status s = InstallInitial(core, snapshot_path, synth); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  {
    // Scoped: a pointer held for the rest of main would pin this first
    // generation (and its mapped snapshot) across every later reload.
    const auto snapshot = core.Acquire();
    std::cerr << "corpus ready: " << snapshot->corpus.num_recipes()
              << " recipes from " << snapshot->source << "\n";
  }

  const int rc =
      once ? RunOnce(core)
           : RunServer(core, server_options, snapshot_path, delta_path);
  if (dump_metrics) {
    std::cout << obs::MetricsSnapshotToJson(
                     obs::MetricsRegistry::Get().Snapshot())
              << "\n";
  }
  return rc;
}
