// culevo_bench: one command for the repository's end-to-end benchmark.
//
//   culevo_bench --workload <serve_lookup|serve_reload|evolve_grid|
//                            evolve_fabric>
//                --seed <n> --seconds <s> --trace <0|1> [--smoke]
//
// Inputs are generated from --seed into a scratch directory under
// .bench_build/ in the working directory; the measured program (culevod,
// or this binary re-executed with --role) receives only those files and
// request frames. The run prints every metric with its unit, the checks
// it made, and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, a self-time table, and a Chrome trace under
// .bench_build/traces/. Exit code 0 when every correctness check passed,
// 1 when one failed, 2 on a bad command line.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "harness.h"
#include "tracer.h"
#include "util/flags.h"
#include "util/strings.h"
#include "workloads.h"

namespace culevo::cbench {

Result<Pinned> LoadPinned(const std::string& path) {
  Result<KeyValues> kv = ReadKeyValues(path);
  if (!kv.ok()) return kv.status();
  Pinned pinned;
  pinned.default_seed = static_cast<uint64_t>(KvNumber(*kv, "default_seed"));
  pinned.nproc = static_cast<unsigned>(KvNumber(*kv, "nproc"));
  const std::string prefix = "grid_digest.";
  for (const auto& [key, values] : *kv) {
    if (key.rfind(prefix, 0) == 0 && values.size() == 1) {
      pinned.grid_digests[std::strtoull(key.c_str() + prefix.size(), nullptr, 10)] =
          values[0];
    }
  }
  if (pinned.default_seed == 0 || pinned.nproc == 0) {
    return Status::InvalidArgument(path + " lacks default_seed or nproc");
  }
  return pinned;
}

}  // namespace culevo::cbench

namespace {

using namespace culevo;
using namespace culevo::cbench;

int Usage(const std::string& why) {
  std::fprintf(stderr,
               "culevo_bench: %s\nusage: culevo_bench --workload "
               "<serve_lookup|serve_reload|evolve_grid|evolve_fabric> "
               "--seed <n> --seconds <s> --trace <0|1> [--smoke]\n",
               why.c_str());
  return 2;
}

std::string SelfExe() {
  std::error_code ec;
  const auto path = std::filesystem::read_symlink("/proc/self/exe", ec);
  return ec ? std::string() : path.string();
}

int Run(int argc, char** argv) {
  FlagParser flags;
  if (Status s = flags.Parse(argc, argv); !s.ok()) return Usage(s.ToString());
  if (flags.Has("role")) {
    return RunEvolveRole(flags.GetString("role", ""), flags);
  }

  RunContext ctx;
  Result<Pinned> pinned = LoadPinned(CULEVO_BENCH_PINNED);
  if (!pinned.ok()) return Usage(pinned.status().ToString());
  ctx.pinned = std::move(*pinned);
  ctx.workload = flags.GetString("workload", "");
  ctx.seed = static_cast<uint64_t>(
      flags.GetInt("seed", static_cast<int64_t>(ctx.pinned.default_seed)));
  ctx.seconds = flags.GetDouble("seconds", 10);
  ctx.trace = flags.GetInt("trace", 0) != 0;
  ctx.smoke = flags.GetBool("smoke", false);
  ctx.corrupt_reference = flags.GetBool("corrupt-reference", false);
  ctx.sizes = ctx.smoke ? Sizes::Smoke() : Sizes();
  ctx.self_exe = SelfExe();
  ctx.cores = std::max(1u, std::thread::hardware_concurrency());
  void (*workload)(const RunContext&, Report*, Tracer*) = nullptr;
  if (ctx.workload == "serve_lookup") workload = RunServeLookup;
  if (ctx.workload == "serve_reload") workload = RunServeReload;
  if (ctx.workload == "evolve_grid") workload = RunEvolveGrid;
  if (ctx.workload == "evolve_fabric") workload = RunEvolveFabric;
  if (workload == nullptr) return Usage("unknown --workload '" + ctx.workload + "'");
  if (!(ctx.seconds > 0 && ctx.seconds <= 600)) return Usage("--seconds must be in (0, 600]");
  if (ctx.self_exe.empty()) return Usage("cannot resolve /proc/self/exe");

  ctx.dir = StrFormat(".bench_build/run-%d", static_cast<int>(::getpid()));
  std::error_code ec;
  std::filesystem::create_directories(ctx.dir, ec);
  if (ec) return Usage("cannot create " + ctx.dir + ": " + ec.message());

  std::printf("# culevo_bench workload=%s seed=%llu seconds=%g trace=%d%s\n",
              ctx.workload.c_str(), static_cast<unsigned long long>(ctx.seed),
              ctx.seconds, ctx.trace ? 1 : 0, ctx.smoke ? " smoke" : "");
  std::printf("# host.cores=%u build=%s (bounds measured on %u cores)\n",
              ctx.cores, CULEVO_BENCH_BUILD_TYPE, ctx.pinned.nproc);
  std::fflush(stdout);

  Report report;
  Tracer tracer(ctx.trace);
  const int64_t t0 = NowNs();
  workload(ctx, &report, &tracer);
  std::filesystem::remove_all(ctx.dir, ec);

  const std::vector<MetricSpec>& catalog =
      ctx.trace ? kPerLayerMetrics : kEndToEndMetrics;
  if (ctx.trace) {
    report.Set("trace.coverage_share", tracer.Coverage());
    tracer.PrintSelfTimeTable(stdout);
    const std::string trace_path =
        StrFormat(".bench_build/traces/%s-seed%llu.json", ctx.workload.c_str(),
                  static_cast<unsigned long long>(ctx.seed));
    std::filesystem::create_directories(".bench_build/traces", ec);
    const Status written = tracer.WriteChromeTrace(trace_path);
    report.Check(written.ok(), "trace write: " + written.ToString());
    std::printf("# trace: %zu spans written to %s\n", tracer.spans().size(),
                trace_path.c_str());
  }
  report.Print(stdout, catalog);
  std::printf("# correct=%s wall=%.1f s\n", report.correct() ? "yes" : "NO",
              static_cast<double>(NowNs() - t0) / 1e9);
  std::printf("%s\n", report.Json(catalog).c_str());
  return report.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
