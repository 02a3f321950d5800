// Chaos soak of the supervised culevod stack (`--supervise`): mixed query
// load against a real supervised server while the child is SIGKILLed,
// reload failpoints fire, and hostile clients stall mid-frame. The
// invariants under all of that:
//
//   1. Zero wrong answers: every `ok` response is bit-identical to the
//      batch answer on either the base corpus (A) or the delta-extended
//      corpus (B) — crashes may cost availability, never correctness.
//   2. Bounded downtime: after each SIGKILL a fresh connection serves
//      again within a hard bound.
//   3. Epochs never move backwards within one child incarnation.
//   4. The hot delta reload swaps generations without re-reading the
//      snapshot (corpus.snapshot.mmap_loads stays flat), and a
//      mismatched-base delta is refused while the old generation serves.
//   5. In a sanitizer build, no daemon process writes a sanitizer report.
//      The supervised stack's stderr goes to a file, which the verdict
//      reads however the test ends, so one check serves UBSan, ASan, TSan
//      and LSan alike.
//
// The binary path is injected at compile time (CULEVOD_PATH).

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "corpus/corpus_snapshot.h"
#include "corpus/ingestion.h"
#include "lexicon/world_lexicon.h"
#include "service/protocol.h"
#include "service/service_core.h"
#include "synth/generator.h"
#include "util/csv.h"
#include "util/signal.h"
#include "util/strings.h"
#include "util/subprocess.h"

namespace culevo {
namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "culevo_soak_" + std::to_string(::getpid()) +
         "_" + name;
}

/// One full connect + request + response cycle. Any transport failure is
/// a non-OK status (tolerated during chaos, asserted quiet otherwise).
Result<std::string> QueryFresh(const std::string& socket_path,
                               const std::string& request,
                               int timeout_ms = 10000) {
  Result<int> connected = ConnectUnixSocket(socket_path);
  if (!connected.ok()) return connected.status();
  const int fd = connected.value();
  std::string response;
  Status status = WriteFrame(fd, request);
  if (status.ok()) status = ReadFrame(fd, &response, timeout_ms);
  ::close(fd);
  if (!status.ok()) return status;
  return response;
}

/// Blocks until a ping round-trips, returning the wait in ms; -1 on
/// deadline. The post-kill recovery probe.
double AwaitServing(const std::string& socket_path, int deadline_ms) {
  const Clock::time_point start = Clock::now();
  while (MillisSince(start) < deadline_ms) {
    Result<std::string> pong = QueryFresh(socket_path, "ping", 2000);
    if (pong.ok() && *pong == "ok 1\npong\n") return MillisSince(start);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return -1;
}

Result<long long> PidfilePid(const std::string& pidfile) {
  Result<std::string> text = ReadFileToString(pidfile);
  if (!text.ok()) return text.status();
  errno = 0;
  char* end = nullptr;
  const long long pid = std::strtoll(text->c_str(), &end, 10);
  if (errno != 0 || end == text->c_str() || pid <= 0) {
    return Status::DataLoss("unparsable pidfile: " + *text);
  }
  return pid;
}

/// Extracts `counter\t<name>\t<value>` from a `metrics` response.
Result<long long> CounterRow(const std::string& metrics,
                             const std::string& name) {
  const std::string needle = "counter\t" + name + "\t";
  const size_t at = metrics.find(needle);
  if (at == std::string::npos) {
    return Status::NotFound("no counter row for " + name);
  }
  return std::strtoll(metrics.c_str() + at + needle.size(), nullptr, 10);
}

/// How each sanitizer a preset builds with starts a report: UBSan, ASan,
/// TSan and LSan. Every one of them prints to stderr. (A `log_path` would
/// not do: GCC's UBSan runtime ignores it when it is linked beside ASan's.)
constexpr std::string_view kReportStarts[] = {
    "runtime error:", "ERROR: AddressSanitizer", "WARNING: ThreadSanitizer",
    "ERROR: LeakSanitizer"};

/// Owns the file the supervised stack's stderr is appended to. When it
/// goes out of scope, however the test ends, it fails the test with the
/// first sanitizer report in the file, quoted from the start of its line,
/// and removes the file.
class StderrReports {
 public:
  explicit StderrReports(std::string path) : path_(std::move(path)) {
    std::remove(path_.c_str());
  }
  StderrReports(const StderrReports&) = delete;
  StderrReports& operator=(const StderrReports&) = delete;
  ~StderrReports() {
    const Result<std::string> text = ReadFileToString(path_);
    std::remove(path_.c_str());
    if (!text.ok()) return;
    size_t first = std::string::npos;
    for (const std::string_view start : kReportStarts) {
      first = std::min(first, text->find(start));
    }
    if (first == std::string::npos) return;
    const size_t line = text->rfind('\n', first);
    ADD_FAILURE() << "sanitizer report on the daemons' stderr:\n"
                  << text->substr(line == std::string::npos ? 0 : line + 1,
                                  8192);
  }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Extracts the `epoch\t<n>` row from an `info` response.
Result<long long> EpochRow(const std::string& info) {
  const size_t at = info.find("epoch\t");
  if (at == std::string::npos) return Status::NotFound("no epoch row");
  return std::strtoll(info.c_str() + at + 6, nullptr, 10);
}

TEST(CulevodSoakTest, SupervisedChaosSoakKeepsAnswersBitIdentical) {
  // A client writing to a child that was just SIGKILLed must get EPIPE
  // and reconnect; the default SIGPIPE would end this test process and
  // orphan the supervised daemon.
  IgnoreSigPipe();
  const std::string socket_path = TempPath("srv.sock");
  const std::string pidfile = TempPath("child.pid");
  const std::string snapshot_path = TempPath("base.snap");
  const std::string delta_path = TempPath("good.delta");
  const std::string bad_delta_path = TempPath("mismatch.delta");
  // Declared before the supervisor, so the supervisor is gone by the time
  // the file is read.
  const StderrReports reports(TempPath("daemons.stderr"));

  // --- Ground truth -------------------------------------------------------
  // Base corpus A: the same deterministic synthetic world the child will
  // serve, shipped to it as a CULEVO-CORPUS snapshot file.
  SynthConfig synth;
  synth.scale = 0.02;
  synth.seed = 42;
  Result<RecipeCorpus> base = SynthesizeWorldCorpus(WorldLexicon(), synth);
  ASSERT_TRUE(base.ok()) << base.status();
  ASSERT_TRUE(
      WriteCorpusSnapshot(snapshot_path, *base, {.sync = false}).ok());

  // Delta D: ~1% new recipes (clones of existing ones — content does not
  // matter, identity does), bound to A's exact fingerprint.
  CorpusDelta delta;
  delta.base_recipes = base->num_recipes();
  delta.base_fingerprint = CorpusContentFingerprint(*base);
  const size_t growth =
      std::max<size_t>(1, base->num_recipes() / 100);
  for (size_t i = 0; i < growth; ++i) {
    const uint32_t src = static_cast<uint32_t>(i % base->num_recipes());
    const std::span<const IngredientId> ingredients =
        base->ingredients_of(src);
    delta.records.push_back(
        {base->cuisine_of(src),
         std::vector<IngredientId>(ingredients.begin(), ingredients.end())});
  }
  ASSERT_TRUE(WriteCorpusDelta(delta_path, delta, {.sync = false}).ok());

  // A mismatched-base delta: same records, wrong identity.
  CorpusDelta mismatched = delta;
  mismatched.base_fingerprint ^= 0xDEADBEEF;
  ASSERT_TRUE(
      WriteCorpusDelta(bad_delta_path, mismatched, {.sync = false}).ok());

  // Expected answers on both generations, from in-process cores fed the
  // identical snapshot + delta files (the batch ground truth).
  ServiceCore core_a(&WorldLexicon(), ServiceOptions{});
  ASSERT_TRUE(core_a.LoadFromFile(snapshot_path).ok());
  ServiceCore core_b(&WorldLexicon(), ServiceOptions{});
  ASSERT_TRUE(core_b.LoadFromFile(snapshot_path).ok());
  ASSERT_TRUE(core_b.ReloadDelta(delta_path).ok());

  // Query set over cuisines that are actually populated in the scaled
  // corpus (derived from the recipes, not assumed).
  std::vector<CuisineId> populated;
  for (uint32_t r = 0;
       r < base->num_recipes() && populated.size() < 3; ++r) {
    const CuisineId c = base->cuisine_of(r);
    if (std::find(populated.begin(), populated.end(), c) ==
        populated.end()) {
      populated.push_back(c);
    }
  }
  ASSERT_FALSE(populated.empty());
  std::vector<std::string> queries = {"ping"};
  for (const CuisineId c : populated) {
    const std::string code(CuisineAt(c).code);
    queries.push_back("overrep " + code + " 5");
    queries.push_back("nearest " + code + " 3");
    queries.push_back("stats " + code);
  }
  queries.push_back("recipe 0");
  queries.push_back(
      StrFormat("recipe %zu", base->num_recipes() - 1));
  queries.push_back(
      StrFormat("search #%u limit=3",
                static_cast<unsigned>(base->ingredients_of(0)[0])));
  std::vector<std::string> expected_a, expected_b;
  for (const std::string& q : queries) {
    expected_a.push_back(core_a.Handle(q));
    expected_b.push_back(core_b.Handle(q));
    ASSERT_TRUE(StartsWith(expected_a.back(), "ok ")) << q;
    ASSERT_TRUE(StartsWith(expected_b.back(), "ok ")) << q;
  }

  // --- The supervised stack under test ------------------------------------
  Subprocess supervisor;
  SpawnOptions spawn;
  // Each child incarnation inherits the failpoint: after three clean
  // serve.reload evaluations (startup load, refused bad delta, good
  // delta), the next reload attempt in that incarnation fails injected —
  // a reload dying mid-swap during the chaos phase. The shell appends the
  // supervisor's stderr, which its children inherit, to the reports file
  // and execs it, so the supervisor keeps the shell's pid.
  spawn.extra_env.push_back("CULEVO_FAILPOINTS=serve.reload=3*1");
  spawn.silence_stdout = true;
  spawn.silence_stderr = true;
  ASSERT_TRUE(supervisor
                  .Spawn({"/bin/sh", "-c", "exec \"$@\" 2>>\"$0\"",
                          reports.path(), CULEVOD_PATH, "--supervise",
                          "--socket", socket_path, "--load-snapshot",
                          snapshot_path,
                          "--delta-path", delta_path, "--pidfile", pidfile,
                          "--threads", "3", "--deadline-ms", "60000",
                          "--client-read-timeout-ms", "200",
                          "--probe-interval-ms", "100", "--probe-timeout-ms",
                          "1000", "--probe-failures", "3",
                          "--startup-grace-ms", "30000",
                          "--restart-backoff-ms", "50",
                          "--restart-backoff-cap-ms", "200"},
                         spawn)
                  .ok());
  ASSERT_GE(AwaitServing(socket_path, 30000), 0) << "server never came up";

  // --- Phase 1: quiet correctness ------------------------------------------
  for (size_t i = 0; i < queries.size(); ++i) {
    Result<std::string> got = QueryFresh(socket_path, queries[i]);
    ASSERT_TRUE(got.ok()) << queries[i] << ": " << got.status();
    EXPECT_EQ(*got, expected_a[i]) << queries[i];
  }

  Result<std::string> metrics = QueryFresh(socket_path, "metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  Result<long long> mmap_loads_before =
      CounterRow(*metrics, "corpus.snapshot.mmap_loads");
  ASSERT_TRUE(mmap_loads_before.ok()) << mmap_loads_before.status();

  // Mismatched-base delta: refused with FailedPrecondition, epoch
  // unmoved, answers unchanged.
  Result<std::string> refused =
      QueryFresh(socket_path, "reload-delta " + bad_delta_path);
  ASSERT_TRUE(refused.ok()) << refused.status();
  EXPECT_TRUE(StartsWith(*refused, "error FailedPrecondition")) << *refused;
  Result<std::string> info = QueryFresh(socket_path, "info");
  ASSERT_TRUE(info.ok()) << info.status();
  Result<long long> epoch_after_refusal = EpochRow(*info);
  ASSERT_TRUE(epoch_after_refusal.ok()) << *info;
  EXPECT_EQ(*epoch_after_refusal, 1);
  Result<std::string> still_a = QueryFresh(socket_path, queries[1]);
  ASSERT_TRUE(still_a.ok());
  EXPECT_EQ(*still_a, expected_a[1]);

  // The good delta hot-swaps to generation B...
  Result<std::string> swapped =
      QueryFresh(socket_path, "reload-delta " + delta_path);
  ASSERT_TRUE(swapped.ok()) << swapped.status();
  EXPECT_EQ(*swapped,
            StrFormat("ok 2\nepoch\t2\nrecipes\t%zu\n",
                      base->num_recipes() + growth));
  for (size_t i = 0; i < queries.size(); ++i) {
    Result<std::string> got = QueryFresh(socket_path, queries[i]);
    ASSERT_TRUE(got.ok()) << queries[i] << ": " << got.status();
    EXPECT_EQ(*got, expected_b[i]) << queries[i];
  }

  // ...without touching the snapshot file again: the incremental build
  // starts from the serving generation, so mmap loads stay flat.
  metrics = QueryFresh(socket_path, "metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  Result<long long> mmap_loads_after =
      CounterRow(*metrics, "corpus.snapshot.mmap_loads");
  ASSERT_TRUE(mmap_loads_after.ok()) << mmap_loads_after.status();
  EXPECT_EQ(*mmap_loads_after, *mmap_loads_before)
      << "delta reload re-read the snapshot";

  // --- Phase 2: chaos -------------------------------------------------------
  std::atomic<bool> stop{false};
  std::atomic<int64_t> ok_answers{0};
  std::atomic<int64_t> wrong_answers{0};
  std::mutex diagnostics_mu;
  std::vector<std::string> diagnostics;
  const auto report_wrong = [&](const std::string& what) {
    wrong_answers.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(diagnostics_mu);
    if (diagnostics.size() < 5) diagnostics.push_back(what);
  };

  // Mixed-load clients: every `ok` answer must equal generation A or B
  // exactly; transport errors and `error` responses are availability (a
  // restart in progress), never correctness, and are tolerated.
  std::vector<std::thread> clients;
  for (int t = 0; t < 2; ++t) {
    clients.emplace_back([&, t] {
      size_t i = static_cast<size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t q = i++ % queries.size();
        Result<std::string> got =
            QueryFresh(socket_path, queries[q], 5000);
        if (!got.ok()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          continue;
        }
        if (StartsWith(*got, "error ")) continue;
        if (*got != expected_a[q] && *got != expected_b[q]) {
          report_wrong(queries[q] + " -> " + got->substr(0, 200));
        } else {
          ok_answers.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Hostile client: starts a frame, stalls past the server's 200 ms
  // client-read deadline, hangs up. Must only ever cost its own
  // connection.
  std::thread staller([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const Result<int> fd = ConnectUnixSocket(socket_path);
      if (fd.ok()) {
        const char prefix[4] = {16, 0, 0, 0};
        (void)!::write(*fd, prefix, sizeof(prefix));
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
        ::close(*fd);
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    }
  });

  // Epoch monotonicity monitor: within one child incarnation (pidfile
  // unchanged around the observation) the served epoch must never
  // decrease. A restart may legally reset it to 1.
  std::thread monitor([&] {
    long long last_pid = -1;
    long long last_epoch = -1;
    while (!stop.load(std::memory_order_relaxed)) {
      const Result<long long> pid_before = PidfilePid(pidfile);
      Result<std::string> response = QueryFresh(socket_path, "info", 2000);
      const Result<long long> pid_after = PidfilePid(pidfile);
      if (pid_before.ok() && pid_after.ok() &&
          *pid_before == *pid_after && response.ok() &&
          StartsWith(*response, "ok ")) {
        const Result<long long> epoch = EpochRow(*response);
        if (epoch.ok()) {
          if (*pid_before == last_pid && *epoch < last_epoch) {
            report_wrong(StrFormat(
                "epoch moved backwards within pid %lld: %lld -> %lld",
                *pid_before, last_epoch, *epoch));
          }
          last_pid = *pid_before;
          last_epoch = *epoch;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });

  // The kill loop: SIGKILL the serving child via the supervisor's
  // pidfile, assert bounded recovery, and fire SIGHUP reloads (which hit
  // both the refused-delta path and the armed serve.reload failpoint in
  // each incarnation).
  constexpr int kKills = 3;
  double worst_downtime_ms = 0;
  for (int k = 0; k < kKills; ++k) {
    std::this_thread::sleep_for(std::chrono::milliseconds(700));
    ASSERT_EQ(::kill(static_cast<pid_t>(supervisor.pid()), SIGHUP), 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));

    const Result<long long> child_pid = PidfilePid(pidfile);
    ASSERT_TRUE(child_pid.ok()) << child_pid.status();
    ASSERT_EQ(::kill(static_cast<pid_t>(*child_pid), SIGKILL), 0);
    const double downtime = AwaitServing(socket_path, 30000);
    ASSERT_GE(downtime, 0) << "no recovery after SIGKILL #" << k;
    worst_downtime_ms = std::max(worst_downtime_ms, downtime);

    // The replacement serves generation A again (its startup load) —
    // re-apply the delta sometimes so both generations stay live targets.
    if (k % 2 == 0) {
      (void)QueryFresh(socket_path, "reload-delta " + delta_path);
    }
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& client : clients) client.join();
  staller.join();
  monitor.join();

  // --- Verdict --------------------------------------------------------------
  EXPECT_EQ(wrong_answers.load(), 0) << [&] {
    std::lock_guard<std::mutex> lock(diagnostics_mu);
    std::string joined;
    for (const std::string& d : diagnostics) joined += d + "\n";
    return joined;
  }();
  EXPECT_GT(ok_answers.load(), 0) << "chaos clients never got an answer";
  EXPECT_LT(worst_downtime_ms, 30000);
  std::fprintf(stderr,
               "soak: %lld verified answers, %d kills, worst downtime "
               "%.0f ms\n",
               static_cast<long long>(ok_answers.load()), kKills,
               worst_downtime_ms);

  // Clean shutdown: SIGTERM drains the supervisor (which drains its
  // child) to exit 0.
  const ExitState exit_state = supervisor.Terminate(15000);
  EXPECT_TRUE(exit_state.exited)
      << "supervisor died on signal " << exit_state.signal;
  EXPECT_EQ(exit_state.code, 0);

  std::remove(pidfile.c_str());
  std::remove(snapshot_path.c_str());
  std::remove(delta_path.c_str());
  std::remove(bad_delta_path.c_str());
  ::unlink(socket_path.c_str());
}

}  // namespace
}  // namespace culevo
