// End-to-end smoke test of the culevod binary: spawn the real server on
// a temp Unix socket, run scripted queries through the wire protocol,
// SIGHUP it mid-session, then check a SIGTERM drains to a clean exit 0.
// The binary path is injected at compile time (CULEVOD_PATH).

#include <algorithm>
#include <csignal>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "corpus/corpus_snapshot.h"
#include "corpus/ingestion.h"
#include "service/protocol.h"
#include "util/strings.h"

namespace culevo {
namespace {

std::string SocketPath() {
  return testing::TempDir() + "culevod_smoke_" +
         std::to_string(::getpid()) + ".sock";
}

/// Connects with retries while the server starts up (synthesis plus
/// index build takes a moment; 15 s is far beyond the worst case).
int ConnectWithRetry(const std::string& path) {
  for (int attempt = 0; attempt < 150; ++attempt) {
    const Result<int> fd = ConnectUnixSocket(path);
    if (fd.ok()) return *fd;
    if (fd.status().code() != StatusCode::kUnavailable) return -1;
    ::usleep(100 * 1000);
  }
  return -1;
}

class CulevodSmokeTest : public ::testing::Test {
 protected:
  /// Extra culevod flags appended by subclass fixtures.
  virtual std::vector<std::string> ExtraArgs() const { return {}; }

  void SetUp() override {
    socket_path_ = SocketPath();
    // Tiny synthetic corpus keeps startup fast; two workers exercise
    // the multi-threaded accept path.
    std::vector<std::string> args = {
        "culevod", "--socket", socket_path_, "--scale", "0.02",
        "--threads", "2", "--deadline-ms", "60000"};
    for (const std::string& extra : ExtraArgs()) args.push_back(extra);
    pid_ = ::fork();
    ASSERT_GE(pid_, 0) << "fork failed";
    if (pid_ == 0) {
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& arg : args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      ::execv(CULEVOD_PATH, argv.data());
      ::_exit(127);  // exec failed
    }
    fd_ = ConnectWithRetry(socket_path_);
    ASSERT_GE(fd_, 0) << "could not connect to " << socket_path_;
  }

  void TearDown() override {
    if (fd_ >= 0) ::close(fd_);
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int ignored = 0;
      ::waitpid(pid_, &ignored, 0);
    }
    ::unlink(socket_path_.c_str());
  }

  /// One request/response round trip over the live socket.
  std::string Query(const std::string& request) {
    Status written = WriteFrame(fd_, request);
    EXPECT_TRUE(written.ok()) << written;
    std::string response;
    Status read = ReadFrame(fd_, &response);
    EXPECT_TRUE(read.ok()) << read;
    return response;
  }

  std::string socket_path_;
  pid_t pid_ = -1;
  int fd_ = -1;
};

TEST_F(CulevodSmokeTest, ScriptedQueriesThenCleanSigtermDrain) {
  EXPECT_EQ(Query("ping"), "ok 1\npong\n");

  const std::string info = Query("info");
  EXPECT_TRUE(StartsWith(info, "ok 6\n"));
  EXPECT_NE(info.find("source\t<synthetic>"), std::string::npos);
  EXPECT_NE(info.find("fingerprint\t"), std::string::npos);

  // `metrics` is served from the registry, no corpus involved.
  const std::string metrics = Query("metrics");
  EXPECT_TRUE(StartsWith(metrics, "ok "));
  EXPECT_NE(metrics.find("counter\tserve.requests\t"), std::string::npos);

  EXPECT_TRUE(StartsWith(Query("overrep ITA 3"), "ok 3\n"));
  EXPECT_TRUE(StartsWith(Query("nearest ITA 3"), "ok 3\n"));
  EXPECT_TRUE(StartsWith(Query("stats ITA"), "ok 5\n"));
  EXPECT_TRUE(StartsWith(Query("search garlic limit=2"), "ok "));
  EXPECT_TRUE(StartsWith(Query("recipe 0"), "ok 1\n"));
  EXPECT_TRUE(StartsWith(Query("bogus"), "error InvalidArgument"));
  EXPECT_TRUE(StartsWith(Query("ping deadline_ms=0"),
                         "error DeadlineExceeded"));

  // SIGHUP without a snapshot path is a harmless no-op reload request;
  // the server must keep answering afterwards.
  ASSERT_EQ(::kill(pid_, SIGHUP), 0);
  ::usleep(300 * 1000);
  EXPECT_EQ(Query("ping"), "ok 1\npong\n");

  // Clean drain: SIGTERM must produce a normal exit 0, not a signal
  // death, within the worker poll tick plus margin.
  ASSERT_EQ(::kill(pid_, SIGTERM), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid_, &wstatus, 0), pid_);
  EXPECT_TRUE(WIFEXITED(wstatus))
      << "culevod died on a signal instead of draining";
  EXPECT_EQ(WEXITSTATUS(wstatus), 0);
  pid_ = -1;

  // The drained server unlinks its socket.
  EXPECT_NE(::access(socket_path_.c_str(), F_OK), 0);
}

// Clients that vanish mid-exchange must cost the server nothing worse
// than an EPIPE on the response write. Without the SIGPIPE guard the
// very first such write would kill the process (default disposition is
// terminate), so twenty abrupt disconnects followed by one healthy
// round trip is a sharp regression test for the guard.
TEST_F(CulevodSmokeTest, AbruptClientDisconnectsDoNotKillServer) {
  EXPECT_EQ(Query("ping"), "ok 1\npong\n");

  for (int i = 0; i < 20; ++i) {
    const int victim = ConnectWithRetry(socket_path_);
    ASSERT_GE(victim, 0);
    // A query whose response is large enough to make the server's write
    // hit the closed socket, then hang up without reading a byte.
    ASSERT_TRUE(WriteFrame(victim, "overrep ITA 10").ok());
    ::close(victim);
  }

  // The server must still be alive and answering. (A SIGPIPE death
  // would show up as a failed connect or a dead pid.)
  ::usleep(200 * 1000);
  ASSERT_EQ(::kill(pid_, 0), 0) << "culevod died after client hangups";
  const int fresh = ConnectWithRetry(socket_path_);
  ASSERT_GE(fresh, 0);
  ASSERT_TRUE(WriteFrame(fresh, "ping").ok());
  std::string response;
  const Status read = ReadFrame(fresh, &response, 10000);
  EXPECT_TRUE(read.ok()) << read;
  EXPECT_EQ(response, "ok 1\npong\n");
  ::close(fresh);
}

/// The daemon started on a written snapshot, with a delta against it.
class CulevodSnapshotTest : public CulevodSmokeTest {
 protected:
  std::vector<std::string> ExtraArgs() const override {
    return {"--load-snapshot", snapshot_path_};
  }

  void SetUp() override {
    const std::string stem = testing::TempDir() + "culevod_smoke_" +
                             std::to_string(::getpid());
    snapshot_path_ = stem + ".snap";
    delta_path_ = stem + ".delta";
    RecipeCorpus::Builder builder;
    ASSERT_TRUE(builder.Add(0, {1, 2, 3}).ok());
    ASSERT_TRUE(builder.Add(1, {2, 4}).ok());
    const RecipeCorpus corpus = builder.Build();
    ASSERT_TRUE(
        WriteCorpusSnapshot(snapshot_path_, corpus, {.sync = false}).ok());
    CorpusDelta delta;
    delta.base_recipes = corpus.num_recipes();
    delta.base_fingerprint = CorpusContentFingerprint(corpus);
    delta.records = {{0, {5, 3}}, {2, {6}}};
    ASSERT_TRUE(WriteCorpusDelta(delta_path_, delta, {.sync = false}).ok());
    CulevodSmokeTest::SetUp();
  }

  void TearDown() override {
    CulevodSmokeTest::TearDown();
    ::unlink(snapshot_path_.c_str());
    ::unlink(delta_path_.c_str());
  }

  std::string snapshot_path_;
  std::string delta_path_;
};

// Once a reload-delta has answered, only the generation it installed may
// be live: the startup generation (and the snapshot mapping under it) must
// not stay pinned by the daemon itself.
TEST_F(CulevodSnapshotTest, ReloadDeltaLeavesOneGenerationLive) {
  EXPECT_NE(Query("info").find("source\t" + snapshot_path_ + "\n"),
            std::string::npos);
  EXPECT_EQ(Query("reload-delta " + delta_path_),
            "ok 2\nepoch\t2\nrecipes\t4\n");
  const std::string metrics = Query("metrics");
  EXPECT_NE(metrics.find("\ngauge\tserve.generations_live\t1\n"),
            std::string::npos)
      << metrics;
}

// The posting tail holds the delta's two recipes until a SIGHUP full
// reload of the snapshot places a fresh base with an empty tail.
TEST_F(CulevodSnapshotTest, TailRecipesGaugeFollowsTheInstall) {
  EXPECT_NE(Query("metrics").find("\ngauge\tserve.index.tail_recipes\t0\n"),
            std::string::npos);
  EXPECT_EQ(Query("reload-delta " + delta_path_),
            "ok 2\nepoch\t2\nrecipes\t4\n");
  std::string metrics = Query("metrics");
  EXPECT_NE(metrics.find("\ngauge\tserve.index.tail_recipes\t2\n"),
            std::string::npos)
      << metrics;

  ASSERT_EQ(::kill(pid_, SIGHUP), 0);
  bool reloaded = false;
  for (int attempt = 0; attempt < 100 && !reloaded; ++attempt) {
    ::usleep(50 * 1000);
    reloaded = Query("info").find("\nepoch\t3\n") != std::string::npos;
  }
  ASSERT_TRUE(reloaded) << "SIGHUP did not reload the snapshot";
  EXPECT_TRUE(StartsWith(Query("recipe 3"), "error NotFound"));
  metrics = Query("metrics");
  EXPECT_NE(metrics.find("\ngauge\tserve.index.tail_recipes\t0\n"),
            std::string::npos)
      << metrics;
}

/// Runs culevod with `args` to its exit and returns its exit status, or
/// -1 when it did not exit normally. With `out`, its stdout lands there.
int ExitStatusOf(std::vector<std::string> args, std::string* out = nullptr) {
  int stdout_pipe[2] = {-1, -1};
  if (out != nullptr && ::pipe(stdout_pipe) != 0) return -1;
  const pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    if (out != nullptr) {
      ::dup2(stdout_pipe[1], STDOUT_FILENO);
      ::close(stdout_pipe[0]);
      ::close(stdout_pipe[1]);
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    ::execv(CULEVOD_PATH, argv.data());
    ::_exit(127);  // exec failed
  }
  if (out != nullptr) {
    ::close(stdout_pipe[1]);
    char buffer[4096];
    ssize_t n;
    while ((n = ::read(stdout_pipe[0], buffer, sizeof(buffer))) > 0) {
      out->append(buffer, static_cast<size_t>(n));
    }
    ::close(stdout_pipe[0]);
  }
  int wstatus = 0;
  if (::waitpid(pid, &wstatus, 0) != pid || !WIFEXITED(wstatus)) return -1;
  return WEXITSTATUS(wstatus);
}

// Every flag is checked before the cold start: a malformed value, or a
// missing --socket, is a usage error (exit 2) even when the corpus load
// would fail too (exit 1), because the load never starts.
TEST(CulevodFlagsTest, BadFlagExitsTwoBeforeTheColdStart) {
  const std::string absent =
      testing::TempDir() + "culevod_absent_" + std::to_string(::getpid()) +
      ".snap";
  ::unlink(absent.c_str());
  EXPECT_EQ(ExitStatusOf({"culevod", "--socket", SocketPath(), "--threads",
                          "two", "--load-snapshot", absent}),
            2);
  EXPECT_EQ(ExitStatusOf({"culevod", "--load-snapshot", absent}), 2);
  // A misspelled flag (--thread for --threads) is refused, not ignored.
  EXPECT_EQ(ExitStatusOf({"culevod", "--socket", SocketPath(), "--thread",
                          "2", "--load-snapshot", absent}),
            2);
  EXPECT_EQ(ExitStatusOf({"culevod", "--once", "--load-snapshot", absent}),
            1);
  // So is a value out of range, in every mode, before the supervisor
  // spawns a child. A supervisor that did spawn one would see it fail the
  // load, and --max-restarts 0 would end it with exit 1.
  struct OutOfRange {
    std::vector<std::string> flags;
    bool supervisor_only;  // only the supervisor reads them
  };
  const std::vector<OutOfRange> out_of_range = {
      {{"--scale", "0"}, false},
      {{"--scale", "1.5"}, false},
      {{"--threads", "0"}, false},
      {{"--max-inflight", "0"}, false},
      {{"--probe-interval-ms", "0"}, true},
      {{"--probe-timeout-ms", "-5"}, true},
      {{"--probe-failures", "0"}, true},
      {{"--startup-grace-ms", "0"}, true},
      {{"--restart-backoff-ms", "0"}, true},
      // Above INT_MAX: an int cast would read 0.
      {{"--restart-backoff-ms", "4294967296"}, true},
      {{"--client-read-timeout-ms", "4294967296"}, false},
      // Read as 0, this would end the supervisor after one child.
      {{"--max-restarts", "4294967296"}, true},
      // A cap below the floor.
      {{"--restart-backoff-ms", "300", "--restart-backoff-cap-ms", "200"},
       true}};
  for (const OutOfRange& bad : out_of_range) {
    for (const bool supervise : {false, true}) {
      if (bad.supervisor_only && !supervise) continue;
      std::vector<std::string> args = {"culevod"};
      args.insert(args.end(), bad.flags.begin(), bad.flags.end());
      args.insert(args.end(), {"--load-snapshot", absent});
      if (supervise) {
        args.insert(args.end(), {"--supervise", "--socket", SocketPath()});
        if (std::find(bad.flags.begin(), bad.flags.end(), "--max-restarts") ==
            bad.flags.end()) {
          args.insert(args.end(), {"--max-restarts", "0"});
        }
      } else {
        args.push_back("--once");
      }
      EXPECT_EQ(ExitStatusOf(args), 2)
          << Join(bad.flags, " ") << (supervise ? " --supervise" : "");
    }
  }
}

// `culevod --client` sends each request as a frame and prints each
// response. A socket nobody listens on is a failed connect (exit 1); a
// path too long for a Unix socket address is a usage error (exit 2).
TEST_F(CulevodSmokeTest, ClientModeQueriesTheServer) {
  std::string out;
  EXPECT_EQ(
      ExitStatusOf({"culevod", "--client", socket_path_, "ping", "info"}, &out),
      0);
  EXPECT_TRUE(StartsWith(out, "ok 1\npong\nok 6\n")) << out;
  EXPECT_NE(out.find("source\t<synthetic>"), std::string::npos) << out;
  EXPECT_NE(out.find("fingerprint\t"), std::string::npos) << out;

  EXPECT_EQ(
      ExitStatusOf({"culevod", "--client", socket_path_ + ".absent", "ping"}),
      1);
  EXPECT_EQ(
      ExitStatusOf({"culevod", "--client", std::string(200, 'x'), "ping"}),
      2);
}

class CulevodClientTimeoutTest : public CulevodSmokeTest {
 protected:
  std::vector<std::string> ExtraArgs() const override {
    return {"--client-read-timeout-ms", "300"};
  }
};

// A client that starts a frame and stalls must lose only its own
// connection — after the read deadline the server closes it, and the
// freed worker thread keeps serving fresh connections.
TEST_F(CulevodClientTimeoutTest, MidFrameStallClosesOnlyThatConnection) {
  EXPECT_EQ(Query("ping"), "ok 1\npong\n");

  // Begin a frame claiming 16 payload bytes, then send nothing more.
  const char prefix[4] = {16, 0, 0, 0};
  ASSERT_EQ(::write(fd_, prefix, sizeof(prefix)), 4);

  // The server must give up within its 300 ms deadline and close the
  // connection: the client sees EOF (NotFound) instead of hanging. The
  // client-side timeout here is only a hang guard for the test.
  std::string response;
  const Status stalled = ReadFrame(fd_, &response, 10000);
  EXPECT_EQ(stalled.code(), StatusCode::kNotFound) << stalled;

  // The worker thread is free again: a new connection still serves.
  const int fresh = ConnectWithRetry(socket_path_);
  ASSERT_GE(fresh, 0);
  ASSERT_TRUE(WriteFrame(fresh, "ping").ok());
  const Status read = ReadFrame(fresh, &response, 10000);
  EXPECT_TRUE(read.ok()) << read;
  EXPECT_EQ(response, "ok 1\npong\n");
  ::close(fresh);
}

}  // namespace
}  // namespace culevo
