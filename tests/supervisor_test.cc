// In-process tests of SuperviseServer (service/supervisor.h) with short
// probe and backoff settings: the restart budget, the startup grace, a
// cancel from another thread (also during a restart backoff), a reload
// request that waits for a healthy child, a real culevod child that stops
// answering probes, and a probe that meets a full listen backlog. The
// soak drives the same loop through `culevod --supervise` under chaos;
// these pin each rule on its own in a few seconds.
//
// The culevod path is injected at compile time (CULEVOD_PATH).

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "service/protocol.h"
#include "service/supervisor.h"
#include "util/cancel.h"
#include "util/csv.h"
#include "util/signal.h"

namespace culevo {
namespace {

using Clock = std::chrono::steady_clock;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "culevo_supervisor_" +
         std::to_string(::getpid()) + "_" + name;
}

/// Fast probing (every 50 ms, 200 ms deadline) and restarts (10-20 ms
/// backoff), a 500 ms startup grace and no restart budget.
SupervisorOptions FastOptions(std::vector<std::string> child_argv,
                              const std::string& name) {
  SupervisorOptions options;
  options.child_argv = std::move(child_argv);
  options.socket_path = TempPath(name + ".sock");
  options.pidfile = TempPath(name + ".pid");
  options.probe_interval_ms = 50;
  options.probe_timeout_ms = 200;
  options.probe_failures_to_kill = 3;
  options.startup_grace_ms = 500;
  options.restart_backoff_ms = 10;
  options.restart_backoff_cap_ms = 20;
  options.poll_ms = 5;
  options.forward_reload = false;
  return options;
}

/// The pid in a pidfile, or -1.
long long PidfilePid(const std::string& pidfile) {
  Result<std::string> text = ReadFileToString(pidfile);
  return text.ok() ? std::atoll(text->c_str()) : -1;
}

bool ProcessGone(long long pid) {
  return ::kill(static_cast<pid_t>(pid), 0) != 0 && errno == ESRCH;
}

/// One fresh-connection ping; true on the exact pong.
bool Pings(const std::string& socket_path) {
  const Result<int> fd = ConnectUnixSocket(socket_path);
  if (!fd.ok()) return false;
  std::string response;
  const bool ok = WriteFrame(*fd, "ping").ok() &&
                  ReadFrame(*fd, &response, 2000).ok() &&
                  response == "ok 1\npong\n";
  ::close(*fd);
  return ok;
}

/// Polls `done` every 20 ms for up to `timeout_ms`.
template <typename Fn>
bool Eventually(int timeout_ms, const Fn& done) {
  const Clock::time_point until =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (Clock::now() < until) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return done();
}

TEST(SupervisorTest, CleanExitIsAnIncidentUntilTheBudgetRunsOut) {
  obs::Counter* restarts =
      obs::MetricsRegistry::Get().counter("serve.restarts");
  const int64_t restarts_before = restarts->Value();
  SupervisorOptions options = FastOptions({"true"}, "exit0");
  options.max_restarts = 2;
  Result<SupervisorReport> report = SuperviseServer(options);
  ASSERT_FALSE(report.ok());
  const std::string message = report.status().message();
  EXPECT_NE(message.find("restart budget (2) exhausted"), std::string::npos)
      << message;
  EXPECT_NE(message.find("exited 0"), std::string::npos) << message;
  EXPECT_EQ(restarts->Value() - restarts_before, 2);
  ::unlink(options.pidfile.c_str());
}

TEST(SupervisorTest, ChildThatNeverAnswersIsKilledAfterTheStartupGrace) {
  SupervisorOptions options = FastOptions({"sleep", "30"}, "mute");
  options.max_restarts = 0;
  const Clock::time_point start = Clock::now();
  Result<SupervisorReport> report = SuperviseServer(options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(report.status().message().find("never became healthy"),
            std::string::npos)
      << report.status();
  EXPECT_GE(Clock::now() - start,
            std::chrono::milliseconds(options.startup_grace_ms));
  const long long pid = PidfilePid(options.pidfile);
  ASSERT_GT(pid, 0);
  EXPECT_TRUE(ProcessGone(pid)) << "child " << pid << " outlived the kill";
  ::unlink(options.pidfile.c_str());
}

TEST(SupervisorTest, CancelFromAnotherThreadStopsTheChild) {
  CancelToken cancel;
  SupervisorOptions options = FastOptions({"sleep", "30"}, "cancel");
  options.startup_grace_ms = 30000;
  options.cancel = &cancel;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    cancel.Cancel();
  });
  Result<SupervisorReport> report = SuperviseServer(options);
  canceller.join();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->restarts, 0);
  const long long pid = PidfilePid(options.pidfile);
  ASSERT_GT(pid, 0);
  EXPECT_TRUE(ProcessGone(pid)) << "child " << pid << " outlived the cancel";
  ::unlink(options.pidfile.c_str());
}

TEST(SupervisorTest, CancelDuringRestartBackoffReturnsPromptly) {
  CancelToken cancel;
  SupervisorOptions options = FastOptions({"true"}, "backoff");
  options.restart_backoff_ms = 5000;
  options.restart_backoff_cap_ms = 5000;
  options.cancel = &cancel;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    cancel.Cancel();
  });
  const Clock::time_point start = Clock::now();
  Result<SupervisorReport> report = SuperviseServer(options);
  const Clock::duration elapsed = Clock::now() - start;
  canceller.join();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->restarts, 1);
  EXPECT_LT(elapsed, std::chrono::seconds(2));
  ::unlink(options.pidfile.c_str());
}

TEST(SupervisorTest, ReloadRequestWaitsForAHealthyChild) {
  IgnoreSigPipe();
  // A reload requested before the child is up: SIGHUP's default action
  // would end a culevod still loading its corpus.
  RequestReloadForTest();
  CancelToken cancel(Deadline::AfterMillis(90000));
  SupervisorOptions options = FastOptions({}, "reload");
  options.child_argv = {CULEVOD_PATH, "--socket", options.socket_path,
                        "--scale",    "0.02",   "--threads", "1"};
  options.probe_timeout_ms = 500;
  options.startup_grace_ms = 60000;
  options.silence_child = true;
  options.forward_reload = true;
  options.cancel = &cancel;
  std::future<Result<SupervisorReport>> session = std::async(
      std::launch::async, [&options] { return SuperviseServer(options); });

  ASSERT_TRUE(Eventually(30000, [&] { return Pings(options.socket_path); }))
      << "culevod never came up";
  // Let the supervisor see the child healthy and forward the request.
  std::this_thread::sleep_for(std::chrono::milliseconds(1000));
  cancel.Cancel();
  Result<SupervisorReport> report = session.get();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->restarts, 0) << "the reload request killed the child";
  EXPECT_FALSE(ConsumeReloadRequest()) << "the request was never forwarded";
  ::unlink(options.pidfile.c_str());
  ::unlink(options.socket_path.c_str());
}

TEST(SupervisorTest, StoppedChildIsKilledAfterFailedProbesAndReplaced) {
  // The supervisor probes over the real socket, so a write to a child it
  // just killed must not end this process.
  IgnoreSigPipe();
  // The deadline bounds the session, so a failed ASSERT below cannot
  // leave the future's destructor waiting for it forever.
  CancelToken cancel(Deadline::AfterMillis(90000));
  SupervisorOptions options = FastOptions({}, "stopped");
  options.child_argv = {CULEVOD_PATH, "--socket",      options.socket_path,
                        "--scale",    "0.02",          "--threads",
                        "1",          "--deadline-ms", "60000"};
  // A real child answers slower than a stub, more so under sanitizers
  // and a loaded host: give each probe more room.
  options.probe_timeout_ms = 500;
  options.startup_grace_ms = 60000;
  options.silence_child = true;
  options.cancel = &cancel;
  std::future<Result<SupervisorReport>> session = std::async(
      std::launch::async, [&options] { return SuperviseServer(options); });

  ASSERT_TRUE(Eventually(30000, [&] { return Pings(options.socket_path); }))
      << "culevod never came up";
  // Let the supervisor see the child healthy; before that only the
  // startup grace applies, not the failed-probe rule under test.
  std::this_thread::sleep_for(std::chrono::milliseconds(1000));
  const long long first = PidfilePid(options.pidfile);
  ASSERT_GT(first, 0);
  ASSERT_EQ(::kill(static_cast<pid_t>(first), SIGSTOP), 0);

  const bool replaced = Eventually(30000, [&] {
    const long long pid = PidfilePid(options.pidfile);
    return pid > 0 && pid != first && Pings(options.socket_path);
  });
  cancel.Cancel();
  Result<SupervisorReport> report = session.get();
  EXPECT_TRUE(replaced) << "no new child answered ping";
  EXPECT_TRUE(ProcessGone(first)) << "the stopped child was not killed";
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->restarts, 1);
  EXPECT_GE(report->probe_failures, options.probe_failures_to_kill);
  ::unlink(options.pidfile.c_str());
  ::unlink(options.socket_path.c_str());
}

TEST(SupervisorTest, ProbeIntoAFullBacklogTimesOut) {
  // A listener that never accepts, with its backlog filled: a probe's
  // connect waits for a free slot that never comes unless it is bounded.
  IgnoreSigPipe();
  SupervisorOptions options = FastOptions({"sleep", "30"}, "backlog");
  options.max_restarts = 0;
  options.startup_grace_ms = 300;
  ::unlink(options.socket_path.c_str());
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  struct sockaddr_un addr;
  ASSERT_TRUE(UnixSocketAddress(options.socket_path, &addr).ok());
  ASSERT_EQ(::bind(listener, reinterpret_cast<const struct sockaddr*>(&addr),
                   sizeof(addr)),
            0)
      << std::strerror(errno);
  ASSERT_EQ(::listen(listener, 0), 0);
  ASSERT_EQ(::fcntl(listener, F_SETFL, O_NONBLOCK), 0);
  // Non-blocking connects queue until the full backlog refuses one.
  std::vector<int> queued;
  int connect_errno = 0;
  while (connect_errno == 0 && queued.size() < 1024) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
    ASSERT_GE(fd, 0);
    if (::connect(fd, reinterpret_cast<const struct sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      queued.push_back(fd);
    } else {
      connect_errno = errno;
      ::close(fd);
    }
  }
  ASSERT_EQ(connect_errno, EAGAIN) << "the backlog did not fill";

  std::future<Result<SupervisorReport>> session = std::async(
      std::launch::async, [&options] { return SuperviseServer(options); });
  const bool returned_in_time =
      session.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  // An unbounded probe is still blocked in connect: accept until the
  // session ends so it can be joined either way.
  while (session.wait_for(std::chrono::milliseconds(10)) !=
         std::future_status::ready) {
    for (int fd; (fd = ::accept(listener, nullptr, nullptr)) >= 0;) {
      ::close(fd);
    }
  }
  Result<SupervisorReport> report = session.get();
  for (const int fd : queued) ::close(fd);
  ::close(listener);
  ::unlink(options.socket_path.c_str());
  ::unlink(options.pidfile.c_str());

  EXPECT_TRUE(returned_in_time) << "the probe blocked on the full backlog";
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kDeadlineExceeded)
      << report.status();
  EXPECT_NE(report.status().message().find("never became healthy"),
            std::string::npos)
      << report.status();
}

}  // namespace
}  // namespace culevo
