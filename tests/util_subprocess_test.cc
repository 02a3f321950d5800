#include "util/subprocess.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

namespace culevo {
namespace {

std::vector<std::string> Sh(const std::string& script) {
  return {"/bin/sh", "-c", script};
}

TEST(SubprocessTest, CleanExitIsOkStatus) {
  Subprocess child;
  ASSERT_TRUE(child.Spawn(Sh("exit 0")).ok());
  const ExitState state = child.Wait();
  EXPECT_TRUE(state.exited);
  EXPECT_EQ(state.code, 0);
  EXPECT_TRUE(state.ToStatus("child").ok());
  EXPECT_FALSE(child.running());
}

TEST(SubprocessTest, NonzeroExitSurfacesCode) {
  Subprocess child;
  ASSERT_TRUE(child.Spawn(Sh("exit 7")).ok());
  const ExitState state = child.Wait();
  EXPECT_TRUE(state.exited);
  EXPECT_EQ(state.code, 7);
  const Status status = state.ToStatus("worker");
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("7"), std::string::npos);
}

TEST(SubprocessTest, SignalDeathSurfacesSignal) {
  Subprocess child;
  ASSERT_TRUE(child.Spawn(Sh("kill -9 $$")).ok());
  const ExitState state = child.Wait();
  EXPECT_TRUE(state.signaled);
  EXPECT_EQ(state.signal, SIGKILL);
  EXPECT_FALSE(state.ToStatus("worker").ok());
}

TEST(SubprocessTest, ExecFailureIsExit127) {
  Subprocess child;
  ASSERT_TRUE(
      child.Spawn({"/nonexistent/binary/for/this/test"}).ok());
  const ExitState state = child.Wait();
  EXPECT_TRUE(state.exited);
  EXPECT_EQ(state.code, 127);
}

TEST(SubprocessTest, EmptyArgvRefused) {
  Subprocess child;
  EXPECT_EQ(child.Spawn({}).code(), StatusCode::kInvalidArgument);
}

TEST(SubprocessTest, TryWaitIsNonBlockingAndIdempotent) {
  Subprocess child;
  ASSERT_TRUE(child.Spawn(Sh("sleep 30")).ok());
  ExitState state;
  EXPECT_FALSE(child.TryWait(&state));  // still running, returns at once
  EXPECT_TRUE(child.running());
  child.Kill();
  // The final state is cached: every TryWait after the reap agrees.
  ASSERT_TRUE(child.TryWait(&state));
  EXPECT_TRUE(state.signaled);
  EXPECT_EQ(state.signal, SIGKILL);
  ExitState again;
  ASSERT_TRUE(child.TryWait(&again));
  EXPECT_EQ(again.signal, SIGKILL);
}

TEST(SubprocessTest, TerminateEscalatesToSigkill) {
  Subprocess child;
  // A child that ignores SIGTERM forces the escalation path. The shell
  // ignores TERM and then execs the sleep, which keeps the ignored
  // disposition, so the SIGKILL lands on the sleeping process itself and
  // nothing outlives the test.
  SpawnOptions options;
  options.silence_stdout = true;
  options.silence_stderr = true;
  ASSERT_TRUE(child.Spawn(Sh("trap '' TERM; exec sleep 30"), options).ok());
  // Give the shell a moment to install the trap; without it the SIGTERM
  // may land first and the test would pass vacuously.
  ::usleep(200 * 1000);
  const ExitState state = child.Terminate(100);
  EXPECT_TRUE(state.signaled);
  EXPECT_EQ(state.signal, SIGKILL);
}

TEST(SubprocessTest, ExtraEnvReachesChild) {
  Subprocess child;
  SpawnOptions options;
  options.extra_env = {"CULEVO_SUBPROCESS_TEST_TOKEN=42"};
  ASSERT_TRUE(
      child.Spawn(Sh("test \"$CULEVO_SUBPROCESS_TEST_TOKEN\" = 42"), options)
          .ok());
  const ExitState state = child.Wait();
  EXPECT_TRUE(state.exited);
  EXPECT_EQ(state.code, 0);
}

TEST(SubprocessTest, ExtraEnvShadowsInheritedVariable) {
  // The child half: this binary re-exec'd with only this test selected.
  // getenv returns the first match, so it sees the extra entry only if
  // the inherited one was dropped. (A dash child cannot show this: dash
  // keeps the last duplicate.)
  if (std::getenv("CULEVO_SUBPROCESS_TEST_CHILD") != nullptr) {
    const char* value = std::getenv("CULEVO_SUBPROCESS_TEST_SHADOW");
    ASSERT_NE(value, nullptr);
    EXPECT_STREQ(value, "42");
    return;
  }
  ASSERT_EQ(::setenv("CULEVO_SUBPROCESS_TEST_SHADOW", "stale", 1), 0);
  const testing::TestInfo* test =
      testing::UnitTest::GetInstance()->current_test_info();
  Subprocess child;
  SpawnOptions options;
  options.extra_env = {"CULEVO_SUBPROCESS_TEST_CHILD=1",
                       "CULEVO_SUBPROCESS_TEST_SHADOW=42"};
  const Status spawned = child.Spawn(
      {"/proc/self/exe", std::string("--gtest_filter=") +
                             test->test_suite_name() + "." + test->name()},
      options);
  ::unsetenv("CULEVO_SUBPROCESS_TEST_SHADOW");
  ASSERT_TRUE(spawned.ok()) << spawned;
  const ExitState state = child.Wait();
  EXPECT_TRUE(state.exited);
  EXPECT_EQ(state.code, 0) << "the child read the inherited value";
}

TEST(SubprocessTest, DestructorKillsLeakedChild) {
  int64_t pid = -1;
  {
    Subprocess child;
    ASSERT_TRUE(child.Spawn(Sh("sleep 30")).ok());
    pid = child.pid();
    ASSERT_GT(pid, 0);
  }
  // The destructor SIGKILLed and reaped the child, so the pid no longer
  // names a process we may signal.
  EXPECT_NE(::kill(static_cast<pid_t>(pid), 0), 0);
}

TEST(SubprocessTest, MoveTransfersOwnership) {
  Subprocess a;
  ASSERT_TRUE(a.Spawn(Sh("sleep 30")).ok());
  const int64_t pid = a.pid();
  Subprocess b = std::move(a);
  EXPECT_FALSE(a.running());
  EXPECT_TRUE(b.running());
  EXPECT_EQ(b.pid(), pid);
  const ExitState state = b.Kill();
  EXPECT_TRUE(state.signaled);
}

TEST(BackoffDelayTest, StaysWithinDecorrelatedJitterBounds) {
  using std::chrono::milliseconds;
  const milliseconds base{5};
  const milliseconds cap{1000};
  Rng rng(0xC0FFEEull);
  milliseconds prev = base;
  for (int step = 0; step < 200; ++step) {
    const milliseconds bound = std::max(base, prev * 3);
    const milliseconds next = NextBackoffDelay(base, prev, cap, &rng);
    EXPECT_GE(next.count(), base.count()) << "step " << step;
    EXPECT_LE(next.count(), std::min(bound, cap).count()) << "step " << step;
    prev = next;
  }
}

TEST(BackoffDelayTest, CapBoundsEveryDelay) {
  using std::chrono::milliseconds;
  Rng rng(7);
  milliseconds prev{400};
  for (int step = 0; step < 50; ++step) {
    prev = NextBackoffDelay(milliseconds{5}, prev, milliseconds{50}, &rng);
    EXPECT_LE(prev.count(), 50) << "step " << step;
    EXPECT_GE(prev.count(), 5) << "step " << step;
  }
}

TEST(BackoffDelayTest, SequenceIsReproduciblePerSeedAndJitters) {
  using std::chrono::milliseconds;
  const auto sequence = [](uint64_t seed) {
    Rng rng(seed);
    std::vector<int64_t> delays;
    milliseconds prev{5};
    for (int step = 0; step < 20; ++step) {
      prev = NextBackoffDelay(milliseconds{5}, prev, milliseconds{1000},
                              &rng);
      delays.push_back(prev.count());
    }
    return delays;
  };
  // Deterministic per seed: the same seed replays the same delays.
  EXPECT_EQ(sequence(42), sequence(42));
  // Decorrelated across seeds: two writers that failed at the same instant
  // must not march in lockstep (the whole point of jitter).
  EXPECT_NE(sequence(42), sequence(43));
  // And it actually jitters: a 20-step sequence is not one constant value.
  const std::vector<int64_t> delays = sequence(42);
  EXPECT_GT(std::set<int64_t>(delays.begin(), delays.end()).size(), 1u);
}

TEST(BackoffDelayTest, ZeroBaseDisablesSleeping) {
  using std::chrono::milliseconds;
  Rng rng(1);
  EXPECT_EQ(
      NextBackoffDelay(milliseconds{0}, milliseconds{64}, milliseconds{100},
                       &rng)
          .count(),
      0);
}

using Clock = RestartPacer::Clock;
using std::chrono::milliseconds;

TEST(RestartPacerTest, BudgetRunsOutAfterExactlyMaxRestartsDeaths) {
  RestartPacer pacer(3, milliseconds{10}, milliseconds{100}, 1);
  const Clock::time_point now = Clock::now();
  for (int death = 0; death < 3; ++death) {
    EXPECT_TRUE(pacer.RecordDeath(now)) << "death " << death;
  }
  EXPECT_EQ(pacer.restarts(), 3);
  EXPECT_FALSE(pacer.RecordDeath(now));
  EXPECT_EQ(pacer.restarts(), 3);

  RestartPacer none(0, milliseconds{10}, milliseconds{100}, 1);
  EXPECT_FALSE(none.RecordDeath(now));
  EXPECT_EQ(none.restarts(), 0);
}

TEST(RestartPacerTest, NegativeBudgetNeverRunsOut) {
  RestartPacer pacer(-1, milliseconds{10}, milliseconds{100}, 1);
  const Clock::time_point now = Clock::now();
  for (int death = 0; death < 1000; ++death) {
    ASSERT_TRUE(pacer.RecordDeath(now)) << "death " << death;
  }
  EXPECT_EQ(pacer.restarts(), 1000);
}

TEST(RestartPacerTest, NextSpawnIsNotDueBeforeItsBackoff) {
  RestartPacer pacer(-1, milliseconds{10}, milliseconds{100}, 1);
  const Clock::time_point t0 = Clock::now();
  EXPECT_LE(pacer.next_spawn(), t0) << "the first spawn waits for nothing";
  ASSERT_TRUE(pacer.RecordDeath(t0));
  EXPECT_GE(pacer.next_spawn(), t0 + milliseconds{10});
  // A later death moves the gate past the earlier one.
  const Clock::time_point t1 = t0 + milliseconds{500};
  ASSERT_TRUE(pacer.RecordDeath(t1));
  EXPECT_GE(pacer.next_spawn(), t1 + milliseconds{10});
}

TEST(RestartPacerTest, EveryDelayLiesBetweenBaseAndCap) {
  const milliseconds base{10};
  const milliseconds cap{1000};
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    RestartPacer pacer(-1, base, cap, seed);
    Clock::time_point now = Clock::now();
    bool reached_cap = false;
    for (int death = 0; death < 50; ++death) {
      ASSERT_TRUE(pacer.RecordDeath(now));
      const Clock::duration delay = pacer.next_spawn() - now;
      ASSERT_GE(delay, base) << "seed " << seed << " death " << death;
      ASSERT_LE(delay, cap) << "seed " << seed << " death " << death;
      reached_cap = reached_cap || delay == cap;
      now = pacer.next_spawn();
    }
    EXPECT_TRUE(reached_cap) << "seed " << seed << ": the backoff never grew";
  }
}

TEST(RestartPacerTest, HealthyResetsTheNextDelayToTheFirstRange) {
  const milliseconds base{10};
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    RestartPacer pacer(-1, base, milliseconds{1000}, seed);
    Clock::time_point now = Clock::now();
    for (int death = 0; death < 50; ++death) {
      ASSERT_TRUE(pacer.RecordDeath(now));
    }
    pacer.RecordHealthy();
    now = pacer.next_spawn();
    ASSERT_TRUE(pacer.RecordDeath(now));
    const Clock::duration delay = pacer.next_spawn() - now;
    EXPECT_GE(delay, base) << "seed " << seed;
    EXPECT_LE(delay, 3 * base) << "seed " << seed;
  }
}

}  // namespace
}  // namespace culevo
