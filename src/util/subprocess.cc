#include "util/subprocess.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string_view>
#include <thread>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

extern char** environ;

namespace culevo {
namespace {

/// Builds the NULL-terminated char* views execvpe wants. The returned
/// pointers alias `storage`, which must outlive the exec call — both are
/// built BEFORE fork so the child does nothing but async-signal-safe
/// calls between fork and exec.
std::vector<char*> PointerVector(std::vector<std::string>& storage) {
  std::vector<char*> out;
  out.reserve(storage.size() + 1);
  for (std::string& s : storage) out.push_back(s.data());
  out.push_back(nullptr);
  return out;
}

ExitState StateFromWaitStatus(int wait_status) {
  ExitState state;
  if (WIFEXITED(wait_status)) {
    state.exited = true;
    state.code = WEXITSTATUS(wait_status);
  } else if (WIFSIGNALED(wait_status)) {
    state.signaled = true;
    state.signal = WTERMSIG(wait_status);
  } else {
    // Stopped/continued states are filtered out by not passing WUNTRACED,
    // but keep a defensive mapping.
    state.exited = true;
    state.code = 125;
  }
  return state;
}

}  // namespace

Status ExitState::ToStatus(const std::string& what) const {
  if (exited && code == 0) return Status::Ok();
  if (signaled) {
    return Status::Internal(what + ": killed by signal " +
                            std::to_string(signal));
  }
  return Status::Internal(what + ": exit code " + std::to_string(code));
}

Subprocess::~Subprocess() {
  if (running()) Terminate(0);
}

Subprocess& Subprocess::operator=(Subprocess&& other) noexcept {
  if (this == &other) return *this;
  if (running()) Terminate(0);
  pid_ = other.pid_;
  reaped_ = other.reaped_;
  state_ = other.state_;
  other.pid_ = -1;
  other.reaped_ = false;
  other.state_ = ExitState{};
  return *this;
}

Status Subprocess::Spawn(const std::vector<std::string>& argv,
                         const SpawnOptions& options) {
  if (argv.empty() || argv[0].empty()) {
    return Status::InvalidArgument("subprocess: empty argv");
  }
  if (running()) {
    return Status::FailedPrecondition("subprocess: already spawned");
  }

  // Everything heap-allocating happens pre-fork: after fork in the child
  // only async-signal-safe calls (open/dup2/execvpe/_exit) are made.
  std::vector<std::string> arg_storage = argv;
  std::vector<char*> argv_ptrs = PointerVector(arg_storage);

  const auto name_of = [](std::string_view entry) {
    return entry.substr(0, entry.find('='));
  };
  std::vector<std::string> env_storage;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    const std::string_view name = name_of(*e);
    if (std::none_of(options.extra_env.begin(), options.extra_env.end(),
                     [&](const std::string& extra) {
                       return name_of(extra) == name;
                     })) {
      env_storage.emplace_back(*e);
    }
  }
  env_storage.insert(env_storage.end(), options.extra_env.begin(),
                     options.extra_env.end());
  std::vector<char*> env_ptrs = PointerVector(env_storage);

  const pid_t pid = ::fork();
  if (pid < 0) {
    return Status::IOError(std::string("subprocess: fork failed: ") +
                           std::strerror(errno));
  }
  if (pid == 0) {
    // Child.
    if (options.silence_stdout || options.silence_stderr) {
      const int null_fd = ::open("/dev/null", O_WRONLY);
      if (null_fd >= 0) {
        if (options.silence_stdout) ::dup2(null_fd, STDOUT_FILENO);
        if (options.silence_stderr) ::dup2(null_fd, STDERR_FILENO);
        if (null_fd > STDERR_FILENO) ::close(null_fd);
      }
    }
    ::execvpe(argv_ptrs[0], argv_ptrs.data(), env_ptrs.data());
    _exit(127);  // Exec failed; 127 = "command not found" convention.
  }
  pid_ = pid;
  reaped_ = false;
  state_ = ExitState{};
  return Status::Ok();
}

bool Subprocess::TryWait(ExitState* state) {
  if (pid_ <= 0) return false;
  if (reaped_) {
    if (state != nullptr) *state = state_;
    return true;
  }
  int wait_status = 0;
  const pid_t rc = ::waitpid(static_cast<pid_t>(pid_), &wait_status, WNOHANG);
  if (rc == 0) return false;  // Still running.
  if (rc < 0) {
    // ECHILD etc. — treat as an abnormal exit so supervisors make
    // progress instead of spinning on a pid that will never be reapable.
    state_ = ExitState{};
    state_.exited = true;
    state_.code = 126;
  } else {
    state_ = StateFromWaitStatus(wait_status);
  }
  reaped_ = true;
  if (state != nullptr) *state = state_;
  return true;
}

ExitState Subprocess::Wait() {
  ExitState state;
  if (pid_ <= 0) return state;
  if (reaped_) return state_;
  int wait_status = 0;
  pid_t rc;
  do {
    rc = ::waitpid(static_cast<pid_t>(pid_), &wait_status, 0);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    state_ = ExitState{};
    state_.exited = true;
    state_.code = 126;
  } else {
    state_ = StateFromWaitStatus(wait_status);
  }
  reaped_ = true;
  return state_;
}

ExitState Subprocess::Terminate(int grace_ms) {
  if (pid_ <= 0 || reaped_) return state_;
  if (grace_ms > 0) {
    ::kill(static_cast<pid_t>(pid_), SIGTERM);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(grace_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      ExitState state;
      if (TryWait(&state)) return state;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  ::kill(static_cast<pid_t>(pid_), SIGKILL);
  return Wait();
}

std::chrono::milliseconds NextBackoffDelay(std::chrono::milliseconds base,
                                           std::chrono::milliseconds prev,
                                           std::chrono::milliseconds cap,
                                           Rng* rng) {
  if (base.count() <= 0) return std::chrono::milliseconds{0};
  const int64_t lo = base.count();
  const int64_t hi = std::max(lo, prev.count() * 3);
  const int64_t next = rng->NextInRange(lo, hi);
  return std::chrono::milliseconds{std::min(next, cap.count())};
}

bool RestartPacer::RecordDeath(Clock::time_point now) {
  if (max_restarts_ >= 0 && restarts_ >= max_restarts_) return false;
  ++restarts_;
  prev_ = NextBackoffDelay(base_, prev_, cap_, &rng_);
  next_spawn_ = now + prev_;
  return true;
}

}  // namespace culevo
