#include "util/failpoint.h"

#include <climits>
#include <cstdio>
#include <cstdlib>

#include "obs/metrics.h"
#include "util/strings.h"

namespace culevo {
namespace {

/// Counts malformed CULEVO_FAILPOINTS / ArmFromSpec entries, so a fault
/// run whose spec silently did less than asked is visible in telemetry.
obs::Counter* ParseErrors() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Get().counter("failpoint.parse_errors");
  return counter;
}

}  // namespace

std::atomic<int> Failpoints::armed_count_{0};

Failpoints& Failpoints::Get() {
  static Failpoints* instance = new Failpoints();
  return *instance;
}

namespace {
// The unarmed fast path reads only armed_count_ and never constructs the
// registry, so the CULEVO_FAILPOINTS parsing in the constructor would be
// skipped in any process that only ever *evaluates* failpoints. Force
// construction at startup when the variable is set.
[[maybe_unused]] const bool env_arm_trigger = [] {
  if (const char* env = std::getenv("CULEVO_FAILPOINTS");
      env != nullptr && *env != '\0') {
    Failpoints::Get();
  }
  return true;
}();
}  // namespace

Failpoints::Failpoints() {
  // Environment arming lets release binaries run the fault suite without
  // a test harness. Malformed entries are warned about (per entry, by
  // ArmFromSpec) and counted in failpoint.parse_errors; the well-formed
  // entries still arm, so a typo degrades the fault plan loudly instead
  // of killing the process before it does any work.
  if (const char* env = std::getenv("CULEVO_FAILPOINTS");
      env != nullptr && *env != '\0') {
    if (Status status = ArmFromSpec(env); !status.ok()) {
      std::fprintf(stderr,
                   "CULEVO_FAILPOINTS: malformed entries were skipped "
                   "(first: %s)\n",
                   status.ToString().c_str());
    }
  }
}

void Failpoints::Arm(const std::string& name, ArmSpec spec) {
  std::lock_guard<std::mutex> lock(mu_);
  State& state = points_[name];
  if (!state.armed) armed_count_.fetch_add(1, std::memory_order_relaxed);
  state.spec = std::move(spec);
  state.armed = true;
  state.hits = 0;
  state.fired = 0;
}

void Failpoints::Disarm(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(name);
  if (it == points_.end() || !it->second.armed) return;
  it->second.armed = false;
  armed_count_.fetch_sub(1, std::memory_order_relaxed);
}

void Failpoints::DisarmAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, state] : points_) {
    if (state.armed) {
      state.armed = false;
      armed_count_.fetch_sub(1, std::memory_order_relaxed);
    }
    state.hits = 0;
    state.fired = 0;
  }
}

int64_t Failpoints::HitCount(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(name);
  return it == points_.end() ? 0 : it->second.hits;
}

Status Failpoints::EvalSlow(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(name);
  if (it == points_.end() || !it->second.armed) return Status::Ok();
  State& state = it->second;
  const int64_t hit = state.hits++;
  if (hit < state.spec.skip) return Status::Ok();
  if (state.spec.fires >= 0 && state.fired >= state.spec.fires) {
    return Status::Ok();
  }
  ++state.fired;
  return state.spec.status;
}

namespace {

/// Parses a spec count: a decimal in [0, INT_MAX].
bool ParseCount(std::string_view text, int* out) {
  long long value = 0;
  if (!ParseInt64(text, &value) || value < 0 || value > INT_MAX) return false;
  *out = static_cast<int>(value);
  return true;
}

/// Parses one `name[=skip][*fires]` entry into (name, spec).
Status ParseArmEntry(std::string_view entry, std::string* out_name,
                     Failpoints::ArmSpec* out_spec) {
  std::string_view name = entry;
  Failpoints::ArmSpec arm;
  // `name[=skip][*fires]` — both numbers optional, in that order.
  const size_t star = name.find('*');
  std::string_view fires_str;
  if (star != std::string_view::npos) {
    fires_str = name.substr(star + 1);
    name = name.substr(0, star);
  }
  const size_t eq = name.find('=');
  std::string_view skip_str;
  if (eq != std::string_view::npos) {
    skip_str = name.substr(eq + 1);
    name = name.substr(0, eq);
  }
  if (name.empty()) {
    return Status::InvalidArgument(
        StrFormat("failpoint spec entry '%.*s' has no name",
                  static_cast<int>(entry.size()), entry.data()));
  }
  if (!skip_str.empty() && !ParseCount(skip_str, &arm.skip)) {
    return Status::InvalidArgument(
        StrFormat("failpoint '%.*s': bad skip count '%.*s'",
                  static_cast<int>(name.size()), name.data(),
                  static_cast<int>(skip_str.size()), skip_str.data()));
  }
  if (!fires_str.empty() && !ParseCount(fires_str, &arm.fires)) {
    return Status::InvalidArgument(
        StrFormat("failpoint '%.*s': bad fire count '%.*s'",
                  static_cast<int>(name.size()), name.data(),
                  static_cast<int>(fires_str.size()), fires_str.data()));
  }
  arm.status = Status::IOError(
      StrFormat("injected failure at failpoint '%.*s'",
                static_cast<int>(name.size()), name.data()));
  *out_name = std::string(name);
  *out_spec = std::move(arm);
  return Status::Ok();
}

}  // namespace

Status Failpoints::ArmFromSpec(std::string_view spec) {
  Status first_error;
  for (const std::string& raw : Split(spec, ';')) {
    for (const std::string& part : Split(raw, ',')) {
      const std::string_view entry = Trim(part);
      if (entry.empty()) continue;
      std::string name;
      ArmSpec arm;
      if (Status status = ParseArmEntry(entry, &name, &arm); !status.ok()) {
        // A malformed entry degrades the fault plan — skip it loudly
        // (stderr + metric) and keep arming the rest, so one typo does
        // not silently disable every later entry.
        std::fprintf(stderr, "warning: ignoring failpoint spec entry: %s\n",
                     status.ToString().c_str());
        ParseErrors()->Increment();
        if (first_error.ok()) first_error = std::move(status);
        continue;
      }
      Arm(name, std::move(arm));
    }
  }
  return first_error;
}

}  // namespace culevo
