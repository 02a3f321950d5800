#include "harness.h"

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/strings.h"

namespace culevo::cbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double NearestRank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return sorted[rank - 1];
}

LatencySummary Summarize(std::vector<double> samples) {
  LatencySummary s;
  std::sort(samples.begin(), samples.end());
  s.count = samples.size();
  if (samples.empty()) return s;
  s.p50 = NearestRank(samples, 0.5);
  s.p90 = NearestRank(samples, 0.9);
  s.p99 = NearestRank(samples, 0.99);
  s.max = samples.back();
  return s;
}

// Latency and throughput are printed by every untraced run (`#` lines)
// but are not end-to-end metrics: on the shared 4-vCPU host they were
// measured on, host speed alone moved them by 15-25% between sets of
// identical runs, more than the 10% by which a metric may worsen. Compare
// them with the paired protocol in README.md instead.
const std::vector<MetricSpec> kEndToEndMetrics = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

const std::vector<MetricSpec> kPerLayerMetrics = {
    // service.server / service.protocol
    {"server.transport_self_us", "us"},
    {"server.connections", "count"},
    {"server.client_timeouts", "count"},
    {"server.accept_errors", "count"},
    {"loadgen.lateness_p99_ms", "ms"},
    // service.service_core
    {"service_core.handle_mean_us", "us"},
    {"service_core.handle_p99_us", "us"},
    {"service_core.busy_share", "share"},
    {"service_core.rejects", "count"},
    {"service_core.errors", "count"},
    {"service_core.brownout_sheds", "count"},
    {"service_core.deadline_drops", "count"},
    {"service_core.handle_us.overrep", "us"},
    {"service_core.handle_us.nearest", "us"},
    {"service_core.handle_us.freq", "us"},
    {"service_core.handle_us.stats", "us"},
    {"service_core.handle_us.recipe", "us"},
    {"service_core.handle_us.info", "us"},
    {"service_core.handle_us.search", "us"},
    {"service_core.install_ms", "ms"},
    // service.query_index
    {"query_index.build_ms", "ms"},
    {"query_index.search_us_p50", "us"},
    {"query_index.search_us_p99", "us"},
    {"query_index.nearest_us", "us"},
    {"query_index.usage_us", "us"},
    // corpus
    {"corpus.snapshot_load_ms", "ms"},
    {"corpus.delta_load_ms", "ms"},
    {"corpus.delta_apply_ms", "ms"},
    {"corpus.snapshot_mb", "MiB"},
    {"corpus.delta_mb", "MiB"},
    // core
    {"core.context_ms", "ms"},
    {"core.generate_ms", "ms"},
    {"core.mutation_accept_ratio", "share"},
    {"core.items_generated", "count"},
    // analysis
    {"analysis.transactions_ms", "ms"},
    {"analysis.eclat_ms", "ms"},
    {"analysis.eclat_itemsets", "count"},
    {"analysis.eclat_intersections", "count"},
    {"analysis.early_abort_ratio", "share"},
    {"analysis.empirical_ms", "ms"},
    {"analysis.aggregate_ms", "ms"},
    // util.thread_pool
    {"thread_pool.idle_share", "share"},
    {"thread_pool.task_p99_ms", "ms"},
    {"thread_pool.tasks", "count"},
    // exec / util.checkpoint
    {"exec.dispatch_ms", "ms"},
    {"exec.merge_ms", "ms"},
    {"exec.spawn_ms", "ms"},
    {"exec.worker_compute_ms", "ms"},
    {"exec.shard_imbalance", "ratio"},
    {"exec.tail_ms", "ms"},
    {"exec.workers_spawned", "count"},
    {"exec.worker_retries", "count"},
    {"exec.worker_stalls", "count"},
    {"checkpoint.bytes", "bytes"},
    // the trace itself
    {"trace.overhead_share", "share"},
    {"trace.coverage_share", "share"},
};

namespace {

const MetricSpec* FindSpec(const std::string& name) {
  for (const auto* catalog : {&kEndToEndMetrics, &kPerLayerMetrics}) {
    for (const MetricSpec& spec : *catalog) {
      if (name == spec.name) return &spec;
    }
  }
  return nullptr;
}

}  // namespace

void Report::Set(const std::string& name, double value) {
  if (FindSpec(name) == nullptr) {
    std::fprintf(stderr, "internal error: unknown metric %s\n", name.c_str());
    std::abort();
  }
  values_[name] = std::isfinite(value) ? value : 0.0;
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void Report::Print(std::FILE* out,
                   const std::vector<MetricSpec>& catalog) const {
  for (const MetricSpec& spec : catalog) {
    const auto it = values_.find(spec.name);
    if (it == values_.end()) continue;
    std::fprintf(out, "metric %-34s %16.6f %s\n", spec.name, it->second,
                 spec.unit);
  }
}

std::string Report::Json(const std::vector<MetricSpec>& catalog) const {
  // Written by hand rather than through JsonWriter, which rounds numbers
  // to ten digits: values go out with all 17 significant digits. Metric
  // names and units are plain identifiers, so nothing needs escaping.
  std::string metrics;
  for (const MetricSpec& spec : catalog) {
    const auto it = values_.find(spec.name);
    if (!metrics.empty()) metrics += ", ";
    metrics += StrFormat("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                         spec.name, it == values_.end() ? 0.0 : it->second,
                         spec.unit);
  }
  return StrFormat(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}",
      correct_ ? "true" : "false", static_cast<long long>(attempted_),
      static_cast<long long>(failed_), metrics.c_str());
}

SpawnOptions MeasuredSpawnOptions() {
  SpawnOptions options;
  options.silence_stdout = true;
  return options;
}

double VmHwmMb(int64_t pid) {
  std::ifstream in(StrFormat("/proc/%lld/status", static_cast<long long>(pid)));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

Result<KeyValues> ReadKeyValues(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound(StrFormat("no result file %s", path.c_str()));
  KeyValues kv;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    if (!(fields >> key) || key[0] == '#') continue;
    std::vector<std::string>& values = kv[key];
    std::string value;
    while (fields >> value) values.push_back(value);
  }
  return kv;
}

double KvNumber(const KeyValues& kv, const std::string& key) {
  const auto it = kv.find(key);
  if (it == kv.end() || it->second.empty()) return 0;
  return std::strtod(it->second[0].c_str(), nullptr);
}

std::vector<double> KvNumbers(const KeyValues& kv, const std::string& key) {
  std::vector<double> out;
  const auto it = kv.find(key);
  if (it == kv.end()) return out;
  out.reserve(it->second.size());
  for (const std::string& v : it->second) {
    out.push_back(std::strtod(v.c_str(), nullptr));
  }
  return out;
}

std::vector<int64_t> KvInts(const KeyValues& kv, const std::string& key) {
  std::vector<int64_t> out;
  const auto it = kv.find(key);
  if (it == kv.end()) return out;
  out.reserve(it->second.size());
  for (const std::string& v : it->second) {
    out.push_back(std::strtoll(v.c_str(), nullptr, 10));
  }
  return out;
}

int64_t FileBytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<int64_t>(st.st_size)
                                        : 0;
}

}  // namespace culevo::cbench
