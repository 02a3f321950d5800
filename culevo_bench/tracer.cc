#include "tracer.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "harness.h"
#include "util/csv.h"
#include "util/strings.h"

namespace culevo::cbench {
namespace {

std::string LayerOf(const char* name) {
  const std::string_view view(name);
  return std::string(view.substr(0, view.find('.')));
}

}  // namespace

uint64_t Tracer::Open(const char* name, int64_t ref) {
  if (!enabled_) return 0;
  Span span;
  span.name = name;
  span.id = spans_.size() + 1;
  span.parent = open_.empty() ? 0 : open_.back();
  span.ref = ref;
  span.start_ns = NowNs();
  spans_.push_back(span);
  open_.push_back(span.id);
  return span.id;
}

void Tracer::Close(uint64_t id) {
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

uint64_t Tracer::Add(const char* name, int64_t start_ns, int64_t end_ns,
                     uint64_t parent, int64_t ref, int64_t pid) {
  if (!enabled_) return 0;
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.ref = ref;
  span.pid = pid;
  spans_.push_back(span);
  return span.id;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) out.push_back(span.ms());
  }
  return out;
}

double Tracer::TotalMs(const std::string& name) const {
  double total = 0;
  for (const Span& span : spans_) {
    if (name == span.name) total += span.ms();
  }
  return total;
}

std::vector<LayerTime> Tracer::SelfTimeByLayer() const {
  // Children of each span, as clipped [start, end) intervals; the union
  // of a span's children is what its self time excludes.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& span : spans_) {
    if (span.parent == 0 || span.parent > spans_.size()) continue;
    const Span& parent = spans_[span.parent - 1];
    const int64_t start = std::max(span.start_ns, parent.start_ns);
    const int64_t end = std::min(span.end_ns, parent.end_ns);
    if (end > start) children[span.parent - 1].push_back({start, end});
  }
  std::map<std::string, LayerTime> by_layer;
  for (size_t i = 0; i < spans_.size(); ++i) {
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = INT64_MIN;
    for (const auto& [start, end] : kids) {
      const int64_t from = std::max(start, cursor);
      if (end > from) covered += end - from;
      cursor = std::max(cursor, end);
    }
    const std::string layer = LayerOf(spans_[i].name);
    LayerTime& entry = by_layer[layer];
    entry.layer = layer;
    entry.self_ms +=
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns - covered) /
        1e6;
    ++entry.spans;
  }
  std::vector<LayerTime> out;
  for (auto& [layer, entry] : by_layer) out.push_back(entry);
  std::sort(out.begin(), out.end(), [](const LayerTime& a, const LayerTime& b) {
    return a.self_ms > b.self_ms;
  });
  return out;
}

double Tracer::RootWallMs() const {
  double total = 0;
  for (const Span& span : spans_) {
    if (span.parent == 0) total += span.ms();
  }
  return total;
}

double Tracer::Coverage() const {
  const double wall = RootWallMs();
  if (wall <= 0) return 0;
  double unattributed = 0;
  for (const LayerTime& layer : SelfTimeByLayer()) {
    if (layer.layer == "bench") unattributed += layer.self_ms;
  }
  return 1.0 - unattributed / wall;
}

void Tracer::PrintSelfTimeTable(std::FILE* out) const {
  const double wall = RootWallMs();
  std::fprintf(out, "# self time by layer (traced wall %.1f ms)\n", wall);
  std::fprintf(out, "#   %-14s %12s %8s %9s\n", "layer", "self_ms", "share",
               "spans");
  for (const LayerTime& layer : SelfTimeByLayer()) {
    std::fprintf(out, "#   %-14s %12.3f %7.1f%% %9lld\n", layer.layer.c_str(),
                 layer.self_ms, wall > 0 ? 100.0 * layer.self_ms / wall : 0.0,
                 static_cast<long long>(layer.spans));
  }
  std::fprintf(out, "#   layers account for %.1f%% of the traced wall time\n",
               100.0 * Coverage());
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  int64_t origin = INT64_MAX;
  for (const Span& span : spans_) origin = std::min(origin, span.start_ns);
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out += StrFormat(
        "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
        "\"dur\": %.3f, \"pid\": %lld, \"tid\": 1, \"args\": {\"id\": %llu, "
        "\"parent\": %llu, \"ref\": %lld}}%s\n",
        span.name, LayerOf(span.name).c_str(),
        static_cast<double>(span.start_ns - origin) / 1e3,
        static_cast<double>(span.end_ns - span.start_ns) / 1e3,
        static_cast<long long>(span.pid),
        static_cast<unsigned long long>(span.id),
        static_cast<unsigned long long>(span.parent),
        static_cast<long long>(span.ref), i + 1 < spans_.size() ? "," : "");
  }
  out += "]}\n";
  return WriteStringToFile(path, out);
}

}  // namespace culevo::cbench
