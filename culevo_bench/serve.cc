// serve_lookup and serve_reload: the real culevod over its Unix socket.
//
// Load comes from one thread of this process, which drives every
// connection (at most three) with non-blocking I/O: it writes pre-encoded
// frames on an open-loop Poisson schedule and reads whatever responses
// have arrived. Latency is measured from each request's scheduled send
// time, so a stall also charges the requests queued behind it. Every 64th
// response (and every admin response) is kept and compared byte for byte
// with an in-process ServiceCore on the same inputs after the timed
// phases.

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <thread>

#include "corpus/corpus_snapshot.h"
#include "corpus/cuisine.h"
#include "corpus/ingestion.h"
#include "lexicon/world_lexicon.h"
#include "service/protocol.h"
#include "service/query_index.h"
#include "service/service_core.h"
#include "util/rng.h"
#include "util/strings.h"
#include "workloads.h"

namespace culevo::cbench {
namespace {

// Request classes. The first seven are the read mixes; the last two ride
// the admin connection of serve_reload.
enum Kind : uint8_t {
  kOverrep,
  kNearest,
  kFreq,
  kStats,
  kRecipe,
  kInfo,
  kSearch,
  kReload,
  kAdminInfo,
};

constexpr const char* kHandleSpans[] = {
    "service_core.Handle.overrep", "service_core.Handle.nearest",
    "service_core.Handle.freq",    "service_core.Handle.stats",
    "service_core.Handle.recipe",  "service_core.Handle.info",
    "service_core.Handle.search",
};
constexpr const char* kHandleMetrics[] = {
    "service_core.handle_us.overrep", "service_core.handle_us.nearest",
    "service_core.handle_us.freq",    "service_core.handle_us.stats",
    "service_core.handle_us.recipe",  "service_core.handle_us.info",
    "service_core.handle_us.search",
};

// serve_lookup: latency at a fixed rate, then throughput at saturation
// with this many requests in flight per connection. The fixed rate is a
// quarter of saturation (60-90k/s on 4 vCPUs), so its latency is mostly
// service time and little queueing, which would amplify every wobble of
// host speed.
constexpr double kLookupRate = 20000;
constexpr int kSaturationWindow = 8;
// serve_reload: read rate and one reload every 2.5 s.
constexpr double kReloadReadRate = 8000;
constexpr double kReloadIntervalS = 2.5;
constexpr size_t kSampleEvery = 64;
// Daemon cold starts per untraced run; setup_s is their median.
constexpr int kColdStarts = 5;

struct Item {
  int conn = 0;
  int64_t offset_ns = 0;  ///< scheduled send, from the phase start
  Kind kind = kInfo;
  // Parameters, kept so the traced replay can call QueryIndex directly.
  CuisineId cuisine = 0;
  int k = 0;
  IngredientId ids[2] = {0, 0};
  std::string request;
  std::string frame;  ///< length prefix + request
};

std::string EncodeFrame(const std::string& payload) {
  const uint32_t len = static_cast<uint32_t>(payload.size());
  std::string frame(4 + payload.size(), '\0');
  for (int b = 0; b < 4; ++b) frame[b] = static_cast<char>((len >> (8 * b)) & 0xFF);
  std::memcpy(frame.data() + 4, payload.data(), payload.size());
  return frame;
}

std::string Code(CuisineId c) { return std::string(CuisineAt(c).code); }

/// Draws requests of the two read mixes.
class Mix {
 public:
  Mix(const ServeInputs& inputs, const RecipeCorpus& world, uint64_t seed)
      : inputs_(inputs), world_(world), rng_(seed) {}

  /// Cheap point lookups: overrep 25%, freq 25%, recipe 20%, nearest 15%,
  /// stats 10%, info 5%.
  Item Lookup() {
    Item item;
    item.cuisine = static_cast<CuisineId>(rng_.NextBounded(kNumCuisines));
    const uint64_t u = rng_.NextBounded(100);
    if (u < 25) {
      item.kind = kOverrep;
      item.k = 1 + static_cast<int>(rng_.NextBounded(10));
      item.request = StrFormat("overrep %s %d", Code(item.cuisine).c_str(), item.k);
    } else if (u < 50) {
      item.kind = kFreq;
      const std::vector<IngredientId>& used = inputs_.used[item.cuisine];
      item.ids[0] = used[rng_.NextBounded(used.size())];
      item.request = StrFormat("freq %s #%u", Code(item.cuisine).c_str(),
                               static_cast<unsigned>(item.ids[0]));
    } else if (u < 70) {
      item.kind = kRecipe;
      item.request = StrFormat(
          "recipe %llu", static_cast<unsigned long long>(
                             rng_.NextBounded(inputs_.num_recipes)));
    } else if (u < 85) {
      item.kind = kNearest;
      item.k = 1 + static_cast<int>(rng_.NextBounded(5));
      item.request = StrFormat("nearest %s %d", Code(item.cuisine).c_str(), item.k);
    } else if (u < 95) {
      item.kind = kStats;
      item.request = "stats " + Code(item.cuisine);
    } else {
      item.kind = kInfo;
      item.request = "info";
    }
    return item;
  }

  /// Postings intersection of two ingredients drawn by popularity (two
  /// ingredients of one resampled recipe), limit=20.
  Item Search() {
    Item item;
    item.kind = kSearch;
    for (;;) {
      const uint32_t r =
          static_cast<uint32_t>(rng_.NextBounded(world_.num_recipes()));
      const auto ids = world_.ingredients_of(r);
      if (ids.size() < 2) continue;
      const size_t a = rng_.NextBounded(ids.size());
      size_t b = rng_.NextBounded(ids.size() - 1);
      if (b >= a) ++b;
      item.ids[0] = std::min(ids[a], ids[b]);
      item.ids[1] = std::max(ids[a], ids[b]);
      break;
    }
    item.request = StrFormat("search #%u,#%u limit=20",
                             static_cast<unsigned>(item.ids[0]),
                             static_cast<unsigned>(item.ids[1]));
    return item;
  }

  /// Exponential inter-arrival gap for a Poisson process of `rate`/s.
  int64_t Gap(double rate) {
    return static_cast<int64_t>(-std::log1p(-rng_.NextDouble()) / rate * 1e9);
  }

  Rng& rng() { return rng_; }

 private:
  const ServeInputs& inputs_;
  const RecipeCorpus& world_;
  Rng rng_;
};

/// Open-loop Poisson script over `conns` connections (round robin).
/// `search_share` of the requests are searches, the rest lookups.
std::vector<Item> ReadScript(Mix* mix, double rate, double seconds, int conns,
                             double search_share) {
  std::vector<Item> script;
  const int64_t end = static_cast<int64_t>(seconds * 1e9);
  int64_t t = mix->Gap(rate);
  for (size_t i = 0; t < end; ++i, t += mix->Gap(rate)) {
    Item item = mix->rng().NextDouble() < search_share ? mix->Search()
                                                       : mix->Lookup();
    item.conn = static_cast<int>(i % static_cast<size_t>(conns));
    item.offset_ns = t;
    item.frame = EncodeFrame(item.request);
    script.push_back(std::move(item));
  }
  return script;
}

/// What one open-loop phase observed, per script item.
struct LoopResult {
  int64_t start_ns = 0;
  std::vector<int64_t> sent_ns;  ///< 0 = never sent (a connection broke)
  std::vector<int64_t> done_ns;  ///< 0 = no response
  std::vector<char> ok;
  std::vector<std::string> responses;  ///< kept items only
  int64_t unexpected_frames = 0;

  int64_t due(const std::vector<Item>& script, size_t i) const {
    return start_ns + script[i].offset_ns;
  }
  /// Milliseconds from scheduled send to response; -1 when none came.
  double LatencyMs(const std::vector<Item>& script, size_t i) const {
    return done_ns[i] == 0 ? -1.0
                           : static_cast<double>(done_ns[i] - due(script, i)) / 1e6;
  }
  /// Requests without an `ok` response, including any never sent because
  /// a connection broke.
  int64_t Failed() const {
    int64_t failed = 0;
    for (char answered_ok : ok) failed += answered_ok ? 0 : 1;
    return failed;
  }
};

bool Keep(const std::vector<Item>& script, size_t i) {
  return i % kSampleEvery == 0 || script[i].kind >= kReload;
}

/// CPU placement. With at least three cores the load generator's one
/// thread owns the highest CPU and the daemon gets one CPU per worker
/// thread from the lowest up (as many as the rest allow), so client and
/// server never queue for one CPU, the generator keeps to its schedule,
/// and the daemon's placement is the same in every run. With fewer cores
/// nothing is pinned.
struct CpuPlan {
  std::vector<int> daemon;
  int client = -1;

  CpuPlan(unsigned cores, int daemon_threads) {
    if (cores < 3) return;
    client = static_cast<int>(cores) - 1;
    for (int c = 0; c < std::min(daemon_threads, client); ++c) daemon.push_back(c);
  }
};

/// Restricts the calling thread to `cpus` (no-op for an empty set).
void PinCallingThread(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  ::pthread_setaffinity_np(::pthread_self(), sizeof(set), &set);
}

/// Incremental parser of the length-prefixed response frames of one
/// connection.
class FrameBuffer {
 public:
  void Append(const char* data, size_t n) {
    if (pos_ > (1u << 20)) {
      buf_.erase(0, pos_);
      pos_ = 0;
    }
    buf_.append(data, n);
  }
  /// The next complete payload, valid until the next Append.
  std::optional<std::string_view> Next() {
    if (buf_.size() - pos_ < 4) return std::nullopt;
    uint32_t len = 0;
    for (int b = 0; b < 4; ++b) {
      len |= static_cast<uint32_t>(static_cast<unsigned char>(buf_[pos_ + b]))
             << (8 * b);
    }
    if (buf_.size() - pos_ - 4 < len) return std::nullopt;
    const std::string_view payload(buf_.data() + pos_ + 4, len);
    pos_ += 4 + len;
    return payload;
  }

 private:
  std::string buf_;
  size_t pos_ = 0;
};

/// One connection of the load generator: non-blocking sends from an
/// outgoing queue and non-blocking reads into a frame parser, so a single
/// thread can drive every connection without ever blocking on one.
class ClientConn {
 public:
  explicit ClientConn(int fd) : fd_(fd) {}

  int fd() const { return fd_; }
  void Queue(const std::string& frame) { out_ += frame; }

  /// Writes whatever the socket accepts now. False on a write error.
  bool Flush() {
    while (out_pos_ < out_.size()) {
      const ssize_t n = ::send(fd_, out_.data() + out_pos_, out_.size() - out_pos_,
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
      out_pos_ += static_cast<size_t>(n);
    }
    out_.clear();
    out_pos_ = 0;
    return true;
  }

  /// Reads whatever has arrived and calls `on_frame(payload)` for every
  /// complete frame. False once the connection is closed or broken.
  template <typename OnFrame>
  bool Drain(std::vector<char>* chunk, OnFrame&& on_frame) {
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk->data(), chunk->size(), MSG_DONTWAIT);
      if (n == 0) return false;
      if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
      in_.Append(chunk->data(), static_cast<size_t>(n));
      while (const std::optional<std::string_view> payload = in_.Next()) {
        on_frame(*payload);
      }
      if (static_cast<size_t>(n) < chunk->size()) return true;
    }
  }

 private:
  int fd_;
  std::string out_;
  size_t out_pos_ = 0;
  FrameBuffer in_;
};

/// Runs `body` on the load generator's thread: pinned to the client CPU
/// when there is one, with a 1 us timer slack for the schedule.
template <typename Body>
void OnClientThread(const CpuPlan& cpus, Body&& body) {
  std::thread client([&] {
    if (cpus.client >= 0) PinCallingThread({cpus.client});
    ::prctl(PR_SET_TIMERSLACK, 1UL);
    body();
  });
  client.join();
}

/// Between loop turns: a pinned client busy-polls (it owns its CPU, and a
/// response must never wait for an idle CPU to wake up); an unpinned one
/// waits for a response or `until_ns`, capped at 1 ms.
void IdleTurn(const CpuPlan& cpus, const std::vector<ClientConn>& conns,
              int64_t until_ns) {
  if (cpus.client >= 0) return;
  std::vector<struct pollfd> pfds;
  for (const ClientConn& conn : conns) pfds.push_back({conn.fd(), POLLIN, 0});
  const int64_t wait_ms = std::clamp<int64_t>((until_ns - NowNs()) / 1'000'000, 0, 1);
  ::poll(pfds.data(), pfds.size(), static_cast<int>(wait_ms));
}

/// Runs `script` open loop over `fds` and waits for every response (or
/// until `grace_s` after the last scheduled send).
LoopResult RunOpenLoop(const std::vector<int>& fds,
                       const std::vector<Item>& script, double grace_s,
                       const CpuPlan& cpus) {
  const size_t n = script.size();
  LoopResult result;
  result.sent_ns.assign(n, 0);
  result.done_ns.assign(n, 0);
  result.ok.assign(n, 0);
  result.responses.resize(n);
  if (n == 0) return result;
  // Responses on one connection come back in request order.
  std::vector<std::vector<size_t>> order(fds.size());
  for (size_t i = 0; i < n; ++i) order[script[i].conn].push_back(i);

  OnClientThread(cpus, [&] {
    std::vector<ClientConn> conns(fds.begin(), fds.end());
    std::vector<size_t> answered(fds.size(), 0);
    std::vector<char> chunk(1 << 16);
    result.start_ns = NowNs() + 5'000'000;
    const int64_t deadline =
        result.due(script, n - 1) + static_cast<int64_t>(grace_s * 1e9);
    size_t next = 0;
    size_t received = 0;
    bool healthy = true;
    while (healthy && received < n && NowNs() < deadline) {
      const int64_t now = NowNs();
      for (; next < n && result.due(script, next) <= now; ++next) {
        conns[script[next].conn].Queue(script[next].frame);
        result.sent_ns[next] = now;
      }
      for (size_t c = 0; c < conns.size() && healthy; ++c) {
        healthy = conns[c].Flush() &&
                  conns[c].Drain(&chunk, [&](std::string_view payload) {
                    if (answered[c] >= order[c].size()) {
                      ++result.unexpected_frames;
                      return;
                    }
                    const size_t i = order[c][answered[c]++];
                    result.done_ns[i] = NowNs();
                    result.ok[i] = payload.rfind("ok ", 0) == 0 ? 1 : 0;
                    if (Keep(script, i) || !result.ok[i]) {
                      result.responses[i] = payload;
                    }
                    ++received;
                  });
      }
      IdleTurn(cpus, conns, next < n ? result.due(script, next) : deadline);
    }
  });
  return result;
}

/// The saturation phase's observations.
struct Saturation {
  int64_t sent = 0;
  int64_t failed = 0;
  double per_s = 0;  ///< completions per second in the steady window
  std::string first_failure;
};

/// Keeps `window` requests in flight on every connection for `seconds`,
/// cycling through `script` (connection = script index mod connections),
/// so the daemon's workers never wait for a request. Completions are
/// counted over the last three quarters of the phase.
Saturation RunSaturated(const std::vector<int>& fds,
                        const std::vector<Item>& script, double seconds,
                        int window, const CpuPlan& cpus) {
  Saturation result;
  OnClientThread(cpus, [&] {
    const size_t nconn = fds.size();
    const size_t cycle = script.size() - script.size() % nconn;
    std::vector<ClientConn> conns(fds.begin(), fds.end());
    std::vector<int64_t> inflight(nconn, 0);
    std::vector<size_t> cursor(nconn);
    for (size_t c = 0; c < nconn; ++c) cursor[c] = c;
    std::vector<char> chunk(1 << 16);
    const int64_t start = NowNs();
    const int64_t stop = start + static_cast<int64_t>(seconds * 1e9);
    const int64_t steady = start + static_cast<int64_t>(0.25 * seconds * 1e9);
    const int64_t deadline = stop + 10'000'000'000;
    int64_t completed = 0;
    bool healthy = true;
    for (;;) {
      const int64_t now = NowNs();
      bool pending = false;
      for (size_t c = 0; c < nconn && healthy; ++c) {
        for (; now < stop && inflight[c] < window; ++inflight[c], ++result.sent) {
          conns[c].Queue(script[cursor[c]].frame);
          cursor[c] = (cursor[c] + nconn) % cycle;
        }
        healthy = conns[c].Flush() &&
                  conns[c].Drain(&chunk, [&](std::string_view payload) {
                    --inflight[c];
                    const int64_t at = NowNs();
                    if (at >= steady && at <= stop) ++completed;
                    if (payload.rfind("ok ", 0) != 0 && result.failed++ == 0) {
                      result.first_failure = payload;
                    }
                  });
        pending = pending || inflight[c] > 0;
      }
      if (!healthy || (now >= stop && !pending) || now >= deadline) break;
      IdleTurn(cpus, conns, now + 1'000'000);
    }
    for (int64_t unanswered : inflight) result.failed += unanswered;
    result.per_s = static_cast<double>(completed) /
                   (static_cast<double>(stop - steady) / 1e9);
  });
  return result;
}

int ConnectUnix(const std::string& path) {
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

Result<std::string> RoundTrip(int fd, const std::string& request) {
  CULEVO_RETURN_IF_ERROR(WriteFrame(fd, request));
  std::string response;
  CULEVO_RETURN_IF_ERROR(ReadFrame(fd, &response, 120000));
  return response;
}

/// Spawns culevod and returns the seconds from spawn to its first
/// answered `ping` (mmap load + index build + bind + one round trip).
Result<double> ColdStart(Subprocess* daemon, const std::string& snapshot,
                         const std::string& socket, int threads,
                         const CpuPlan& cpus) {
  // The child inherits the spawning thread's affinity.
  cpu_set_t saved;
  ::pthread_getaffinity_np(::pthread_self(), sizeof(saved), &saved);
  PinCallingThread(cpus.daemon);
  const int64_t t0 = NowNs();
  const Status started = daemon->Spawn(
      {CULEVOD_PATH, "--socket", socket, "--threads", std::to_string(threads),
       "--load-snapshot", snapshot},
      MeasuredSpawnOptions());
  ::pthread_setaffinity_np(::pthread_self(), sizeof(saved), &saved);
  CULEVO_RETURN_IF_ERROR(started);
  for (;;) {
    const int fd = ConnectUnix(socket);
    if (fd < 0) {
      if (NowNs() - t0 > 120'000'000'000) {
        return Status::DeadlineExceeded("culevod did not come up in 120 s");
      }
      if (daemon->TryWait(nullptr)) {
        return Status::Internal("culevod exited during start-up");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
      continue;
    }
    Result<std::string> pong = RoundTrip(fd, "ping");
    ::close(fd);
    if (!pong.ok()) return pong.status();
    if (*pong != "ok 1\npong\n") {
      return Status::Internal("unexpected ping answer: " + *pong);
    }
    return static_cast<double>(NowNs() - t0) / 1e9;
  }
}

/// The daemon's `metrics` rows: counters and gauges by name, histograms
/// as {count, mean, p50, p99}.
struct DaemonMetrics {
  std::map<std::string, double> values;
  std::map<std::string, std::vector<double>> hists;

  double Value(const std::string& name) const {
    const auto it = values.find(name);
    return it == values.end() ? 0 : it->second;
  }
  double Hist(const std::string& name, size_t field) const {
    const auto it = hists.find(name);
    return it == hists.end() || it->second.size() <= field ? 0
                                                           : it->second[field];
  }
  double HistSum(const std::string& name) const {
    return Hist(name, 0) * Hist(name, 1);
  }
};

Result<DaemonMetrics> FetchMetrics(int fd) {
  Result<std::string> text = RoundTrip(fd, "metrics");
  if (!text.ok()) return text.status();
  DaemonMetrics out;
  for (const std::string& line : Split(*text, '\n')) {
    const std::vector<std::string> f = Split(line, '\t');
    if (f.size() >= 3 && (f[0] == "counter" || f[0] == "gauge")) {
      out.values[f[1]] = std::strtod(f[2].c_str(), nullptr);
    } else if (f.size() >= 6 && f[0] == "hist") {
      for (size_t k = 2; k < 6; ++k) {
        out.hists[f[1]].push_back(std::strtod(f[k].c_str(), nullptr));
      }
    }
  }
  return out;
}

/// One daemon plus its persistent connections, torn down in order.
struct Session {
  Session(unsigned cores, int daemon_threads) : cpus(cores, daemon_threads) {}

  CpuPlan cpus;
  Subprocess daemon;
  std::vector<int> fds;

  ~Session() { Close(); }
  void Close() {
    for (int fd : fds) ::close(fd);
    fds.clear();
    if (daemon.running()) daemon.Terminate(5000);
  }
};

/// Runs `cold_starts` cold starts (the daemon of the last one stays up),
/// reports the median as setup_s, and opens `conns` connections.
Status StartSession(const RunContext& ctx, const ServeInputs& inputs,
                    int threads, int cold_starts, int conns, Session* session,
                    Report* report) {
  const std::string socket = ctx.dir + "/culevod.sock";
  std::vector<double> setups;
  for (int i = 0; i < cold_starts; ++i) {
    if (session->daemon.running()) session->daemon.Terminate(5000);
    Result<double> setup =
        ColdStart(&session->daemon, inputs.snapshot, socket, threads,
                  session->cpus);
    if (!setup.ok()) return setup.status();
    setups.push_back(*setup);
  }
  std::printf("# setup_s cold starts:");
  for (double s : setups) std::printf(" %.4f", s);
  std::printf("\n");
  if (!ctx.trace) report->Set("setup_s", Median(setups));
  for (int c = 0; c < conns; ++c) {
    const int fd = ConnectUnix(socket);
    if (fd < 0) return Status::IOError("cannot connect to culevod");
    session->fds.push_back(fd);
  }
  return Status::Ok();
}

/// Adds a phase's sent and failed requests to the report; any response
/// that is not `ok` (or never came) and any stray frame fails the run.
void CheckCounts(const LoopResult& loop, const std::vector<Item>& script,
                 const char* phase, Report* report) {
  const int64_t failed = loop.Failed();
  report->AddAttempted(static_cast<int64_t>(script.size()));
  report->AddFailed(failed);
  report->Check(loop.unexpected_frames == 0,
                StrFormat("%s: %lld unexpected response frames", phase,
                          static_cast<long long>(loop.unexpected_frames)));
  if (failed > 0) {
    for (size_t i = 0; i < loop.ok.size(); ++i) {
      if (loop.ok[i]) continue;
      report->Check(false, StrFormat("%s: request '%s' got '%s'", phase,
                                     script[i].request.c_str(),
                                     loop.responses[i].substr(0, 200).c_str()));
      break;
    }
    report->Check(false, StrFormat("%s: %lld of %zu requests failed", phase,
                                   static_cast<long long>(failed),
                                   script.size()));
  }
}

/// A kept response awaiting its reference comparison: it was answered by
/// some generation in [lo, hi] (1 = the snapshot, g+1 = after delta g).
struct Pending {
  const Item* item;
  const std::string* response;
  int lo = 1;
  int hi = 1;
  bool matched = false;
};

void AddPending(const LoopResult& loop, const std::vector<Item>& script,
                std::vector<Pending>* pending) {
  for (size_t i = 0; i < script.size(); ++i) {
    if (!loop.responses[i].empty() && loop.ok[i] && script[i].kind < kReload) {
      pending->push_back({&script[i], &loop.responses[i], 1, 1, false});
    }
  }
}

/// Checks every pending response against `reference`, which serves
/// generation `generation`; corrupts the first comparison when asked.
void MatchGeneration(ServiceCore& reference, int generation,
                     std::vector<Pending>* pending, bool* corrupt_next) {
  for (Pending& p : *pending) {
    if (p.matched || generation < p.lo || generation > p.hi) continue;
    std::string expected = reference.Handle(p.item->request);
    if (*corrupt_next && !expected.empty()) {
      expected[expected.size() / 2] ^= 0x20;
      *corrupt_next = false;
    }
    p.matched = expected == *p.response;
  }
}

void ReportUnmatched(const std::vector<Pending>& pending, Report* report) {
  size_t unmatched = 0;
  for (const Pending& p : pending) {
    if (p.matched) continue;
    if (unmatched++ == 0) {
      report->Check(false, StrFormat("response to '%s' differs from the "
                                     "in-process reference",
                                     p.item->request.c_str()));
    }
  }
  std::printf("# reference check: %zu of %zu kept responses identical\n",
              pending.size() - unmatched, pending.size());
  report->Check(!pending.empty(), "no responses were kept for the reference check");
  report->Check(unmatched == 0,
                StrFormat("%zu kept responses differ from the reference",
                          unmatched));
}

/// Open-loop latency summary of read items, plus the generator's lateness.
LatencySummary ReadLatency(const LoopResult& loop,
                           const std::vector<Item>& script,
                           std::vector<double>* lateness_ms,
                           const std::function<bool(size_t)>& include = {}) {
  std::vector<double> samples;
  for (size_t i = 0; i < script.size(); ++i) {
    if (script[i].kind >= kReload || loop.done_ns[i] == 0) continue;
    if (include && !include(i)) continue;
    samples.push_back(loop.LatencyMs(script, i));
    if (lateness_ms != nullptr) {
      lateness_ms->push_back(
          static_cast<double>(loop.sent_ns[i] - loop.due(script, i)) / 1e6);
    }
  }
  return Summarize(std::move(samples));
}

void PrintLatency(const char* what, const LatencySummary& s) {
  std::printf("# %s: n=%zu p50=%.4f p90=%.4f p99=%.4f max=%.4f ms\n", what,
              s.count, s.p50, s.p90, s.p99, s.max);
}

// ---------------------------------------------------------------------------
// Traced run: per-layer numbers.

/// Daemon counters that explain failures and saturation, after a phase
/// that ran `phase_s` seconds on `threads` workers.
void ReportDaemonLayers(const DaemonMetrics& before, const DaemonMetrics& after,
                        double phase_s, int threads, Report* report) {
  report->Set("server.connections", after.Value("serve.connections"));
  report->Set("server.client_timeouts", after.Value("serve.client_timeouts"));
  report->Set("server.accept_errors", after.Value("serve.accept_errors"));
  report->Set("service_core.rejects", after.Value("serve.rejects"));
  report->Set("service_core.errors", after.Value("serve.errors"));
  report->Set("service_core.brownout_sheds", after.Value("serve.brownout.sheds"));
  report->Set("service_core.deadline_drops", after.Value("serve.deadline_drops"));
  const double count = after.Hist("serve.latency_ms", 0) -
                       before.Hist("serve.latency_ms", 0);
  const double busy_ms = after.HistSum("serve.latency_ms") -
                         before.HistSum("serve.latency_ms");
  report->Set("service_core.handle_mean_us",
              count > 0 ? 1000.0 * busy_ms / count : 0);
  report->Set("service_core.handle_p99_us",
              1000.0 * after.Hist("serve.latency_ms", 3));
  report->Set("service_core.busy_share", busy_ms / (phase_s * 1000.0 * threads));
  std::printf("# daemon serve.index.build_ms: n=%.0f mean=%.3f ms\n",
              after.Hist("serve.index.build_ms", 0),
              after.Hist("serve.index.build_ms", 1));
}

/// Closed-loop replay of `script` over one connection, from the client
/// CPU, with a `server.rtt` span per request. Returns the wall seconds.
double SocketReplay(int fd, const std::vector<Item>& script,
                    const CpuPlan& cpus, Tracer* tracer, Report* report) {
  int64_t elapsed = 0;
  OnClientThread(cpus, [&] {
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < script.size(); ++i) {
      const TraceScope span(tracer, "server.rtt", static_cast<int64_t>(i));
      Result<std::string> response = RoundTrip(fd, script[i].request);
      report->Check(response.ok() && response->rfind("ok ", 0) == 0,
                    "traced replay request '" + script[i].request + "' failed");
    }
    elapsed = NowNs() - t0;
  });
  return static_cast<double>(elapsed) / 1e9;
}

/// In-process replay through ServiceCore::Handle (of `core`, serving the
/// snapshot) and the QueryIndex calls behind it, one span per call.
void InProcessReplay(const ServeInputs& inputs, ServiceCore& core,
                     const std::vector<Item>& script, Tracer* tracer,
                     Report* report) {
  Result<LoadedCorpusSnapshot> loaded = [&] {
    const TraceScope span(tracer, "corpus.LoadCorpusSnapshot");
    return LoadCorpusSnapshot(inputs.snapshot);
  }();
  if (!loaded.ok()) {
    report->Check(false, "snapshot load: " + loaded.status().ToString());
    return;
  }
  const QueryIndex index = [&] {
    const TraceScope span(tracer, "query_index.Build");
    return QueryIndex::Build(loaded->corpus);
  }();
  report->Set("corpus.snapshot_load_ms",
              Median(tracer->Durations("corpus.LoadCorpusSnapshot")));
  report->Set("query_index.build_ms", Median(tracer->Durations("query_index.Build")));
  report->Set("corpus.snapshot_mb",
              static_cast<double>(FileBytes(inputs.snapshot)) / (1 << 20));

  for (size_t i = 0; i < script.size(); ++i) {
    const TraceScope span(tracer, kHandleSpans[script[i].kind],
                          static_cast<int64_t>(i));
    core.Handle(script[i].request);
  }
  for (size_t i = 0; i < script.size(); ++i) {
    const Item& item = script[i];
    if (item.kind == kSearch) {
      const TraceScope span(tracer, "query_index.SearchRecipes",
                            static_cast<int64_t>(i));
      index.SearchRecipes(std::span<const IngredientId>(item.ids, 2),
                          std::nullopt, 20);
    } else if (item.kind == kNearest) {
      const TraceScope span(tracer, "query_index.Nearest", static_cast<int64_t>(i));
      index.Nearest(item.cuisine, static_cast<size_t>(item.k));
    } else if (item.kind == kFreq) {
      const TraceScope span(tracer, "query_index.Usage", static_cast<int64_t>(i));
      index.Usage(item.cuisine, item.ids[0]);
    }
  }
  for (size_t k = 0; k < std::size(kHandleSpans); ++k) {
    report->Set(kHandleMetrics[k], 1000.0 * Median(tracer->Durations(kHandleSpans[k])));
  }
  std::vector<double> search = tracer->Durations("query_index.SearchRecipes");
  std::sort(search.begin(), search.end());
  report->Set("query_index.search_us_p50", 1000.0 * NearestRank(search, 0.5));
  report->Set("query_index.search_us_p99", 1000.0 * NearestRank(search, 0.99));
  report->Set("query_index.nearest_us",
              1000.0 * Median(tracer->Durations("query_index.Nearest")));
  report->Set("query_index.usage_us",
              1000.0 * Median(tracer->Durations("query_index.Usage")));
}

/// Traced layers common to both serve workloads: the daemon counters of
/// the open-loop phase, then a socket replay (untraced, then traced: the
/// difference is the tracing overhead) and the in-process replay. Kept
/// responses in `snapshot_answers` were all served by the snapshot's
/// generation and are checked against the in-process core.
void TraceServe(const RunContext& ctx, const ServeInputs& inputs,
                Session* session, Mix* mix, double search_share,
                const DaemonMetrics& before, double phase_s, int threads,
                const LoopResult& loop, const std::vector<Item>& script,
                std::vector<Pending>* snapshot_answers, Tracer* tracer,
                Report* report) {
  std::vector<double> lateness;
  ReadLatency(loop, script, &lateness);
  std::sort(lateness.begin(), lateness.end());
  report->Set("loadgen.lateness_p99_ms", NearestRank(lateness, 0.99));
  const int fd = session->fds[0];
  Result<DaemonMetrics> after_phase = FetchMetrics(fd);
  report->Check(after_phase.ok(), "daemon metrics request failed");
  if (after_phase.ok()) {
    ReportDaemonLayers(before, *after_phase, phase_s, threads, report);
  }

  std::vector<Item> replay;
  for (int i = 0; i < ctx.sizes.trace_requests; ++i) {
    replay.push_back(mix->rng().NextDouble() < search_share ? mix->Search()
                                                            : mix->Lookup());
  }
  // Untraced replays on both sides of the traced one, so warm-up and drift
  // do not land on one side of the overhead.
  double untraced_s = SocketReplay(fd, replay, session->cpus, nullptr, report);
  Result<DaemonMetrics> pre = FetchMetrics(fd);
  double traced_s = 0;
  {
    const TraceScope root(tracer, "bench.socket_replay");
    traced_s = SocketReplay(fd, replay, session->cpus, tracer, report);
  }
  Result<DaemonMetrics> post = FetchMetrics(fd);
  untraced_s =
      0.5 * (untraced_s + SocketReplay(fd, replay, session->cpus, nullptr, report));
  report->Check(pre.ok() && post.ok(), "daemon metrics request failed");
  if (pre.ok() && post.ok()) {
    const double handled = post->Hist("serve.latency_ms", 0) -
                           pre->Hist("serve.latency_ms", 0);
    const double handle_ms = post->HistSum("serve.latency_ms") -
                             pre->HistSum("serve.latency_ms");
    const double rtt_ms = tracer->TotalMs("server.rtt");
    report->Set("server.transport_self_us",
                handled > 0 ? 1000.0 * (rtt_ms - handle_ms) / handled : 0);
  }
  report->Set("trace.overhead_share", traced_s / untraced_s - 1.0);
  session->Close();

  ServiceCore core(&WorldLexicon(), ServiceOptions{});
  report->Check(core.LoadFromFile(inputs.snapshot).ok(), "in-process load");
  if (snapshot_answers != nullptr) {
    bool corrupt = ctx.corrupt_reference;
    MatchGeneration(core, 1, snapshot_answers, &corrupt);
    ReportUnmatched(*snapshot_answers, report);
  }
  const TraceScope root(tracer, "bench.inprocess_replay");
  InProcessReplay(inputs, core, replay, tracer, report);
}

}  // namespace

void RunServeLookup(const RunContext& ctx, Report* report, Tracer* tracer) {
  Result<RecipeCorpus> world = MakeWorld(ctx);
  if (!world.ok()) return report->Check(false, world.status().ToString());
  Result<ServeInputs> inputs = WriteServeInputs(ctx, *world, 0);
  if (!inputs.ok()) return report->Check(false, inputs.status().ToString());
  std::printf("# serve corpus: %zu recipes, snapshot %.1f MiB\n",
              inputs->num_recipes,
              static_cast<double>(FileBytes(inputs->snapshot)) / (1 << 20));
  Mix mix(*inputs, *world, DeriveSeed(ctx.seed, 0x100C));

  constexpr int kThreads = 2;
  Session session(ctx.cores, kThreads);
  if (Status s = StartSession(ctx, *inputs, kThreads, ctx.trace ? 1 : kColdStarts, 2,
                              &session, report);
      !s.ok()) {
    return report->Check(false, "culevod start: " + s.ToString());
  }
  DaemonMetrics before;
  if (ctx.trace) {
    Result<DaemonMetrics> fetched = FetchMetrics(session.fds[0]);
    if (!fetched.ok()) return report->Check(false, fetched.status().ToString());
    before = *fetched;
  }

  // Phase A: latency at a fixed rate.
  const double phase_a_s = (ctx.trace ? 0.3 : 0.4) * ctx.seconds;
  const std::vector<Item> script_a =
      ReadScript(&mix, kLookupRate, phase_a_s, 2, 0.0);
  const LoopResult loop_a = RunOpenLoop(session.fds, script_a, 10.0, session.cpus);
  CheckCounts(loop_a, script_a, "phase A", report);
  const LatencySummary lat = ReadLatency(loop_a, script_a, nullptr);
  PrintLatency("lookup latency at the fixed rate", lat);
  std::vector<Pending> pending;
  AddPending(loop_a, script_a, &pending);

  if (ctx.trace) {
    TraceServe(ctx, *inputs, &session, &mix, 0.0, before, phase_a_s, kThreads,
               loop_a, script_a, &pending, tracer, report);
    return;
  }

  // Phase B: throughput at saturation.
  const std::vector<Item> script_b = ReadScript(&mix, kLookupRate, 2.0, 2, 0.0);
  const Saturation saturated = RunSaturated(session.fds, script_b, 0.6 * ctx.seconds,
                                            kSaturationWindow, session.cpus);
  report->AddAttempted(saturated.sent);
  report->AddFailed(saturated.failed);
  report->Check(saturated.failed == 0,
                StrFormat("saturation: %lld requests failed, first '%s'",
                          static_cast<long long>(saturated.failed),
                          saturated.first_failure.substr(0, 200).c_str()));
  std::printf("# saturation: %lld requests, %.0f/s over the steady window\n",
              static_cast<long long>(saturated.sent), saturated.per_s);
  report->Set("peak_rss_mb", VmHwmMb(session.daemon.pid()));
  session.Close();

  ServiceCore reference(&WorldLexicon(), ServiceOptions{});
  report->Check(reference.LoadFromFile(inputs->snapshot).ok(), "reference load");
  bool corrupt = ctx.corrupt_reference;
  MatchGeneration(reference, 1, &pending, &corrupt);
  ReportUnmatched(pending, report);
}

void RunServeReload(const RunContext& ctx, Report* report, Tracer* tracer) {
  Result<RecipeCorpus> world = MakeWorld(ctx);
  if (!world.ok()) return report->Check(false, world.status().ToString());
  const int reloads =
      std::max(1, static_cast<int>(std::lround(ctx.seconds / kReloadIntervalS)));
  Result<ServeInputs> inputs = WriteServeInputs(ctx, *world, reloads);
  if (!inputs.ok()) return report->Check(false, inputs.status().ToString());
  std::printf("# serve corpus: %zu recipes; %d deltas of %zu recipes\n",
              inputs->num_recipes, reloads, ctx.sizes.delta_recipes);
  Mix mix(*inputs, *world, DeriveSeed(ctx.seed, 0x2E10));

  // Two read connections and an admin connection, each pinned to its own
  // worker thread.
  constexpr int kThreads = 3;
  Session session(ctx.cores, kThreads);
  if (Status s = StartSession(ctx, *inputs, kThreads, ctx.trace ? 1 : kColdStarts, 3,
                              &session, report);
      !s.ok()) {
    return report->Check(false, "culevod start: " + s.ToString());
  }
  DaemonMetrics before;
  if (ctx.trace) {
    Result<DaemonMetrics> fetched = FetchMetrics(session.fds[2]);
    if (!fetched.ok()) return report->Check(false, fetched.status().ToString());
    before = *fetched;
  }

  std::vector<Item> script =
      ReadScript(&mix, kReloadReadRate, ctx.seconds, 2, 0.5);
  for (int d = 0; d < reloads; ++d) {
    Item reload;
    reload.conn = 2;
    reload.kind = kReload;
    reload.offset_ns = static_cast<int64_t>((d + 0.5) * ctx.seconds / reloads * 1e9);
    reload.request = "reload-delta " + inputs->deltas[d];
    reload.frame = EncodeFrame(reload.request);
    // Pipelined behind the reload, so it answers from the new generation.
    Item info = reload;
    info.kind = kAdminInfo;
    info.offset_ns += 1;
    info.request = "info";
    info.frame = EncodeFrame(info.request);
    script.push_back(std::move(reload));
    script.push_back(std::move(info));
  }
  std::stable_sort(script.begin(), script.end(), [](const Item& a, const Item& b) {
    return a.offset_ns < b.offset_ns;
  });
  const LoopResult loop = RunOpenLoop(session.fds, script, 60.0, session.cpus);
  CheckCounts(loop, script, "serve_reload", report);

  // Reload acks, and the generation range each kept read was served from.
  std::vector<int64_t> reload_sent;
  std::vector<int64_t> reload_done;
  std::vector<double> reload_ms;
  std::vector<Pending> admin;
  for (size_t i = 0; i < script.size(); ++i) {
    if (script[i].kind == kReload) {
      const int g = static_cast<int>(reload_sent.size()) + 2;
      reload_sent.push_back(loop.sent_ns[i]);
      reload_done.push_back(loop.done_ns[i] == 0 ? INT64_MAX : loop.done_ns[i]);
      reload_ms.push_back(static_cast<double>(loop.done_ns[i] - loop.sent_ns[i]) / 1e6);
      report->Check(loop.ok[i] && loop.responses[i].find(StrFormat("epoch\t%d\n", g)) !=
                                      std::string::npos,
                    StrFormat("reload %d answered '%s'", g - 1,
                              loop.responses[i].c_str()));
    } else if (script[i].kind == kAdminInfo && loop.ok[i]) {
      const int g = static_cast<int>(reload_sent.size()) + 1;
      admin.push_back({&script[i], &loop.responses[i], g, g, false});
    }
  }
  std::vector<Pending> pending;
  AddPending(loop, script, &pending);
  for (Pending& p : pending) {
    const size_t i = static_cast<size_t>(p.item - script.data());
    for (size_t d = 0; d < reload_sent.size(); ++d) {
      if (reload_done[d] < loop.sent_ns[i]) p.lo = static_cast<int>(d) + 2;
      if (reload_sent[d] < loop.done_ns[i]) p.hi = static_cast<int>(d) + 2;
    }
  }
  pending.insert(pending.end(), admin.begin(), admin.end());

  // The gated read latency is that of reads sent while no reload is in
  // flight: the search and lookup path over generations that keep being
  // replaced. Reads that overlap a reload are printed too, but on a loaded
  // shared virtual machine they stall for milliseconds behind the reload,
  // by an amount that varies tenfold with the host's load from one run to
  // the next.
  const auto during_reload = [&](size_t i) {
    for (size_t d = 0; d < reload_sent.size(); ++d) {
      if (loop.sent_ns[i] >= reload_sent[d] && loop.sent_ns[i] <= reload_done[d]) {
        return true;
      }
    }
    return false;
  };
  const LatencySummary lat = ReadLatency(
      loop, script, nullptr, [&](size_t i) { return !during_reload(i); });
  PrintLatency("read latency between reloads", lat);
  PrintLatency("read latency during reloads",
               ReadLatency(loop, script, nullptr, during_reload));
  std::printf("# reload-delta RTT ms:");
  for (double ms : reload_ms) std::printf(" %.2f", ms);
  std::printf(" (n=%zu, max %.2f)\n", reload_ms.size(),
              *std::max_element(reload_ms.begin(), reload_ms.end()));

  if (ctx.trace) {
    TraceServe(ctx, *inputs, &session, &mix, 0.5, before, ctx.seconds,
               kThreads, loop, script, nullptr, tracer, report);
    // The delta path in process: load, apply, rebuild the index.
    Result<LoadedCorpusSnapshot> base = LoadCorpusSnapshot(inputs->snapshot);
    if (!base.ok()) return report->Check(false, base.status().ToString());
    const TraceScope root(tracer, "bench.delta_replay");
    Result<CorpusDelta> delta = [&] {
      const TraceScope span(tracer, "corpus.LoadCorpusDelta");
      return LoadCorpusDelta(inputs->deltas[0]);
    }();
    if (!delta.ok()) return report->Check(false, delta.status().ToString());
    Result<RecipeCorpus> next = [&]() -> Result<RecipeCorpus> {
      const TraceScope span(tracer, "corpus.ApplyDelta");
      IncrementalCorpus incremental =
          IncrementalCorpus::FromCorpus(base->corpus, base->stats);
      for (const CorpusDeltaRecord& record : delta->records) {
        CULEVO_RETURN_IF_ERROR(incremental.Add(record.cuisine, record.ingredients));
      }
      return incremental.Materialize();
    }();
    if (!next.ok()) return report->Check(false, next.status().ToString());
    {
      const TraceScope span(tracer, "query_index.Build");
      QueryIndex::Build(*next);
    }
    const double load_ms = tracer->TotalMs("corpus.LoadCorpusDelta");
    const double apply_ms = tracer->TotalMs("corpus.ApplyDelta");
    const std::vector<double> builds = tracer->Durations("query_index.Build");
    report->Set("corpus.delta_load_ms", load_ms);
    report->Set("corpus.delta_apply_ms", apply_ms);
    report->Set("corpus.delta_mb",
                static_cast<double>(FileBytes(inputs->deltas[0])) / (1 << 20));
    report->Set("service_core.install_ms",
                Median(reload_ms) - load_ms - apply_ms - builds.back());
    return;
  }
  // Delta recipes installed per second of reload (every delta has the
  // same size; the median RTT discards the first reload's page faults).
  std::printf("# reload throughput: %.0f delta recipes/s of the median RTT\n",
              static_cast<double>(ctx.sizes.delta_recipes) / (Median(reload_ms) / 1e3));
  report->Set("peak_rss_mb", VmHwmMb(session.daemon.pid()));
  session.Close();

  // Advance an in-process reference through the same chain and match
  // every kept response against the generations that could have served it.
  ServiceCore reference(&WorldLexicon(), ServiceOptions{});
  report->Check(reference.LoadFromFile(inputs->snapshot).ok(), "reference load");
  bool corrupt = ctx.corrupt_reference;
  MatchGeneration(reference, 1, &pending, &corrupt);
  for (int d = 0; d < reloads; ++d) {
    report->Check(reference.ReloadDelta(inputs->deltas[d]).ok(),
                  "reference reload-delta");
    MatchGeneration(reference, d + 2, &pending, &corrupt);
  }
  ReportUnmatched(pending, report);
}

}  // namespace culevo::cbench
