// Protocol and parser robustness: hostile bytes on the wire (truncated,
// oversize, zero-length, garbage frames), malformed request tokens, and
// fd-table exhaustion on the accept path. Every case must map to the
// documented error taxonomy — never a crash, hang, or silent wrong
// answer. Runs under the asan-ubsan preset, where "no crash" means no
// UB either.

#include <cerrno>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/service_core.h"
#include "lexicon/world_lexicon.h"
#include "util/strings.h"

namespace culevo {
namespace {

constexpr CuisineId kA = 0;

std::string Code(CuisineId c) { return std::string(CuisineAt(c).code); }

RecipeCorpus TinyCorpus() {
  RecipeCorpus::Builder builder;
  EXPECT_TRUE(builder.Add(kA, {1, 2, 3}).ok());
  EXPECT_TRUE(builder.Add(kA, {2, 4}).ok());
  return builder.Build();
}

/// A connected AF_UNIX stream pair: writes on `a` are reads on `b`.
struct SocketPair {
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fd), 0); }
  ~SocketPair() {
    if (fd[0] >= 0) ::close(fd[0]);
    if (fd[1] >= 0) ::close(fd[1]);
  }
  void CloseA() {
    ::close(fd[0]);
    fd[0] = -1;
  }
  int a() const { return fd[0]; }
  int b() const { return fd[1]; }
  int fd[2] = {-1, -1};
};

void WriteRaw(int fd, const void* data, size_t size) {
  ASSERT_EQ(::write(fd, data, size), static_cast<ssize_t>(size));
}

// --- ReadFrame taxonomy: every way a frame can be hostile -------------------

TEST(FrameTaxonomyTest, OversizeLengthPrefixIsRefusedBeforeAllocation) {
  SocketPair pair;
  const uint32_t huge = kMaxFrameBytes + 1;
  uint8_t prefix[4] = {static_cast<uint8_t>(huge & 0xFF),
                       static_cast<uint8_t>((huge >> 8) & 0xFF),
                       static_cast<uint8_t>((huge >> 16) & 0xFF),
                       static_cast<uint8_t>((huge >> 24) & 0xFF)};
  WriteRaw(pair.a(), prefix, sizeof(prefix));
  std::string payload;
  EXPECT_EQ(ReadFrame(pair.b(), &payload).code(),
            StatusCode::kInvalidArgument);
}

TEST(FrameTaxonomyTest, GarbageAllOnesPrefixIsInvalidArgument) {
  SocketPair pair;
  const uint8_t prefix[4] = {0xFF, 0xFF, 0xFF, 0xFF};  // ~4 GiB claim
  WriteRaw(pair.a(), prefix, sizeof(prefix));
  std::string payload;
  EXPECT_EQ(ReadFrame(pair.b(), &payload).code(),
            StatusCode::kInvalidArgument);
}

TEST(FrameTaxonomyTest, MidFrameEofIsDataLoss) {
  SocketPair pair;
  const uint8_t prefix[4] = {10, 0, 0, 0};  // claims 10 payload bytes
  WriteRaw(pair.a(), prefix, sizeof(prefix));
  WriteRaw(pair.a(), "abc", 3);  // ...delivers 3, then hangs up
  pair.CloseA();
  std::string payload;
  EXPECT_EQ(ReadFrame(pair.b(), &payload).code(), StatusCode::kDataLoss);
}

TEST(FrameTaxonomyTest, TruncatedLengthPrefixIsDataLoss) {
  SocketPair pair;
  const uint8_t partial[2] = {10, 0};  // half a length prefix
  WriteRaw(pair.a(), partial, sizeof(partial));
  pair.CloseA();
  std::string payload;
  EXPECT_EQ(ReadFrame(pair.b(), &payload).code(), StatusCode::kDataLoss);
}

TEST(FrameTaxonomyTest, CleanEofIsNotFound) {
  SocketPair pair;
  pair.CloseA();
  std::string payload;
  EXPECT_EQ(ReadFrame(pair.b(), &payload).code(), StatusCode::kNotFound);
}

TEST(FrameTaxonomyTest, MidFrameStallIsDeadlineExceeded) {
  SocketPair pair;
  const uint8_t prefix[4] = {16, 0, 0, 0};
  WriteRaw(pair.a(), prefix, sizeof(prefix));  // frame never completes
  std::string payload;
  EXPECT_EQ(ReadFrame(pair.b(), &payload, /*timeout_ms=*/100).code(),
            StatusCode::kDeadlineExceeded);
}

TEST(FrameTaxonomyTest, ZeroLengthFrameRoundTrips) {
  SocketPair pair;
  ASSERT_TRUE(WriteFrame(pair.a(), "").ok());
  std::string payload = "sentinel";
  ASSERT_TRUE(ReadFrame(pair.b(), &payload).ok());
  EXPECT_TRUE(payload.empty());
}

TEST(FrameTaxonomyTest, WriteRefusesOversizePayload) {
  SocketPair pair;
  const std::string oversize(kMaxFrameBytes + 1, 'x');
  EXPECT_EQ(WriteFrame(pair.a(), oversize).code(),
            StatusCode::kInvalidArgument);
}

TEST(FrameTaxonomyTest, MaxSizePayloadRoundTrips) {
  SocketPair pair;
  const std::string big(kMaxFrameBytes, 'y');
  // Full-duplex pair: a reader thread drains while the writer fills, so
  // the 1 MiB frame cannot deadlock on the socket buffer.
  std::string payload;
  Status read = Status::Internal("never read");
  std::thread reader(
      [&] { read = ReadFrame(pair.b(), &payload, /*timeout_ms=*/10000); });
  EXPECT_TRUE(WriteFrame(pair.a(), big).ok());
  reader.join();
  ASSERT_TRUE(read.ok()) << read;
  EXPECT_EQ(payload, big);
}

// --- Request-grammar taxonomy: hostile payloads through Handle --------------

class RequestTaxonomyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core_ = std::make_unique<ServiceCore>(&WorldLexicon(), ServiceOptions{});
    ASSERT_TRUE(core_->InstallCorpus(TinyCorpus(), "<test>").ok());
  }
  std::string Handle(const std::string& request) {
    return core_->Handle(request);
  }
  std::unique_ptr<ServiceCore> core_;
};

TEST_F(RequestTaxonomyTest, MalformedDeadlineTokens) {
  // Non-numeric, empty, trailing junk, and overflowing deadline values
  // are all InvalidArgument — never treated as "no deadline".
  for (const std::string bad :
       {"abc", "", "12x", "99999999999999999999", "1.5", "+-3"}) {
    const std::string response = Handle("ping deadline_ms=" + bad);
    EXPECT_TRUE(StartsWith(response, "error InvalidArgument"))
        << "deadline_ms=" << bad << " -> " << response;
  }
}

TEST_F(RequestTaxonomyTest, MalformedIngredientIdTokens) {
  EXPECT_TRUE(StartsWith(Handle("freq " + Code(kA) + " #"),
                         "error InvalidArgument"));
  EXPECT_TRUE(StartsWith(Handle("freq " + Code(kA) + " #x1"),
                         "error InvalidArgument"));
  // Well-formed but out-of-lexicon: NotFound, distinct from a parse error.
  EXPECT_TRUE(StartsWith(Handle("freq " + Code(kA) + " #999999"),
                         "error NotFound"));
}

TEST_F(RequestTaxonomyTest, UnknownOptionsAndCommands) {
  EXPECT_TRUE(StartsWith(Handle("ping frobnicate=1"),
                         "error InvalidArgument"));
  EXPECT_TRUE(StartsWith(Handle("selfdestruct"), "error InvalidArgument"));
  EXPECT_TRUE(StartsWith(Handle(""), "error InvalidArgument"));
  EXPECT_TRUE(StartsWith(Handle("   "), "error InvalidArgument"));
}

TEST_F(RequestTaxonomyTest, GarbageBytesNeverCrash) {
  // Binary noise, embedded NULs, control characters, pathological
  // lengths: each must come back as a well-formed error frame.
  std::vector<std::string> payloads = {
      std::string("\xFF\xFE\x00\x01\x7F", 5),
      std::string(1000, '\0'),
      std::string("overrep \x01\x02\x03"),
      std::string("search ") + std::string(5000, ','),
      std::string(100000, 'A'),
      "simulate\t\n\r\v ",
      "recipe -9223372036854775808",
  };
  for (const std::string& payload : payloads) {
    const std::string response = Handle(payload);
    EXPECT_TRUE(StartsWith(response, "error "))
        << "payload of " << payload.size() << " bytes -> " << response;
  }
}

// A deadline that ends past the clock's range is no deadline, whether the
// request or the service default sets it: it must not wrap into the past
// and refuse the request at admission.
TEST(RequestDeadlineTest, DeadlinePastTheClockRangeNeverExpires) {
  const struct {
    int64_t default_deadline_ms;
    std::string request;
  } cases[] = {{0, "ping deadline_ms=9223372036854775807"},
               {INT64_MAX, "ping"}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.request);
    ServiceOptions options;
    options.default_deadline_ms = c.default_deadline_ms;
    ServiceCore core(&WorldLexicon(), options);
    ASSERT_TRUE(core.InstallCorpus(TinyCorpus(), "<test>").ok());
    EXPECT_EQ(core.Handle(c.request), "ok 1\npong\n");
  }
}

// --- fd exhaustion on the accept path ---------------------------------------

// EMFILE on accept() is load, not a bug: the server must count it, back
// off, and resume serving the moment descriptors free up — not spin, not
// die, not leak the pending connection.
TEST(AcceptExhaustionTest, EmfileBacksOffAndRecovers) {
  const std::string socket_path = testing::TempDir() + "culevo_emfile_" +
                                  std::to_string(::getpid()) + ".sock";
  ServiceCore core(&WorldLexicon(), ServiceOptions{});
  ASSERT_TRUE(core.InstallCorpus(TinyCorpus(), "<test>").ok());
  ServerOptions options;
  options.socket_path = socket_path;
  options.threads = 2;
  SocketServer server(&core, options);
  ASSERT_TRUE(server.Start().ok());

  const auto connect_client = [&socket_path]() {
    const Result<int> fd = ConnectUnixSocket(socket_path);
    return fd.ok() ? *fd : -1;
  };

  // Sanity round trip before the storm. The control connection stays OPEN
  // through the exhaustion phase: closing it here would make the server
  // release its side asynchronously, freeing an fd slot at an unpredictable
  // moment and letting accept() succeed instead of hitting EMFILE.
  int control = connect_client();
  ASSERT_GE(control, 0);
  ASSERT_TRUE(WriteFrame(control, "ping").ok());
  std::string response;
  ASSERT_TRUE(ReadFrame(control, &response, 10000).ok());
  ASSERT_EQ(response, "ok 1\npong\n");

  // Lower the soft fd limit so exhaustion is cheap, then occupy every
  // remaining slot — keeping ONE in reserve for the client socket.
  struct rlimit saved;
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  struct rlimit lowered = saved;
  lowered.rlim_cur = 64;
  if (lowered.rlim_cur > saved.rlim_max) lowered.rlim_cur = saved.rlim_max;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);
  std::vector<int> hogs;
  for (;;) {
    const int fd = ::dup(0);
    if (fd < 0) {
      EXPECT_EQ(errno, EMFILE);
      break;
    }
    hogs.push_back(fd);
    ASSERT_LT(hogs.size(), 100000u) << "fd table never filled";
  }
  if (hogs.empty()) {
    ::setrlimit(RLIMIT_NOFILE, &saved);
    ::close(control);
    server.Stop();
    ::unlink(socket_path.c_str());
    GTEST_SKIP() << "fd table already exhausted before the test could arm";
  }

  // Free exactly one slot for the client's socket; the kernel queues the
  // connection in the listen backlog, but the server's accept() now has
  // no descriptor to return: EMFILE.
  ::close(hogs.back());
  hogs.pop_back();
  const int pending = connect_client();
  ASSERT_GE(pending, 0);

  obs::Counter* accept_errors =
      obs::MetricsRegistry::Get().counter("serve.accept_errors");
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  const int64_t baseline_wait = accept_errors->Value();
  while (accept_errors->Value() == baseline_wait &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(accept_errors->Value(), baseline_wait)
      << "accept never hit EMFILE";

  // Storm over: release the hogs; the queued connection must now be
  // accepted and served — the backoff loop kept retrying, not bailing.
  for (const int fd : hogs) ::close(fd);
  hogs.clear();
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  ASSERT_TRUE(WriteFrame(pending, "ping").ok());
  const Status read = ReadFrame(pending, &response, 15000);
  EXPECT_TRUE(read.ok()) << read;
  EXPECT_EQ(response, "ok 1\npong\n");
  ::close(pending);
  ::close(control);

  server.Stop();
  ::unlink(socket_path.c_str());
}

}  // namespace
}  // namespace culevo
