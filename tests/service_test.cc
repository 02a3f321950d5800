#include "service/service_core.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/overrepresentation.h"
#include "analysis/similarity.h"
#include "container_test_util.h"
#include "core/null_model.h"
#include "core/simulation.h"
#include "corpus/container.h"
#include "corpus/corpus_snapshot.h"
#include "corpus/ingestion.h"
#include "lexicon/world_lexicon.h"
#include "obs/metrics.h"
#include "util/csv.h"
#include "util/failpoint.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/strings.h"

namespace culevo {
namespace {

// Cuisine ids used throughout; codes resolved from the static table so
// the tests do not hard-code the cuisine order.
constexpr CuisineId kA = 0;
constexpr CuisineId kB = 1;

std::string Code(CuisineId c) { return std::string(CuisineAt(c).code); }

/// Two populated cuisines with overlap, ties, and a conjunction target.
RecipeCorpus SmallCorpus() {
  RecipeCorpus::Builder builder;
  EXPECT_TRUE(builder.Add(kA, {1, 2, 3}).ok());
  EXPECT_TRUE(builder.Add(kA, {1, 2, 4}).ok());
  EXPECT_TRUE(builder.Add(kA, {2, 5}).ok());
  EXPECT_TRUE(builder.Add(kB, {2, 3, 6}).ok());
  EXPECT_TRUE(builder.Add(kB, {6, 7}).ok());
  return builder.Build();
}

/// A second, distinguishable corpus for swap tests.
RecipeCorpus OtherCorpus() {
  RecipeCorpus::Builder builder;
  EXPECT_TRUE(builder.Add(kA, {10, 11}).ok());
  EXPECT_TRUE(builder.Add(kB, {11, 12}).ok());
  EXPECT_TRUE(builder.Add(kB, {12, 13}).ok());
  return builder.Build();
}

/// Six populated cuisines, so every cuisine has more neighbours than the
/// small k of the `nearest` tests.
RecipeCorpus SixCuisineCorpus() {
  RecipeCorpus::Builder builder;
  for (int c = 0; c < 6; ++c) {
    const IngredientId own = static_cast<IngredientId>(2 + c);
    const IngredientId shared = static_cast<IngredientId>(3 + c % 3);
    EXPECT_TRUE(builder.Add(static_cast<CuisineId>(c), {1, own}).ok());
    EXPECT_TRUE(builder.Add(static_cast<CuisineId>(c), {own, shared}).ok());
  }
  return builder.Build();
}

ServiceCore MakeCore(ServiceOptions options = {}) {
  return ServiceCore(&WorldLexicon(), options);
}

std::vector<std::string> Rows(const std::string& response) {
  std::vector<std::string> lines = Split(response, '\n');
  // Trailing '\n' produces one empty tail field; drop it plus the header.
  EXPECT_FALSE(lines.empty());
  lines.pop_back();
  EXPECT_FALSE(lines.empty());
  lines.erase(lines.begin());
  return lines;
}

TEST(ServiceCoreTest, PingAndErrors) {
  ServiceCore core = MakeCore();
  ASSERT_TRUE(core.InstallCorpus(SmallCorpus(), "<test>").ok());
  EXPECT_EQ(core.Handle("ping"), "ok 1\npong\n");
  EXPECT_TRUE(StartsWith(core.Handle("bogus"), "error InvalidArgument"));
  EXPECT_TRUE(StartsWith(core.Handle(""), "error InvalidArgument"));
  EXPECT_TRUE(
      StartsWith(core.Handle("ping frobnicate=1"), "error InvalidArgument"));
  EXPECT_TRUE(StartsWith(core.Handle("overrep NOPE"), "error NotFound"));
  EXPECT_TRUE(StartsWith(core.Handle("recipe 999"), "error NotFound"));
}

TEST(ServiceCoreTest, NoSnapshotIsFailedPrecondition) {
  ServiceCore core = MakeCore();
  EXPECT_TRUE(StartsWith(core.Handle("ping"), "error FailedPrecondition"));
}

// The served answer must be bit-identical to the batch entry point: the
// rows are rendered with %.17g, so string equality is double equality.
TEST(ServiceCoreTest, OverrepMatchesBatchBitExactly) {
  const RecipeCorpus corpus = SmallCorpus();
  ServiceCore core = MakeCore();
  ASSERT_TRUE(core.InstallCorpus(corpus, "<test>").ok());

  const auto batch = TopOverrepresented(corpus, kA, 3);
  const std::vector<std::string> rows =
      Rows(core.Handle("overrep " + Code(kA) + " 3"));
  ASSERT_EQ(rows.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(rows[i],
              StrFormat("%s\t%.17g\t%.17g\t%.17g",
                        WorldLexicon().name(batch[i].ingredient).c_str(),
                        batch[i].score, batch[i].cuisine_fraction,
                        batch[i].world_fraction));
  }
}

TEST(ServiceCoreTest, NearestMatchesBatchBitExactly) {
  const RecipeCorpus corpus = SmallCorpus();
  ServiceCore core = MakeCore();
  ASSERT_TRUE(core.InstallCorpus(corpus, "<test>").ok());

  const std::vector<CuisineNeighbor> batch = NearestCuisines(corpus, kA, 5);
  const std::vector<std::string> rows =
      Rows(core.Handle("nearest " + Code(kA) + " 5"));
  ASSERT_EQ(rows.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(rows[i], StrFormat("%s\t%.17g", Code(batch[i].cuisine).c_str(),
                                 batch[i].distance));
  }

  // k comes positionally or as k=N (default 5); a positional k wins.
  const RecipeCorpus six = SixCuisineCorpus();
  ServiceCore wide = MakeCore();
  ASSERT_TRUE(wide.InstallCorpus(six, "<test>").ok());
  const std::vector<CuisineNeighbor> all =
      NearestCuisines(six, kA, kNumCuisines);
  ASSERT_EQ(all.size(), 5u);
  const std::pair<std::string, size_t> cases[] = {
      {"", 5}, {" k=3", 3}, {" k=1", 1}, {" 2 k=4", 2}, {" 4", 4}};
  for (const auto& [args, k] : cases) {
    const std::vector<std::string> top =
        Rows(wide.Handle("nearest " + Code(kA) + args));
    ASSERT_EQ(top.size(), k) << args;
    for (size_t i = 0; i < k; ++i) {
      EXPECT_EQ(top[i], StrFormat("%s\t%.17g", Code(all[i].cuisine).c_str(),
                                  all[i].distance))
          << args;
    }
  }
  for (const char* bad : {" k=0", " k=x", " 0"}) {
    EXPECT_TRUE(StartsWith(wide.Handle("nearest " + Code(kA) + bad),
                           "error InvalidArgument"))
        << bad;
  }
}

TEST(ServiceCoreTest, FreqReportsCountFractionRank) {
  ServiceCore core = MakeCore();
  ASSERT_TRUE(core.InstallCorpus(SmallCorpus(), "<test>").ok());
  // Ingredient 2 is in all 3 recipes of cuisine A: count 3, fraction 1,
  // rank 1 (highest usage).
  EXPECT_EQ(core.Handle("freq " + Code(kA) + " #2"), "ok 1\n3\t1\t1\n");
  EXPECT_TRUE(StartsWith(core.Handle("freq " + Code(kA) + " #13"),
                         "error NotFound"));
}

TEST(ServiceCoreTest, SearchIntersectsAndFilters) {
  ServiceCore core = MakeCore();
  ASSERT_TRUE(core.InstallCorpus(SmallCorpus(), "<test>").ok());
  // Recipes containing both #2 and #3: recipe 0 (cuisine A) and 3 (B).
  std::vector<std::string> rows = Rows(core.Handle("search #2,#3"));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_TRUE(StartsWith(rows[0], "0\t" + Code(kA)));
  EXPECT_TRUE(StartsWith(rows[1], "3\t" + Code(kB)));

  rows = Rows(core.Handle("search #2,#3 cuisine=" + Code(kB)));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(StartsWith(rows[0], "3\t"));

  rows = Rows(core.Handle("search #2,#3 limit=1"));
  EXPECT_EQ(rows.size(), 1u);
}

TEST(ServiceCoreTest, SimulateMatchesDirectRunBitExactly) {
  const RecipeCorpus corpus = SmallCorpus();
  ServiceCore core = MakeCore();
  ASSERT_TRUE(core.InstallCorpus(corpus, "<test>").ok());

  Result<CuisineContext> context = ContextFromCorpus(corpus, kA);
  ASSERT_TRUE(context.ok()) << context.status();
  const NullModel nm;
  SimulationConfig config;
  config.replicas = 1;
  config.seed = 7;
  Result<SimulationResult> direct =
      RunSimulation(nm, *context, WorldLexicon(), config);
  ASSERT_TRUE(direct.ok()) << direct.status();

  const std::vector<std::string> rows = Rows(core.Handle(
      "simulate " + Code(kA) + " NM replicas=1 seed=7 deadline_ms=60000"));
  ASSERT_EQ(rows.size(), 1 + std::min<size_t>(
                                 direct->ingredient_curve.values().size(),
                                 kMaxResults));
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i],
              StrFormat("%zu\t%.17g", i,
                        direct->ingredient_curve.values()[i - 1]));
  }
}

TEST(ServiceCoreTest, SimulateClampsReplicas) {
  ServiceCore core = MakeCore();
  ASSERT_TRUE(core.InstallCorpus(SmallCorpus(), "<test>").ok());
  EXPECT_TRUE(StartsWith(
      core.Handle(StrFormat("simulate %s NM replicas=%d", Code(kA).c_str(),
                            kMaxSimulateReplicas + 1)),
      "error InvalidArgument"));
}

TEST(ServiceCoreTest, DeadlineRejection) {
  ServiceCore core = MakeCore();
  ASSERT_TRUE(core.InstallCorpus(SmallCorpus(), "<test>").ok());
  // An explicitly non-positive deadline is already expired: the request
  // must be rejected at admission, before any query work runs.
  EXPECT_TRUE(
      StartsWith(core.Handle("ping deadline_ms=0"), "error DeadlineExceeded"));
  EXPECT_TRUE(StartsWith(core.Handle("overrep " + Code(kA) + " deadline_ms=-5"),
                         "error DeadlineExceeded"));
  // A generous deadline passes.
  EXPECT_EQ(core.Handle("ping deadline_ms=60000"), "ok 1\npong\n");
}

TEST(ServiceCoreTest, AdmissionControlRejectsOverCapacity) {
  ServiceOptions options;
  options.max_inflight = 0;  // Every request is over capacity.
  ServiceCore core = MakeCore(options);
  ASSERT_TRUE(core.InstallCorpus(SmallCorpus(), "<test>").ok());
  EXPECT_TRUE(StartsWith(core.Handle("ping"), "error Unavailable"));
}

TEST(ServiceCoreTest, EpochAdvancesPerInstall) {
  ServiceCore core = MakeCore();
  ASSERT_TRUE(core.InstallCorpus(SmallCorpus(), "a").ok());
  EXPECT_EQ(core.Acquire()->epoch, 1u);
  ASSERT_TRUE(core.InstallCorpus(OtherCorpus(), "b").ok());
  EXPECT_EQ(core.Acquire()->epoch, 2u);
  EXPECT_EQ(core.Acquire()->source, "b");
}

TEST(ServiceCoreTest, SnapshotFileAnswersMatchInMemory) {
  const std::string path =
      testing::TempDir() + "culevo_service_snapshot.bin";
  const RecipeCorpus corpus = SmallCorpus();
  ASSERT_TRUE(WriteCorpusSnapshot(path, corpus, {.sync = false}).ok());

  ServiceCore from_memory = MakeCore();
  ASSERT_TRUE(from_memory.InstallCorpus(corpus, "<test>").ok());
  ServiceCore from_file = MakeCore();
  ASSERT_TRUE(from_file.LoadFromFile(path).ok());

  const std::vector<std::string> requests = {
      "overrep " + Code(kA) + " 5", "nearest " + Code(kB),
      "stats " + Code(kA), "freq " + Code(kA) + " #1",
      std::string("search #2,#3")};
  for (const std::string& request : requests) {
    EXPECT_EQ(from_file.Handle(request), from_memory.Handle(request))
        << request;
  }
  std::remove(path.c_str());
}

TEST(ServiceCoreTest, FailedReloadKeepsPreviousGenerationServing) {
  const std::string path =
      testing::TempDir() + "culevo_service_reload.bin";
  ASSERT_TRUE(
      WriteCorpusSnapshot(path, SmallCorpus(), {.sync = false}).ok());

  ServiceCore core = MakeCore();
  ASSERT_TRUE(core.LoadFromFile(path).ok());
  const std::string before = core.Handle("overrep " + Code(kA) + " 3");
  const uint64_t epoch = core.Acquire()->epoch;

  Failpoints::Get().Arm("serve.reload",
                        {.status = Status::IOError("injected reload fault")});
  const Status reload = core.LoadFromFile(path);
  Failpoints::Get().DisarmAll();
  EXPECT_EQ(reload.code(), StatusCode::kIOError);

  // The failed reload must leave the previous generation installed and
  // still answering identically.
  EXPECT_EQ(core.Acquire()->epoch, epoch);
  EXPECT_EQ(core.Handle("overrep " + Code(kA) + " 3"), before);
  std::remove(path.c_str());
}

// RCU swap under concurrency: readers hammer point queries while a writer
// repeatedly installs new generations. Every response must succeed — an
// in-flight request keeps its acquired generation alive, so a swap can
// never fail or tear it. Run under TSan via the tsan preset.
TEST(ServiceCoreTest, ConcurrentReadersAcrossSnapshotSwaps) {
  ServiceCore core = MakeCore();
  ASSERT_TRUE(core.InstallCorpus(SmallCorpus(), "gen0").ok());

  constexpr int kReaders = 4;
  constexpr int kSwaps = 25;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&core, &done, &failures, t] {
      const std::string request = (t % 2 == 0)
                                      ? "overrep " + Code(kA) + " 3"
                                      : "info";
      while (!done.load(std::memory_order_relaxed)) {
        if (!StartsWith(core.Handle(request), "ok ")) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int i = 0; i < kSwaps; ++i) {
    const Status installed =
        (i % 2 == 0) ? core.InstallCorpus(OtherCorpus(), "odd")
                     : core.InstallCorpus(SmallCorpus(), "even");
    ASSERT_TRUE(installed.ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  done.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(core.Acquire()->epoch, static_cast<uint64_t>(kSwaps + 1));
}

// ---------------------------------------------------------------------------
// Brownout (graceful degradation under overload).

TEST(ServiceCoreTest, ShouldShedExpensivePredicate) {
  ServiceOptions options;
  options.max_inflight = 100;
  options.brownout_latency_ms = 0;  // latency trigger off

  // The inflight trigger fires strictly above
  // kBrownoutInflightFraction (0.75) * max_inflight.
  EXPECT_FALSE(ShouldShedExpensive(options, 75, 0.0));
  EXPECT_TRUE(ShouldShedExpensive(options, 76, 0.0));

  // Latency trigger: only above the threshold, and only when enabled.
  options.brownout_latency_ms = 10;
  EXPECT_FALSE(ShouldShedExpensive(options, 0, 9.0));
  EXPECT_TRUE(ShouldShedExpensive(options, 0, 10.5));
  options.brownout_latency_ms = 0;
  EXPECT_FALSE(ShouldShedExpensive(options, 75, 1e9));

  // Either trigger alone is sufficient.
  options.brownout_latency_ms = 10;
  EXPECT_TRUE(ShouldShedExpensive(options, 76, 0.0));
  EXPECT_TRUE(ShouldShedExpensive(options, 0, 11.0));
  EXPECT_FALSE(ShouldShedExpensive(options, 75, 10.0));
}

TEST(ServiceCoreTest, BrownoutShedsExpensiveKeepsCheapAndAdmin) {
  ServiceOptions options;
  // A latency SLO so tiny that the very first completed request trips the
  // overload detector — a deterministic brownout without real load.
  options.brownout_latency_ms = 1e-9;
  ServiceCore core = MakeCore(options);
  ASSERT_TRUE(core.InstallCorpus(SmallCorpus(), "<test>").ok());

  // Seed the latency EMA with one cheap request.
  EXPECT_EQ(core.Handle("ping"), "ok 1\npong\n");
  ASSERT_GT(core.latency_ema_ms(), 0.0);

  // Expensive classes are shed with a machine-readable retry hint...
  const std::string shed = core.Handle("simulate " + Code(kA) + " NM");
  EXPECT_TRUE(StartsWith(shed, "error Unavailable")) << shed;
  EXPECT_NE(shed.find("\nretry-after-ms\t50\n"), std::string::npos) << shed;
  EXPECT_TRUE(StartsWith(core.Handle("search #2,#3"), "error Unavailable"));

  // ...while cheap point lookups and admin requests keep being served.
  EXPECT_TRUE(StartsWith(core.Handle("overrep " + Code(kA) + " 3"), "ok "));
  EXPECT_TRUE(StartsWith(core.Handle("stats " + Code(kA)), "ok "));
  EXPECT_TRUE(StartsWith(core.Handle("metrics"), "ok "));
}

TEST(ServiceCoreTest, BrownoutDisabledByDefaultLatencyTrigger) {
  ServiceCore core = MakeCore();  // brownout_latency_ms defaults to 0
  ASSERT_TRUE(core.InstallCorpus(SmallCorpus(), "<test>").ok());
  EXPECT_EQ(core.Handle("ping"), "ok 1\npong\n");
  EXPECT_TRUE(StartsWith(
      core.Handle("simulate " + Code(kA) + " NM replicas=1 seed=7"
                  " deadline_ms=60000"),
      "ok "));
}

TEST(ServiceCoreTest, MetricsWorksWithoutSnapshot) {
  ServiceCore core = MakeCore();
  const std::string response = core.Handle("metrics");
  EXPECT_TRUE(StartsWith(response, "ok ")) << response;
  EXPECT_NE(response.find("counter\tserve.requests\t"), std::string::npos);
}

// ---------------------------------------------------------------------------
// CULEVO-DELTA files and the hot incremental reload.

/// The delta applied on top of SmallCorpus() throughout: two new recipes.
std::vector<CorpusDeltaRecord> DeltaRecords() {
  return {{kA, {7, 8}}, {kB, {1, 5}}};
}

/// SmallCorpus() + DeltaRecords(), built monolithically — the ground
/// truth a delta reload must match bit-for-bit.
RecipeCorpus CombinedCorpus() {
  RecipeCorpus::Builder builder;
  EXPECT_TRUE(builder.Add(kA, {1, 2, 3}).ok());
  EXPECT_TRUE(builder.Add(kA, {1, 2, 4}).ok());
  EXPECT_TRUE(builder.Add(kA, {2, 5}).ok());
  EXPECT_TRUE(builder.Add(kB, {2, 3, 6}).ok());
  EXPECT_TRUE(builder.Add(kB, {6, 7}).ok());
  EXPECT_TRUE(builder.Add(kA, {7, 8}).ok());
  EXPECT_TRUE(builder.Add(kB, {1, 5}).ok());
  return builder.Build();
}

std::string WriteDeltaFor(const RecipeCorpus& base, const std::string& tag) {
  const std::string path =
      testing::TempDir() + "culevo_delta_" + tag + ".bin";
  CorpusDelta delta;
  delta.base_recipes = base.num_recipes();
  delta.base_fingerprint = CorpusContentFingerprint(base);
  delta.records = DeltaRecords();
  EXPECT_TRUE(WriteCorpusDelta(path, delta, {.sync = false}).ok());
  return path;
}

TEST(CorpusDeltaTest, FingerprintTracksContentNotConstruction) {
  // Identical content through different construction paths fingerprints
  // identically; any content change perturbs it.
  EXPECT_EQ(CorpusContentFingerprint(SmallCorpus()),
            CorpusContentFingerprint(SmallCorpus()));
  EXPECT_NE(CorpusContentFingerprint(SmallCorpus()),
            CorpusContentFingerprint(OtherCorpus()));
  EXPECT_NE(CorpusContentFingerprint(SmallCorpus()),
            CorpusContentFingerprint(CombinedCorpus()));
}

TEST(CorpusDeltaTest, WriteLoadRoundTrip) {
  const RecipeCorpus base = SmallCorpus();
  const std::string path = WriteDeltaFor(base, "roundtrip");

  Result<CorpusDelta> loaded = LoadCorpusDelta(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->base_recipes, base.num_recipes());
  EXPECT_EQ(loaded->base_fingerprint, CorpusContentFingerprint(base));
  const std::vector<CorpusDeltaRecord> expected = DeltaRecords();
  ASSERT_EQ(loaded->records.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(loaded->records[i].cuisine, expected[i].cuisine);
    EXPECT_EQ(loaded->records[i].ingredients, expected[i].ingredients);
  }
  std::remove(path.c_str());
}

TEST(CorpusDeltaTest, WriteRefusesInvalidRecords) {
  CorpusDelta delta;
  delta.records.push_back({kA, {}});  // empty recipe
  EXPECT_EQ(WriteCorpusDelta(testing::TempDir() + "culevo_delta_bad.bin",
                             delta, {.sync = false})
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(CorpusDeltaTest, LoadRefusalMatrix) {
  const std::string path = WriteDeltaFor(SmallCorpus(), "refusal");
  Result<std::string> pristine = ReadFileToString(path);
  ASSERT_TRUE(pristine.ok()) << pristine.status();
  const std::string bytes = *pristine;

  const auto write_bytes = [&](const std::string& data) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  };

  // Missing file: NotFound (distinct from a present-but-corrupt file).
  EXPECT_EQ(LoadCorpusDelta(path + ".absent").status().code(),
            StatusCode::kNotFound);

  // Corrupt magic: not a delta file at all.
  std::string corrupt = bytes;
  corrupt[0] = 'X';
  write_bytes(corrupt);
  EXPECT_EQ(LoadCorpusDelta(path).status().code(),
            StatusCode::kInvalidArgument);

  // Unsupported version: a delta file, but not one we can apply.
  corrupt = bytes;
  corrupt[16] = 99;  // u32 version at offset 16
  write_bytes(corrupt);
  EXPECT_EQ(LoadCorpusDelta(path).status().code(),
            StatusCode::kFailedPrecondition);

  // Truncation: torn write.
  write_bytes(bytes.substr(0, bytes.size() - 1));
  EXPECT_EQ(LoadCorpusDelta(path).status().code(), StatusCode::kDataLoss);

  // Payload corruption caught by the checksum.
  corrupt = bytes;
  corrupt[bytes.size() - 1] ^= 0x5A;
  write_bytes(corrupt);
  EXPECT_EQ(LoadCorpusDelta(path).status().code(), StatusCode::kDataLoss);

  // The pristine bytes still load after all that.
  write_bytes(bytes);
  EXPECT_TRUE(LoadCorpusDelta(path).ok());
  std::remove(path.c_str());
}

// A checksum only proves the bytes are the ones written: records that
// WriteCorpusDelta would refuse to write are refused on load too, even
// in a well-formed container, before any count sizes an allocation.
TEST(CorpusDeltaTest, RefusesMalformedRecordsUnderValidChecksums) {
  const std::string path = testing::TempDir() + "culevo_delta_records.bin";
  const auto record = [](uint8_t cuisine, uint32_t count,
                         std::vector<IngredientId> ids) {
    std::string out;
    AppendPod(&out, cuisine);
    AppendPod(&out, count);
    for (const IngredientId id : ids) AppendPod(&out, id);
    return out;
  };
  // The records in the delta's one section (id 1), signed by the writer.
  const auto load = [&](const std::string& records) {
    const ContainerSection section = {1, records};
    EXPECT_TRUE(WriteContainer(path,
                               {"CULEVO-DELTA", kCorpusDeltaVersion,
                                "corpus.delta"},
                               {5, CorpusContentFingerprint(SmallCorpus()),
                                static_cast<uint32_t>(kNumCuisines)},
                               {&section, 1}, /*sync=*/false)
                    .ok());
    return LoadCorpusDelta(path).status().code();
  };
  EXPECT_EQ(load(record(kA, 2, {7, 8})), StatusCode::kOk);
  EXPECT_EQ(load(record(kNumCuisines, 2, {7, 8})), StatusCode::kDataLoss);
  EXPECT_EQ(load(record(kA, 0, {})), StatusCode::kDataLoss);
  EXPECT_EQ(load(record(kA, 3, {7, 8})), StatusCode::kDataLoss);
  EXPECT_EQ(load(record(kA, 0xFFFFFFFFu, {7})), StatusCode::kDataLoss);
  EXPECT_EQ(load(record(kA, 2, {7, 8}) + '\1'), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

// Version 1 deltas had an 8-byte magic, a header record count and one
// payload checksum. A current build must refuse one, never misread it.
TEST(CorpusDeltaTest, RefusesVersion1File) {
  const RecipeCorpus base = SmallCorpus();
  std::string payload;
  for (const CorpusDeltaRecord& record : DeltaRecords()) {
    AppendPod<uint8_t>(&payload, record.cuisine);
    AppendPod<uint32_t>(&payload,
                        static_cast<uint32_t>(record.ingredients.size()));
    for (const IngredientId id : record.ingredients) {
      AppendPod<IngredientId>(&payload, id);
    }
  }
  std::string v1 = "CULEVODL";
  AppendPod<uint32_t>(&v1, 1);
  AppendPod<uint32_t>(&v1, 0x01020304);
  AppendPod<uint64_t>(&v1, base.num_recipes());
  AppendPod<uint64_t>(&v1, CorpusContentFingerprint(base));
  AppendPod<uint64_t>(&v1, DeltaRecords().size());
  AppendPod<uint64_t>(&v1, Fnv1a64(payload));
  v1 += payload;
  const std::string path = testing::TempDir() + "culevo_delta_v1.bin";
  ASSERT_TRUE(WriteStringToFile(path, v1).ok());

  EXPECT_EQ(LoadCorpusDelta(path).status().code(),
            StatusCode::kInvalidArgument);
  ServiceCore core = MakeCore();
  ASSERT_TRUE(core.InstallCorpus(base, "base").ok());
  EXPECT_EQ(core.ReloadDelta(path).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(core.Acquire()->epoch, 1u);
  std::remove(path.c_str());
}

// Version 2 deltas pinned their base by the FNV-1a content fingerprint,
// so none can name a corpus this build serves: one is refused by its
// version, which the message names, and the serving generation stays.
TEST(CorpusDeltaTest, RefusesVersion2File) {
  const RecipeCorpus base = SmallCorpus();
  const std::string path = WriteDeltaFor(base, "v2");
  std::string bytes = ReadFileToString(path).value();
  ResignAsVersion(&bytes, 2);
  ASSERT_TRUE(WriteStringToFile(path, bytes).ok());

  const Status loaded = LoadCorpusDelta(path).status();
  EXPECT_EQ(loaded.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(loaded.message().find("version 2"), std::string::npos) << loaded;
  ServiceCore core = MakeCore();
  ASSERT_TRUE(core.InstallCorpus(base, "base").ok());
  const Status reloaded = core.ReloadDelta(path);
  EXPECT_EQ(reloaded.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(reloaded.message().find("version 2"), std::string::npos)
      << reloaded;
  EXPECT_EQ(core.Acquire()->epoch, 1u);
  std::remove(path.c_str());
}

TEST(ServiceCoreTest, ReloadDeltaMatchesMonolithicBuildBitExactly) {
  ServiceCore core = MakeCore();
  ASSERT_TRUE(core.InstallCorpus(SmallCorpus(), "base").ok());
  const std::string path = WriteDeltaFor(SmallCorpus(), "reload");

  ASSERT_TRUE(core.ReloadDelta(path).ok());
  const std::shared_ptr<const ServiceSnapshot> swapped = core.Acquire();
  EXPECT_EQ(swapped->epoch, 2u);
  EXPECT_EQ(swapped->source, "base+" + path);
  EXPECT_EQ(swapped->corpus.num_recipes(), 7u);
  EXPECT_EQ(swapped->content_fingerprint,
            CorpusContentFingerprint(CombinedCorpus()));

  // Every query class must answer bit-identically to a core built on the
  // monolithic combined corpus.
  ServiceCore reference = MakeCore();
  ASSERT_TRUE(reference.InstallCorpus(CombinedCorpus(), "base").ok());
  const std::vector<std::string> requests = {
      "overrep " + Code(kA) + " 5", "overrep " + Code(kB) + " 5",
      "nearest " + Code(kA),        "stats " + Code(kA),
      "stats " + Code(kB),          "freq " + Code(kA) + " #7",
      "search #1,#5",               "recipe 5",
      "recipe 6"};
  for (const std::string& request : requests) {
    EXPECT_EQ(core.Handle(request), reference.Handle(request)) << request;
  }
  std::remove(path.c_str());
}

TEST(ServiceCoreTest, ReloadDeltaRefusesMismatchedBase) {
  ServiceCore core = MakeCore();
  ASSERT_TRUE(core.InstallCorpus(SmallCorpus(), "base").ok());
  // A delta built against a *different* base corpus: both the recipe
  // count and the fingerprint disagree with the serving generation.
  const std::string path = WriteDeltaFor(OtherCorpus(), "mismatch");
  const std::string before = core.Handle("overrep " + Code(kA) + " 3");

  const Status refused = core.ReloadDelta(path);
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition) << refused;

  // Refusal is non-destructive: same epoch, same answers.
  EXPECT_EQ(core.Acquire()->epoch, 1u);
  EXPECT_EQ(core.Handle("overrep " + Code(kA) + " 3"), before);
  std::remove(path.c_str());
}

TEST(ServiceCoreTest, ReloadDeltaWithoutGenerationIsFailedPrecondition) {
  ServiceCore core = MakeCore();
  const std::string path = WriteDeltaFor(SmallCorpus(), "nogen");
  EXPECT_EQ(core.ReloadDelta(path).code(),
            StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

// Crash-safety of the swap itself: a fault injected at *every* stage of
// the delta reload must leave the old generation serving unchanged, and
// the swap must still succeed once the fault clears.
TEST(ServiceCoreTest, ReloadDeltaFailpointAtEveryStageKeepsOldGeneration) {
  ServiceCore core = MakeCore();
  ASSERT_TRUE(core.InstallCorpus(SmallCorpus(), "base").ok());
  const std::string path = WriteDeltaFor(SmallCorpus(), "stages");
  const std::string before = core.Handle("overrep " + Code(kA) + " 3");

  const std::vector<std::string> stages = {
      "serve.reload",       "serve.reload.delta.read",
      "corpus.delta.read",  "serve.reload.delta.apply",
      "serve.reload.index", "serve.reload.install"};
  for (const std::string& stage : stages) {
    Failpoints::Get().Arm(
        stage, {.status = Status::IOError("injected at " + stage)});
    const Status failed = core.ReloadDelta(path);
    Failpoints::Get().DisarmAll();
    EXPECT_EQ(failed.code(), StatusCode::kIOError) << stage;
    EXPECT_EQ(core.Acquire()->epoch, 1u) << stage;
    EXPECT_EQ(core.Handle("overrep " + Code(kA) + " 3"), before) << stage;
  }

  // Fault cleared: the identical request now swaps cleanly.
  ASSERT_TRUE(core.ReloadDelta(path).ok());
  EXPECT_EQ(core.Acquire()->epoch, 2u);
  std::remove(path.c_str());
}

// The header's record count sits outside the payload checksum, and every
// count in the file sizes an allocation. A flipped bit anywhere must come
// back as a refusal status, never as an exception out of the loader, and
// the serving generation must stay exactly as it was.
TEST(ServiceCoreTest, ReloadDeltaRefusesEveryBitFlip) {
  ServiceCore core = MakeCore();
  ASSERT_TRUE(core.InstallCorpus(SmallCorpus(), "base").ok());
  const std::string path = WriteDeltaFor(SmallCorpus(), "bitflip");
  Result<std::string> pristine = ReadFileToString(path);
  ASSERT_TRUE(pristine.ok()) << pristine.status();
  const std::vector<std::string> requests = {
      "info", "overrep " + Code(kA) + " 5", "search #1,#5", "recipe 4"};
  std::vector<std::string> before;
  for (const std::string& request : requests) {
    before.push_back(core.Handle(request));
  }

  for (size_t byte = 0; byte < pristine->size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      const std::string where = StrFormat("byte %zu bit %d", byte, bit);
      std::string flipped = *pristine;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(flipped.data(), static_cast<std::streamsize>(flipped.size()));
      }
      EXPECT_NO_THROW((void)LoadCorpusDelta(path)) << where;
      Status refused;
      EXPECT_NO_THROW(refused = core.ReloadDelta(path)) << where;
      EXPECT_TRUE(refused.code() == StatusCode::kInvalidArgument ||
                  refused.code() == StatusCode::kFailedPrecondition ||
                  refused.code() == StatusCode::kDataLoss)
          << where << ": " << refused;
      EXPECT_EQ(core.Acquire()->epoch, 1u) << where;
      EXPECT_EQ(core.Handle("info"), before[0]) << where;
    }
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(core.Handle(requests[i]), before[i]) << requests[i];
  }
  std::remove(path.c_str());
}

/// A corpus whose recipe 2 uses an id far outside the 721-entry world
/// lexicon.
RecipeCorpus OutOfLexiconCorpus() {
  RecipeCorpus::Builder builder;
  EXPECT_TRUE(builder.Add(kA, {1, 2}).ok());
  EXPECT_TRUE(builder.Add(kB, {3}).ok());
  EXPECT_TRUE(builder.Add(kA, {4, 5000}).ok());
  return builder.Build();
}

// Rendering an id the lexicon does not hold CHECK-fails, so a file-borne
// generation that uses one is refused before it is installed and the old
// generation keeps answering.
TEST(ServiceCoreTest, LoadFromFileRefusesIdsOutsideTheLexicon) {
  ServiceCore core = MakeCore();
  ASSERT_TRUE(core.InstallCorpus(SmallCorpus(), "base").ok());
  const std::string before = core.Handle("recipe 2");
  const std::string path =
      testing::TempDir() + "culevo_service_out_of_lexicon.snap";
  ASSERT_TRUE(
      WriteCorpusSnapshot(path, OutOfLexiconCorpus(), {.sync = false}).ok());

  EXPECT_EQ(core.LoadFromFile(path).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(core.Acquire()->epoch, 1u);
  EXPECT_EQ(core.Handle("recipe 2"), before);
  std::remove(path.c_str());
}

TEST(ServiceCoreTest, ReloadDeltaRefusesIdsOutsideTheLexicon) {
  ServiceCore core = MakeCore();
  ASSERT_TRUE(core.InstallCorpus(SmallCorpus(), "base").ok());
  const std::string before = core.Handle("recipe 2");
  CorpusDelta delta;
  delta.base_recipes = SmallCorpus().num_recipes();
  delta.base_fingerprint = CorpusContentFingerprint(SmallCorpus());
  delta.records = {{kA, {7, 5000}}};
  const std::string path =
      testing::TempDir() + "culevo_delta_out_of_lexicon.bin";
  ASSERT_TRUE(WriteCorpusDelta(path, delta, {.sync = false}).ok());

  EXPECT_TRUE(StartsWith(core.Handle("reload-delta " + path),
                         "error FailedPrecondition"));
  EXPECT_EQ(core.Acquire()->epoch, 1u);
  EXPECT_EQ(core.Handle("recipe 2"), before);
  EXPECT_EQ(core.Handle("recipe 5").rfind("error NotFound", 0), 0u);
  std::remove(path.c_str());
}

/// The serve.generations_live gauge as the `metrics` request reports it.
double GenerationsLive(ServiceCore& core) {
  for (const std::string& row : Rows(core.Handle("metrics"))) {
    const std::vector<std::string> fields = Split(row, '\t');
    if (fields.size() == 3 && fields[0] == "gauge" &&
        fields[1] == "serve.generations_live") {
      return std::stod(fields[2]);
    }
  }
  ADD_FAILURE() << "metrics has no serve.generations_live gauge";
  return -1;
}

TEST(ServiceCoreTest, GenerationsLiveCountsPinnedGenerations) {
  ServiceCore core = MakeCore();
  ASSERT_TRUE(core.InstallCorpus(SmallCorpus(), "base").ok());
  const std::string path = WriteDeltaFor(SmallCorpus(), "live");
  EXPECT_EQ(GenerationsLive(core), 1.0);

  // A reader still holding the pre-reload generation keeps it alive
  // beside the new one; releasing it frees it.
  std::shared_ptr<const ServiceSnapshot> pinned = core.Acquire();
  ASSERT_TRUE(core.ReloadDelta(path).ok());
  EXPECT_EQ(GenerationsLive(core), 2.0);
  pinned.reset();
  EXPECT_EQ(GenerationsLive(core), 1.0);
  std::remove(path.c_str());
}

TEST(ServiceCoreTest, ReloadDeltaThroughRequestGrammar) {
  ServiceCore core = MakeCore();
  ASSERT_TRUE(core.InstallCorpus(SmallCorpus(), "base").ok());
  const std::string path = WriteDeltaFor(SmallCorpus(), "grammar");

  EXPECT_TRUE(StartsWith(core.Handle("reload-delta"),
                         "error InvalidArgument"));
  const std::string response = core.Handle("reload-delta " + path);
  EXPECT_EQ(response, "ok 2\nepoch\t2\nrecipes\t7\n") << response;

  // A second apply of the same delta is now a base mismatch (the serving
  // generation moved past it) — refused, still epoch 2.
  EXPECT_TRUE(StartsWith(core.Handle("reload-delta " + path),
                         "error FailedPrecondition"));
  EXPECT_EQ(core.Acquire()->epoch, 2u);
  std::remove(path.c_str());
}

// Replacing a generation tears the old one down after the swap, outside
// the lock every reader's Acquire() takes: a teardown that blocks (here,
// a backing whose deleter waits on a latch) must not stall requests.
TEST(ServiceCoreTest, ReplacedGenerationIsReleasedOutsideTheLock) {
  const RecipeCorpus columns = SmallCorpus();  // Outlives the core.
  std::promise<void> latch;
  const std::shared_future<void> released = latch.get_future().share();
  std::atomic<bool> armed{false};
  std::atomic<bool> releasing{false};
  ServiceCore core = MakeCore();
  {
    RecipeCorpus::ColumnViews views;
    views.flat = columns.flat();
    views.offsets = columns.offsets();
    views.cuisines = columns.cuisines();
    for (int c = 0; c < kNumCuisines; ++c) {
      const CuisineId cuisine = static_cast<CuisineId>(c);
      views.unique[cuisine] = columns.UniqueIngredients(cuisine);
    }
    views.unique[kNumCuisines] = columns.UniqueIngredients();
    std::shared_ptr<const void> backing(
        new int(0), [released, &armed, &releasing](const int* owned) {
          if (armed) {
            releasing = true;
            released.wait();
          }
          delete owned;
        });
    Result<RecipeCorpus> borrowed =
        RecipeCorpus::FromColumns(views, std::move(backing));
    ASSERT_TRUE(borrowed.ok()) << borrowed.status();
    ASSERT_TRUE(core.InstallCorpus(std::move(*borrowed), "blocking").ok());
  }

  // From here until the latch opens nothing may return early: the
  // installer would block forever.
  armed = true;
  std::thread installer([&core] {
    EXPECT_TRUE(core.InstallCorpus(OtherCorpus(), "next").ok());
  });
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!releasing && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::future<std::string> info =
      std::async(std::launch::async, [&core] { return core.Handle("info"); });
  const bool answered =
      info.wait_for(std::chrono::seconds(1)) == std::future_status::ready;
  latch.set_value();
  installer.join();
  EXPECT_TRUE(releasing) << "the first generation was never torn down";
  ASSERT_TRUE(answered) << "info waited for the old generation's teardown";
  const std::vector<std::string> rows = Rows(info.get());
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows.front(), "epoch\t2");
}

// A successful delta reload records one sample of each stage timer; a
// refused one records none.
TEST(ServiceCoreTest, ReloadDeltaTimesEveryStage) {
  const std::vector<std::string> timers = {
      "serve.reload.load_ms", "serve.reload.apply_ms",
      "serve.reload.index_ms", "serve.reload.fingerprint_ms",
      "serve.reload.install_ms", "serve.reload.release_ms"};
  const auto samples = [&timers] {
    const obs::MetricsSnapshot metrics =
        obs::MetricsRegistry::Get().Snapshot();
    std::vector<int64_t> counts;
    for (const std::string& name : timers) {
      const auto it = metrics.histograms.find(name);
      counts.push_back(it == metrics.histograms.end() ? 0 : it->second.count);
    }
    return counts;
  };
  ServiceCore core = MakeCore();
  ASSERT_TRUE(core.InstallCorpus(SmallCorpus(), "base").ok());
  const std::string path = WriteDeltaFor(SmallCorpus(), "timers");

  const std::vector<int64_t> before = samples();
  ASSERT_TRUE(core.ReloadDelta(path).ok());
  const std::vector<int64_t> after = samples();
  for (size_t i = 0; i < timers.size(); ++i) {
    EXPECT_EQ(after[i] - before[i], 1) << timers[i];
  }

  // The same delta again no longer extends the serving generation.
  EXPECT_EQ(core.ReloadDelta(path).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(samples(), after);
  std::remove(path.c_str());
}

/// A CULEVO-DELTA file that appends `records` to `base`.
std::string WriteDelta(const RecipeCorpus& base,
                       std::vector<CorpusDeltaRecord> records,
                       const std::string& tag) {
  const std::string path =
      testing::TempDir() + "culevo_delta_" + tag + ".bin";
  CorpusDelta delta;
  delta.base_recipes = base.num_recipes();
  delta.base_fingerprint = CorpusContentFingerprint(base);
  delta.records = std::move(records);
  EXPECT_TRUE(WriteCorpusDelta(path, delta, {.sync = false}).ok());
  return path;
}

/// The gauge `name` as the `metrics` request reports it.
double Gauge(ServiceCore& core, const std::string& name) {
  for (const std::string& row : Rows(core.Handle("metrics"))) {
    const std::vector<std::string> fields = Split(row, '\t');
    if (fields.size() == 3 && fields[0] == "gauge" && fields[1] == name) {
      return std::stod(fields[2]);
    }
  }
  ADD_FAILURE() << "metrics has no " << name << " gauge";
  return -1;
}

double TailRecipes(ServiceCore& core) {
  return Gauge(core, "serve.index.tail_recipes");
}

// Each delta reload extends the serving index: the next generation shares
// its posting base and places a tail over every recipe added since. After
// each of three chained deltas (one with an id past the base's universe,
// one that gives an empty cuisine its first recipes), every query class
// must answer as a core installed on the combined corpus does, including
// searches whose hits lie on both sides of the base and whose limit cuts
// inside the tail.
TEST(ServiceCoreTest, ChainedDeltaReloadsMatchMonolithicBuilds) {
  constexpr CuisineId kC = 2;  // No recipes until the second delta.
  const std::vector<std::vector<CorpusDeltaRecord>> deltas = {
      {{kA, {1, 2, 9}}, {kB, {2, 6}}},
      {{kC, {1, 3}}, {kC, {2, 3, 9}}},
      {{kA, {1, 2, 3}}, {kB, {2, 3, 6}}, {kC, {2, 3}}}};
  ServiceCore core = MakeCore();
  ASSERT_TRUE(core.InstallCorpus(SmallCorpus(), "base").ok());
  EXPECT_EQ(TailRecipes(core), 0.0);
  const RecipeCorpus first = SmallCorpus();
  ASSERT_EQ(first.UniqueIngredients().back(), 7);
  ASSERT_EQ(first.num_recipes_in(kC), 0u);

  // Every recipe so far, and the corpus they make built monolithically.
  std::vector<CorpusDeltaRecord> recipes;
  for (uint32_t r = 0; r < first.num_recipes(); ++r) {
    const std::span<const IngredientId> ids = first.ingredients_of(r);
    recipes.push_back(
        {first.cuisine_of(r), std::vector<IngredientId>(ids.begin(), ids.end())});
  }
  const auto combined = [&recipes] {
    RecipeCorpus::Builder builder;
    for (const CorpusDeltaRecord& recipe : recipes) {
      EXPECT_TRUE(builder.Add(recipe.cuisine, recipe.ingredients).ok());
    }
    return builder.Build();
  };
  size_t appended = 0;
  for (size_t d = 0; d < deltas.size(); ++d) {
    SCOPED_TRACE("delta " + std::to_string(d + 1));
    const std::string path =
        WriteDelta(combined(), deltas[d], "chain" + std::to_string(d));
    ASSERT_TRUE(core.ReloadDelta(path).ok());
    std::remove(path.c_str());
    recipes.insert(recipes.end(), deltas[d].begin(), deltas[d].end());
    appended += deltas[d].size();
    EXPECT_EQ(core.Acquire()->index.tail_recipes(), appended);
    EXPECT_EQ(TailRecipes(core), static_cast<double>(appended));

    ServiceCore reference = MakeCore();
    ASSERT_TRUE(reference.InstallCorpus(combined(), "base").ok());
    std::vector<std::string> requests = {
        "overrep " + Code(kA) + " 5", "overrep " + Code(kB) + " 5",
        "overrep " + Code(kC) + " 5", "nearest " + Code(kA),
        "nearest " + Code(kC),        "stats " + Code(kA),
        "stats " + Code(kB),          "stats " + Code(kC),
        "freq " + Code(kA) + " #7",   "freq " + Code(kA) + " #9",
        "freq " + Code(kC) + " #3",   "search #1,#5",
        "search #2,#3",               "search #2,#3 cuisine=" + Code(kB),
        "search #2,#3 cuisine=" + Code(kC),
        "search #2,#3 limit=3",       "search #2 limit=6",
        "search #9",                  "search #3,#9"};
    for (size_t r = 0; r <= recipes.size(); ++r) {
      requests.push_back("recipe " + std::to_string(r));
    }
    for (const std::string& request : requests) {
      EXPECT_EQ(core.Handle(request), reference.Handle(request)) << request;
    }
  }
  // The last delta's `search #2,#3 limit=3` stops inside the tail: two
  // hits below the base's five recipes and one above them.
  EXPECT_EQ(Rows(core.Handle("search #2,#3 limit=3")).size(), 3u);

  // A full install starts a fresh base with an empty tail.
  ASSERT_TRUE(core.InstallCorpus(SmallCorpus(), "again").ok());
  EXPECT_EQ(core.Acquire()->index.tail_recipes(), 0u);
  EXPECT_EQ(TailRecipes(core), 0.0);
}

// The serve.index.postings_bytes gauge reports the installed index's
// postings: two bytes per posting, plus (chunks + 1) four-byte directory
// cursors per id for the base and for the tail. The base here is one
// chunk; the tail has no chunk after the load, and one after a delta
// reload, over a wider universe than the base's.
TEST(ServiceCoreTest, PostingsBytesGaugeFollowsTheInstalledIndex) {
  const std::string snapshot =
      testing::TempDir() + "culevo_postings_bytes.snap";
  const RecipeCorpus base = SmallCorpus();
  ASSERT_TRUE(WriteCorpusSnapshot(snapshot, base, {.sync = false}).ok());
  ServiceCore core = MakeCore();
  ASSERT_TRUE(core.LoadFromFile(snapshot).ok());
  std::remove(snapshot.c_str());
  const size_t universe = base.presence().size();
  ASSERT_EQ(universe, 8u);
  ASSERT_EQ(base.total_mentions(), 13u);
  EXPECT_EQ(Gauge(core, "serve.index.postings_bytes"),
            2 * 13 + 4 * (2 * universe + universe));
  EXPECT_EQ(Gauge(core, "serve.index.postings_bytes"),
            static_cast<double>(core.Acquire()->index.postings_bytes()));

  // Five postings more, and ids up to 9 in the tail.
  const std::string path =
      WriteDelta(base, {{kA, {1, 2, 9}}, {kB, {2, 6}}}, "postings_bytes");
  ASSERT_TRUE(core.ReloadDelta(path).ok());
  std::remove(path.c_str());
  EXPECT_EQ(Gauge(core, "serve.index.postings_bytes"),
            2 * (13 + 5) + 4 * (2 * universe + 2 * 10));
  EXPECT_EQ(Gauge(core, "serve.index.postings_bytes"),
            static_cast<double>(core.Acquire()->index.postings_bytes()));
}

// The counter `name` in the metrics registry (0 before its first use).
int64_t Counter(const std::string& name) {
  const obs::MetricsSnapshot metrics = obs::MetricsRegistry::Get().Snapshot();
  const auto it = metrics.counters.find(name);
  return it == metrics.counters.end() ? 0 : it->second;
}

// A delta reload shares the serving corpus's base columns and extends the
// serving generation's column block hashes, rehashing only each column's
// last block and the delta's bytes. Across three chained deltas, from a
// mapped snapshot and from an installed corpus, every generation's base
// is the first generation's memory, the snapshot is mapped once, and
// every fingerprint is that of the corpus built in one piece.
TEST(ServiceCoreTest, ChainedDeltaReloadsShareTheFirstBase) {
  const std::string snapshot = testing::TempDir() + "culevo_shared_base.snap";
  ASSERT_TRUE(
      WriteCorpusSnapshot(snapshot, SmallCorpus(), {.sync = false}).ok());
  const std::vector<std::vector<CorpusDeltaRecord>> deltas = {
      {{kA, {1, 9}}}, {{kB, {2, 3}}, {kA, {4, 6}}}, {{kB, {1, 7, 8}}}};
  for (const bool mapped : {true, false}) {
    SCOPED_TRACE(mapped ? "from LoadFromFile" : "from InstallCorpus");
    ServiceCore core = MakeCore();
    const int64_t loads_before = Counter("corpus.snapshot.mmap_loads");
    ASSERT_TRUE(mapped ? core.LoadFromFile(snapshot).ok()
                       : core.InstallCorpus(SmallCorpus(), "base").ok());
    const RecipeCorpus::Segment first = core.Acquire()->corpus.segments()[0];
    const int64_t loads = Counter("corpus.snapshot.mmap_loads");
    EXPECT_EQ(loads - loads_before, mapped ? 1 : 0);

    const RecipeCorpus small = SmallCorpus();
    std::vector<CorpusDeltaRecord> recipes;
    const auto combined = [&small, &recipes] {
      RecipeCorpus::Builder builder;
      for (uint32_t r = 0; r < small.num_recipes(); ++r) {
        EXPECT_TRUE(
            builder.Add(small.cuisine_of(r), small.ingredients_of(r)).ok());
      }
      for (const CorpusDeltaRecord& recipe : recipes) {
        EXPECT_TRUE(builder.Add(recipe.cuisine, recipe.ingredients).ok());
      }
      return builder.Build();
    };
    for (size_t d = 0; d < deltas.size(); ++d) {
      SCOPED_TRACE("delta " + std::to_string(d + 1));
      const std::string path =
          WriteDelta(combined(), deltas[d], "shared" + std::to_string(d));
      ASSERT_TRUE(core.ReloadDelta(path).ok());
      std::remove(path.c_str());
      recipes.insert(recipes.end(), deltas[d].begin(), deltas[d].end());
      const std::shared_ptr<const ServiceSnapshot> generation = core.Acquire();
      const auto [base, tail] = generation->corpus.segments();
      EXPECT_EQ(base.flat.data(), first.flat.data());
      EXPECT_EQ(base.offsets.data(), first.offsets.data());
      EXPECT_EQ(base.cuisines.data(), first.cuisines.data());
      EXPECT_EQ(tail.cuisines.size(), recipes.size());
      EXPECT_EQ(generation->corpus.borrowed(), mapped);
      EXPECT_EQ(generation->content_fingerprint,
                CorpusContentFingerprint(combined()));
    }
    EXPECT_EQ(Counter("corpus.snapshot.mmap_loads"), loads);
  }
  std::remove(snapshot.c_str());
}

// A delta reload's fingerprint keeps the serving generation's full
// blocks. On a base whose columns span several blocks, each of three
// chained deltas hashes its own column bytes plus at most one block per
// column, far less than the columns, and every generation's column hashes
// and fingerprint are those of its corpus hashed whole.
TEST(ServiceCoreTest, DeltaReloadFingerprintHashesOnlyTheDelta) {
  Rng rng(17);
  const auto recipe = [&rng] {
    const CuisineId cuisine = static_cast<CuisineId>(rng.NextBounded(4));
    std::vector<IngredientId> ids;
    for (size_t k = 0, n = 2 + rng.NextBounded(5); k < n; ++k) {
      ids.push_back(static_cast<IngredientId>(1 + rng.NextBounded(200)));
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    return CorpusDeltaRecord{cuisine, std::move(ids)};
  };
  RecipeCorpus::Builder builder;
  for (size_t r = 0; r < kHashBlockBytes; ++r) {
    const CorpusDeltaRecord added = recipe();
    ASSERT_TRUE(builder.Add(added.cuisine, added.ingredients).ok());
  }
  ServiceCore core = MakeCore();
  ASSERT_TRUE(core.InstallCorpus(builder.Build(), "base").ok());
  const size_t column_bytes = core.Acquire()->corpus.total_mentions() *
                                  sizeof(IngredientId) +
                              core.Acquire()->corpus.num_recipes() *
                                  (sizeof(uint32_t) + sizeof(CuisineId));
  ASSERT_GT(column_bytes, 3 * kHashBlockBytes);

  for (const size_t recipes : {size_t{1}, size_t{700}, size_t{3000}}) {
    SCOPED_TRACE(std::to_string(recipes) + " recipes");
    std::vector<CorpusDeltaRecord> records;
    size_t delta_bytes = 0;
    for (size_t r = 0; r < recipes; ++r) {
      records.push_back(recipe());
      delta_bytes += records.back().ingredients.size() * sizeof(IngredientId) +
                     sizeof(uint32_t) + sizeof(CuisineId);
    }
    const std::string path = testing::TempDir() + "culevo_delta_blocks.bin";
    CorpusDelta delta;
    delta.base_recipes = core.Acquire()->corpus.num_recipes();
    delta.base_fingerprint = core.Acquire()->content_fingerprint;
    delta.records = std::move(records);
    ASSERT_TRUE(WriteCorpusDelta(path, delta, {.sync = false}).ok());
    const int64_t before = Counter("corpus.fingerprint.bytes_hashed");
    ASSERT_TRUE(core.ReloadDelta(path).ok());
    const int64_t hashed = Counter("corpus.fingerprint.bytes_hashed") - before;
    std::remove(path.c_str());
    EXPECT_GE(hashed, static_cast<int64_t>(delta_bytes));
    EXPECT_LE(hashed, static_cast<int64_t>(delta_bytes + 3 * kHashBlockBytes));

    const std::shared_ptr<const ServiceSnapshot> generation = core.Acquire();
    const CorpusColumnHashes whole = HashCorpusColumns(generation->corpus);
    EXPECT_EQ(generation->column_hashes.flat, whole.flat);
    EXPECT_EQ(generation->column_hashes.offsets, whole.offsets);
    EXPECT_EQ(generation->column_hashes.cuisines, whole.cuisines);
    EXPECT_EQ(generation->content_fingerprint,
              CorpusContentFingerprint(whole));
  }
}

// Readers send `search`, `recipe` and `freq` while the main thread applies
// chained delta reloads, each over a tail that keeps growing: every
// request must succeed. Run under TSan via the tsan preset.
TEST(ServiceCoreTest, ConcurrentReadersAcrossDeltaReloads) {
  ServiceCore core = MakeCore();
  ASSERT_TRUE(core.InstallCorpus(SmallCorpus(), "gen0").ok());

  constexpr int kReaders = 4;
  constexpr int kDeltas = 12;
  const std::vector<std::string> requests = {
      "search #2,#3", "search #1 cuisine=" + Code(kB) + " limit=4",
      "recipe 0", "recipe 4", "freq " + Code(kA) + " #2"};
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<int> served{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t);
           !done.load(std::memory_order_relaxed); ++i) {
        if (!StartsWith(core.Handle(requests[i % requests.size()]), "ok ")) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        served.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  size_t appended = 0;
  for (int d = 0; d < kDeltas; ++d) {
    const std::shared_ptr<const ServiceSnapshot> current = core.Acquire();
    const std::string path = testing::TempDir() + "culevo_delta_readers_" +
                             std::to_string(d) + ".bin";
    CorpusDelta delta;
    delta.base_recipes = current->corpus.num_recipes();
    delta.base_fingerprint = current->content_fingerprint;
    delta.records = {
        {kA, {1, 2, static_cast<IngredientId>(10 + d)}},
        {kB, {2, 3}},
        {static_cast<CuisineId>(2 + d % 3), {1, static_cast<IngredientId>(20 + d)}}};
    ASSERT_TRUE(WriteCorpusDelta(path, delta, {.sync = false}).ok());
    ASSERT_TRUE(core.ReloadDelta(path).ok()) << "delta " << d;
    std::remove(path.c_str());
    appended += delta.records.size();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  done.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(served.load(), 0);
  EXPECT_EQ(core.Acquire()->epoch, static_cast<uint64_t>(kDeltas + 1));
  EXPECT_EQ(core.Acquire()->index.tail_recipes(), appended);
}

}  // namespace
}  // namespace culevo
