// Seeded byte-mutation fuzzing of every entry point that parses untrusted
// bytes: the CULEVO-CORPUS and CULEVO-DELTA containers, the run journal
// (its framing and its record grammar), the wire frame, the request line,
// the TSV readers (corpus and lexicon) and the raw-recipe ingest path.
// Each row mutates one valid seed input a fixed number of times from a
// fixed seed, so a failure replays exactly. The mutations are bit flips,
// byte sets, truncations, and aligned u32/u64 fields set to 0, all-ones
// or the high bit; for the two containers and the journal records every
// other mutation also re-signs the file, so the validators behind the
// checksums run too. The snapshot is fuzzed in every version a build
// reads: 3 as this build writes it, 2 from the committed version-2 file
// (with the stats and recipe-index sections the load ignores), and 1 from
// that file re-signed with FNV-1a checksums. Each container leg checks
// that some re-signed mutant got past the checksums to be refused by
// those validators.
//
// Every call must return (no abort, no sanitizer report; an escaped
// exception fails the test) with a status from the entry point's
// documented refusal set. A snapshot or delta the loader accepts must then
// be refused at install or answer a fixed request list, a journal resume
// accepts must restore the same from the journal it rewrote, text a TSV
// reader accepts must read back the same from its own output, and raw
// recipes must always ingest into a corpus that does. The
// per-format named refusal tests, which pin exact statuses at exact
// offsets, live beside each format's other tests.

#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "container_test_util.h"
#include "corpus/container.h"
#include "corpus/corpus_io.h"
#include "corpus/corpus_snapshot.h"
#include "corpus/ingestion.h"
#include "core/run_journal.h"
#include "lexicon/lexicon_io.h"
#include "lexicon/world_lexicon.h"
#include "service/protocol.h"
#include "service/service_core.h"
#include "util/checkpoint.h"
#include "util/csv.h"
#include "util/file_io.h"
#include "util/rng.h"
#include "util/strings.h"

namespace culevo {
namespace {

constexpr int kMutations = 2000;

/// `seed` with one random mutation applied.
std::string Mutate(const std::string& seed, Rng& rng) {
  std::string out = seed;
  if (out.empty()) return out;
  const size_t at = rng.NextBounded(out.size());
  switch (rng.NextBounded(5)) {
    case 0:
      out[at] = static_cast<char>(out[at] ^ (1 << rng.NextBounded(8)));
      break;
    case 1:
      out[at] = static_cast<char>(rng.NextBounded(256));
      break;
    case 2:
      out.resize(at);
      break;
    default: {
      // A u32 or u64 field at an aligned offset: 0, all-ones, high bit.
      const size_t width = rng.NextBounded(2) == 0 ? 4 : 8;
      const size_t field = at / width * width;
      if (field + width > out.size()) break;
      const uint64_t values[] = {0, ~uint64_t{0},
                                 uint64_t{1} << (8 * width - 1)};
      const uint64_t value = values[rng.NextBounded(3)];
      std::memcpy(out.data() + field, &value, width);
      break;
    }
  }
  return out;
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  ASSERT_TRUE(WriteFileAtomic(path, bytes, /*sync=*/false).ok());
}

/// True when `status` is one of `allowed`; adds a failure naming `where`
/// otherwise.
bool StatusIn(const Status& status, std::initializer_list<StatusCode> allowed,
              const std::string& where) {
  if (std::find(allowed.begin(), allowed.end(), status.code()) !=
      allowed.end()) {
    return true;
  }
  ADD_FAILURE() << where << ": undocumented status " << status;
  return false;
}

/// A rendered response: `ok <rows>` or `error <Status>`.
bool IsResponse(const std::string& response) {
  return StartsWith(response, "ok ") || StartsWith(response, "error ");
}

/// Every request of a fixed list renders a response.
void ExpectAnswers(ServiceCore& core, const std::string& where) {
  for (const char* request :
       {"info", "stats AFR", "stats ITA", "overrep ITA 5", "nearest ITA 3",
        "freq ITA #2", "recipe 0", "recipe 2", "recipe 40", "search #1,#2",
        "search #3 cuisine=ITA limit=4"}) {
    const std::string response = core.Handle(request);
    EXPECT_TRUE(IsResponse(response))
        << where << ": " << request << " -> " << response;
  }
}

/// A small corpus over ids the world lexicon holds, spread over a few
/// cuisines (ITA among them) so every section kind is populated.
RecipeCorpus SeedCorpus() {
  Rng rng(21);
  RecipeCorpus::Builder builder;
  const CuisineId ita = CuisineFromCode("ITA").value();
  for (int i = 0; i < 40; ++i) {
    const CuisineId cuisine =
        i % 3 == 0 ? ita : static_cast<CuisineId>(rng.NextBounded(4));
    std::vector<IngredientId> ids;
    for (size_t k = 0, n = 2 + rng.NextBounded(5); k < n; ++k) {
      ids.push_back(static_cast<IngredientId>(rng.NextBounded(40)));
    }
    EXPECT_TRUE(builder.Add(cuisine, std::move(ids)).ok());
  }
  return builder.Build();
}

bool SameColumns(const RecipeCorpus& a, const RecipeCorpus& b) {
  return std::ranges::equal(a.flat(), b.flat()) &&
         std::ranges::equal(a.offsets(), b.offsets()) &&
         std::ranges::equal(a.cuisines(), b.cuisines());
}

class MutationFuzzTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }

  /// Runs `check` on kMutations mutants of the text `seed`; the TSV
  /// readers parse bytes in memory, so no file is written.
  void FuzzText(const std::string& seed, uint64_t rng_seed,
                const std::function<void(const std::string& mutant,
                                         const std::string& where)>& check) {
    Rng rng(rng_seed);
    for (int i = 0; i < kMutations && !HasFailure(); ++i) {
      check(Mutate(seed, rng), StrFormat("mutant %d", i));
    }
  }

  /// Runs `check`, which returns the entry point's status, on kMutations
  /// mutants of `seed` written to path_. With a container `format`, every
  /// other mutant is re-signed with its own version's checksum, and the
  /// result is how many of those were refused past the checksums: refused
  /// although ReadContainer verifies them, which only the validators
  /// behind the checksums do.
  int Fuzz(const std::string& seed, uint64_t rng_seed,
           const ContainerFormat* format,
           const std::function<Status(const std::string& where)>& check) {
    Rng rng(rng_seed);
    int refused_past_checksums = 0;
    for (int i = 0; i < kMutations; ++i) {
      std::string mutant = Mutate(seed, rng);
      const bool resigned = format != nullptr && i % 2 == 1;
      if (resigned) ResignContainer(&mutant);
      WriteBytes(path_, mutant);
      const Status status = check(StrFormat("mutant %d", i));
      if (HasFailure()) break;  // One replayable failure is enough.
      if (resigned && !status.ok() && ReadContainer(path_, *format).ok()) {
        ++refused_past_checksums;
      }
    }
    return refused_past_checksums;
  }

  /// A snapshot leg: a mutant the loader accepts must install and answer,
  /// or be refused at install.
  void FuzzSnapshot(const std::string& seed, uint64_t rng_seed) {
    int accepted = 0;
    const int refused_past_checksums = Fuzz(
        seed, rng_seed, &kSnapshotFormat, [&](const std::string& where) {
          const Result<LoadedCorpusSnapshot> loaded = LoadCorpusSnapshot(path_);
          if (!StatusIn(loaded.status(),
                        {StatusCode::kOk, StatusCode::kInvalidArgument,
                         StatusCode::kFailedPrecondition,
                         StatusCode::kDataLoss},
                        where) ||
              !loaded.ok()) {
            return loaded.status();
          }
          ++accepted;
          ServiceCore core(&WorldLexicon(), {});
          const Status installed = core.LoadFromFile(path_);
          if (StatusIn(installed,
                       {StatusCode::kOk, StatusCode::kFailedPrecondition},
                       where) &&
              installed.ok()) {
            ExpectAnswers(core, where);
          }
          return loaded.status();
        });
    EXPECT_GT(accepted, 0);  // Some mutants must reach the install path.
    EXPECT_GT(refused_past_checksums, 0);
  }

  static constexpr ContainerFormat kSnapshotFormat = {
      "CULEVO-CORPUS", kCorpusSnapshotVersion, "corpus.snapshot", 1, 2};
  static constexpr ContainerFormat kDeltaFormat = {
      "CULEVO-DELTA", kCorpusDeltaVersion, "corpus.delta",
      kCorpusDeltaVersion, kCorpusDeltaVersion};

  std::string path_ = testing::TempDir() + "culevo_mutation_fuzz.bin";
};

TEST_F(MutationFuzzTest, LoadCorpusSnapshot) {
  ASSERT_TRUE(WriteCorpusSnapshot(path_, SeedCorpus(), {.sync = false}).ok());
  FuzzSnapshot(ReadFileToString(path_).value(), 1);
}

/// The committed bytes of the version-2 writer (corpus_snapshot_test's
/// TestCorpus(), whose ids the world lexicon holds).
std::string Version2Snapshot() {
  return ReadFileToString(std::string(CULEVO_TEST_DATA_DIR) +
                          "/corpus_v2.snap")
      .value();
}

TEST_F(MutationFuzzTest, LoadCorpusSnapshotVersion2) {
  const std::string seed = Version2Snapshot();
  WriteBytes(path_, seed);
  ASSERT_TRUE(LoadCorpusSnapshot(path_).ok());
  FuzzSnapshot(seed, 13);
}

// The version-2 file re-signed with FNV-1a-64 under version 1.
TEST_F(MutationFuzzTest, LoadCorpusSnapshotVersion1) {
  std::string seed = Version2Snapshot();
  ResignAsVersion(&seed, 1);
  WriteBytes(path_, seed);
  ASSERT_TRUE(LoadCorpusSnapshot(path_).ok());
  FuzzSnapshot(seed, 12);
}

TEST_F(MutationFuzzTest, LoadCorpusDelta) {
  const RecipeCorpus base = SeedCorpus();
  CorpusDelta delta;
  delta.base_recipes = base.num_recipes();
  delta.base_fingerprint = CorpusContentFingerprint(base);
  delta.records = {{0, {1, 2, 3}}, {5, {7}}, {2, {4, 30, 39}}};
  ASSERT_TRUE(WriteCorpusDelta(path_, delta, {.sync = false}).ok());
  const std::string seed = ReadFileToString(path_).value();
  ServiceCore core(&WorldLexicon(), {});
  ASSERT_TRUE(core.InstallCorpus(base, "base").ok());
  int applied = 0;
  const int refused_past_checksums = Fuzz(
      seed, 2, &kDeltaFormat, [&](const std::string& where) {
        const Result<CorpusDelta> loaded = LoadCorpusDelta(path_);
        if (!StatusIn(loaded.status(),
                      {StatusCode::kOk, StatusCode::kInvalidArgument,
                       StatusCode::kFailedPrecondition, StatusCode::kDataLoss},
                      where) ||
            !loaded.ok()) {
          return loaded.status();
        }
        const Status reloaded = core.ReloadDelta(path_);
        if (StatusIn(reloaded,
                     {StatusCode::kOk, StatusCode::kFailedPrecondition},
                     where) &&
            reloaded.ok()) {
          ++applied;
          ExpectAnswers(core, where);
          EXPECT_TRUE(core.InstallCorpus(base, "base").ok());
        }
        return loaded.status();
      });
  EXPECT_GT(applied, 0);  // Some mutants must apply and be queried.
  EXPECT_GT(refused_past_checksums, 0);
}

TEST_F(MutationFuzzTest, ReadJournal) {
  const std::vector<std::string> records = {"kind=a x=1", "kind=b y=22",
                                            "", "kind=c z=333 w=4"};
  std::string seed = JournalHeader(kJournalFormatVersion) + "\n";
  for (const std::string& record : records) {
    seed += FormatJournalRecord(record);
  }
  Fuzz(seed, 3, /*format=*/nullptr, [&](const std::string& where) {
    const Result<JournalContents> contents = ReadJournal(path_);
    if (StatusIn(contents.status(),
                 {StatusCode::kOk, StatusCode::kInvalidArgument,
                  StatusCode::kFailedPrecondition},
                 where) &&
        contents.ok()) {
      // What survives is a prefix of what was written.
      EXPECT_TRUE(contents->records.size() <= records.size() &&
                  std::equal(contents->records.begin(),
                             contents->records.end(), records.begin()))
          << where;
    }
    return contents.status();
  });
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Two resumes restored the same replicas, doubles compared bit for bit.
void ExpectSameRestored(const RunJournal& a, const RunJournal& b,
                        const std::string& where) {
  ASSERT_EQ(a.restored_replicas().size(), b.restored_replicas().size())
      << where;
  for (size_t i = 0; i < a.restored_replicas().size(); ++i) {
    const ReplicaCheckpoint& x = a.restored_replicas()[i];
    const ReplicaCheckpoint& y = b.restored_replicas()[i];
    EXPECT_TRUE(x.replica == y.replica &&
                SameBits(x.ingredient, y.ingredient) &&
                SameBits(x.category, y.category))
        << where << ": replica record " << i;
  }
}

// The record grammar behind the journal framing: each mutant of a real
// simulation journal is resumed as the target journal and, separately, as
// shard 0 of a two-shard merge. An accepted mutant's rewritten journal
// must restore the same state when opened again. The seed also holds the
// records older builds wrote, which resume must keep accepting: a replica
// record with a `retries` field, and an incident record.
TEST_F(MutationFuzzTest, RunJournalOpen) {
  const std::string dir = testing::TempDir() + "culevo_mutation_fuzz_journal";
  std::filesystem::remove_all(dir);
  CheckpointOptions options;
  options.directory = dir;
  options.sync = false;
  RunManifest manifest;
  manifest.name = "CM-R";
  manifest.config_fingerprint = 0x5eed;
  manifest.seed = 42;
  manifest.replicas = 4;
  const std::string file_name = "sim_cm_r_c0.journal";
  const std::string target = dir + "/" + file_name;
  const std::string shard = dir + "/" + ShardJournalFileName(file_name, 0);
  {
    Result<std::unique_ptr<RunJournal>> journal =
        RunJournal::Open(options, file_name, manifest);
    ASSERT_TRUE(journal.ok()) << journal.status();
    ASSERT_TRUE((*journal)->AppendReplica({0, {1.0, 0.5}, {2.0}}).ok());
    ASSERT_TRUE(
        (*journal)->AppendInterrupt(Status::Cancelled("deadline")).ok());
  }
  // Replica 2 with ingredient curve {3.0, 0.25, 0.125}, and replica 1
  // failed with Internal "mine = 100%\tx" after two retries.
  const std::string seed =
      ReadFileToString(target).value() +
      FormatJournalRecord("kind=replica k=2 retries=1 ic=4008000000000000,"
                          "3fd0000000000000,3fc0000000000000 cc=") +
      FormatJournalRecord(
          "kind=incident k=1 code=6 retries=2 msg=mine%20%3D%20100%25%09x");
  options.resume = true;

  Rng rng(11);
  int accepted = 0;
  for (int i = 0; i < kMutations && !HasFailure(); ++i) {
    std::string mutant = Mutate(seed, rng);
    if (i % 2 == 1) ResignJournal(&mutant);
    for (const int merge_shards : {0, 2}) {
      const std::string where =
          StrFormat("mutant %d, merge_shards %d", i, merge_shards);
      std::filesystem::remove(target);
      std::filesystem::remove(shard);
      WriteBytes(merge_shards == 0 ? target : shard, mutant);
      const bool had_target = std::filesystem::exists(target);
      options.merge_shards = merge_shards;
      const Result<std::unique_ptr<RunJournal>> opened =
          RunJournal::Open(options, file_name, manifest);
      if (!StatusIn(opened.status(),
                    {StatusCode::kOk, StatusCode::kInvalidArgument,
                     StatusCode::kFailedPrecondition},
                    where) ||
          !opened.ok()) {
        // A refusal leaves the target as it was and no temp file.
        ASSERT_EQ(std::filesystem::exists(target), had_target) << where;
        if (had_target) {
          ASSERT_EQ(ReadFileToString(target).value(), mutant) << where;
        }
        for (const auto& entry : std::filesystem::directory_iterator(dir)) {
          ASSERT_EQ(entry.path().filename().string().find(".tmp-"),
                    std::string::npos)
              << where << ": " << entry.path();
        }
        continue;
      }
      ++accepted;
      const Result<std::unique_ptr<RunJournal>> reopened =
          RunJournal::Open(options, file_name, manifest);
      ASSERT_TRUE(reopened.ok()) << where << ": " << reopened.status();
      ExpectSameRestored(**opened, **reopened, where);
    }
  }
  EXPECT_GT(accepted, 0);
  std::filesystem::remove_all(dir);
}

TEST_F(MutationFuzzTest, ReadFrame) {
  const std::string request = "search #1,#2 cuisine=ITA limit=3";
  std::string seed;
  AppendPod(&seed, static_cast<uint32_t>(request.size()));
  seed += request;
  ServiceCore core(&WorldLexicon(), {});
  ASSERT_TRUE(core.InstallCorpus(SeedCorpus(), "seed").ok());
  Rng rng(4);
  for (int i = 0; i < kMutations && !HasFailure(); ++i) {
    const std::string mutant = Mutate(seed, rng);
    const std::string where = StrFormat("mutant %d", i);
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ASSERT_EQ(::write(fds[1], mutant.data(), mutant.size()),
              static_cast<ssize_t>(mutant.size()));
    ::close(fds[1]);
    std::string payload;
    const Status status = ReadFrame(fds[0], &payload, 1000);
    ::close(fds[0]);
    if (StatusIn(status,
                 {StatusCode::kOk, StatusCode::kNotFound,
                  StatusCode::kDataLoss, StatusCode::kInvalidArgument},
                 where) &&
        status.ok()) {
      const std::string response = core.Handle(payload);
      EXPECT_TRUE(IsResponse(response)) << where << ": " << response;
    }
  }
}

TEST_F(MutationFuzzTest, ServiceCoreHandle) {
  ServiceCore core(&WorldLexicon(), {});
  ASSERT_TRUE(core.InstallCorpus(SeedCorpus(), "seed").ok());
  const std::vector<std::string> seeds = {
      "stats ITA",       "overrep ITA 5 deadline_ms=100",
      "nearest ITA 3",   "freq ITA #2",
      "recipe 2",        "search #1,#2 cuisine=ITA limit=3",
      "info",            "simulate ITA NM replicas=1 seed=5"};
  Rng rng(5);
  for (int i = 0; i < kMutations && !HasFailure(); ++i) {
    const std::string mutant = Mutate(seeds[i % seeds.size()], rng);
    const std::string response = core.Handle(mutant);
    EXPECT_TRUE(IsResponse(response))
        << "mutant " << i << " '" << mutant << "' -> " << response;
  }
}

TEST_F(MutationFuzzTest, ParseCorpusTsv) {
  const Lexicon& lexicon = WorldLexicon();
  const std::string seed = FormatCorpusTsv(SeedCorpus(), lexicon);
  for (const bool skip_unknown : {false, true}) {
    int accepted = 0;
    FuzzText(seed, skip_unknown ? 7 : 6, [&](const std::string& mutant,
                                             const std::string& where) {
      const Result<RecipeCorpus> parsed =
          ParseCorpusTsv(mutant, lexicon, skip_unknown);
      if (!StatusIn(parsed.status(),
                    {StatusCode::kOk, StatusCode::kInvalidArgument,
                     StatusCode::kNotFound},
                    where) ||
          !parsed.ok()) {
        return;
      }
      ++accepted;
      const Result<RecipeCorpus> reparsed =
          ParseCorpusTsv(FormatCorpusTsv(*parsed, lexicon), lexicon);
      ASSERT_TRUE(reparsed.ok()) << where << ": " << reparsed.status();
      EXPECT_TRUE(SameColumns(*parsed, *reparsed)) << where;
    });
    EXPECT_GT(accepted, 0) << "skip_unknown " << skip_unknown;
  }
}

TEST_F(MutationFuzzTest, ParseLexiconTsv) {
  const std::string seed =
      "# culevo lexicon: category\tname\tcompound\taliases\n"
      "Vegetable\ttomato\t0\ttomatoes;roma tomato\n"
      "Spice\tblack pepper\t0\tpeppercorn\n"
      "Dairy\tmilk\t0\t\n"
      "Herb\tbasil\t0\n"
      "\n"
      "Dish\tginger garlic paste\t1\tgg paste\n";
  ASSERT_TRUE(ParseLexiconTsv(seed).ok());
  int accepted = 0;
  FuzzText(seed, 8, [&](const std::string& mutant, const std::string& where) {
    // The codes of the parser itself and of Lexicon::Add and
    // Lexicon::AddAlias, whose refusals it passes on.
    const Result<Lexicon> parsed = ParseLexiconTsv(mutant);
    if (!StatusIn(parsed.status(),
                  {StatusCode::kOk, StatusCode::kInvalidArgument,
                   StatusCode::kOutOfRange, StatusCode::kAlreadyExists,
                   StatusCode::kNotFound},
                  where) ||
        !parsed.ok()) {
      return;
    }
    ++accepted;
    const Result<Lexicon> reparsed =
        ParseLexiconTsv(FormatLexiconTsv(*parsed));
    ASSERT_TRUE(reparsed.ok()) << where << ": " << reparsed.status();
    ASSERT_EQ(reparsed->size(), parsed->size()) << where;
    for (size_t i = 0; i < parsed->size(); ++i) {
      const IngredientId id = static_cast<IngredientId>(i);
      EXPECT_EQ(reparsed->name(id), parsed->name(id)) << where;
      EXPECT_EQ(reparsed->entry(id).category, parsed->entry(id).category)
          << where;
      EXPECT_EQ(reparsed->entry(id).compound, parsed->entry(id).compound)
          << where;
    }
  });
  EXPECT_GT(accepted, 0);
}

// What `culevo_cli ingest` reads: ParseRawRecipeText, then
// ParseIngredientLine and Lexicon::ResolveMention per line. Ingestion
// never fails on content, its report must add up, and the corpus must
// hold only lexicon ids and survive a TSV round trip.
TEST_F(MutationFuzzTest, IngestRawRecipes) {
  const std::string seed =
      "# scraped recipes\n"
      "ITA\n"
      "2 1/2 cups finely chopped tomatoes\n"
      "1 tbsp olive oil\n"
      "3 cloves garlic\n"
      "a pinch of oregano\n"
      "\n"
      "JPN\n"
      "1/4 cup soy sauce\n"
      "2 tsp grated fresh ginger\n"
      "\n"
      "INSC\n"
      "2 cups ginger garlic paste\n"
      "1 tsp turmeric powder\n";
  const Lexicon& lexicon = WorldLexicon();
  IngestionReport seed_report;
  ASSERT_TRUE(
      IngestRawRecipes(ParseRawRecipeText(seed), lexicon, &seed_report).ok());
  ASSERT_EQ(seed_report.recipes_ingested, 3u);
  ASSERT_EQ(seed_report.lines_resolved, seed_report.lines_in);
  int ingesting = 0;
  FuzzText(seed, 11, [&](const std::string& mutant, const std::string& where) {
    IngestionReport report;
    const Result<RecipeCorpus> corpus =
        IngestRawRecipes(ParseRawRecipeText(mutant), lexicon, &report);
    ASSERT_TRUE(corpus.ok()) << where << ": " << corpus.status();
    EXPECT_EQ(report.recipes_in,
              report.recipes_ingested + report.recipes_dropped)
        << where;
    EXPECT_EQ(corpus->num_recipes(), report.recipes_ingested) << where;
    EXPECT_LE(report.lines_resolved, report.lines_in) << where;
    const Status ids = CheckIdsInLexicon(*corpus, lexicon, where);
    ASSERT_TRUE(ids.ok()) << ids;
    const Result<RecipeCorpus> reparsed =
        ParseCorpusTsv(FormatCorpusTsv(*corpus, lexicon), lexicon);
    ASSERT_TRUE(reparsed.ok()) << where << ": " << reparsed.status();
    EXPECT_TRUE(SameColumns(*corpus, *reparsed)) << where;
    if (corpus->num_recipes() > 0) ++ingesting;
  });
  EXPECT_GT(ingesting, 0);
}

}  // namespace
}  // namespace culevo
