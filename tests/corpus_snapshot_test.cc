#include "corpus/corpus_snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "analysis/eclat.h"
#include "analysis/transactions.h"
#include "container_test_util.h"
#include "corpus/corpus_io.h"
#include "corpus/corpus_stats.h"
#include "corpus/ingestion.h"
#include "lexicon/world_lexicon.h"
#include "one_cpu_test_util.h"
#include "synth/generator.h"
#include "util/csv.h"
#include "util/failpoint.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace culevo {
namespace {

std::string TempPath(const char* tag) {
  return testing::TempDir() + "culevo_snapshot_" + tag + ".bin";
}

/// A corpus with several cuisines, duplicate-heavy recipes, and an empty
/// cuisine, so every section kind is exercised.
RecipeCorpus TestCorpus(size_t num_recipes = 200) {
  Rng rng(7);
  RecipeCorpus::Builder builder;
  for (size_t i = 0; i < num_recipes; ++i) {
    const CuisineId cuisine = static_cast<CuisineId>(rng.NextBounded(6));
    std::vector<IngredientId> ids;
    const size_t size = 2 + rng.NextBounded(9);
    for (size_t k = 0; k < size; ++k) {
      ids.push_back(static_cast<IngredientId>(rng.NextBounded(300)));
    }
    EXPECT_TRUE(builder.Add(cuisine, std::move(ids)).ok());
  }
  return builder.Build();
}

bool SameStats(const std::vector<CuisineStats>& a,
               const std::vector<CuisineStats>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].cuisine != b[i].cuisine ||
        a[i].num_recipes != b[i].num_recipes ||
        a[i].num_unique_ingredients != b[i].num_unique_ingredients ||
        a[i].mean_recipe_size != b[i].mean_recipe_size ||
        a[i].min_recipe_size != b[i].min_recipe_size ||
        a[i].max_recipe_size != b[i].max_recipe_size ||
        a[i].size_histogram != b[i].size_histogram) {
      return false;
    }
  }
  return true;
}

void ExpectBitIdentical(const RecipeCorpus& expected,
                        const RecipeCorpus& actual) {
  ASSERT_EQ(expected.num_recipes(), actual.num_recipes());
  EXPECT_TRUE(SameStats(ComputeCuisineStats(expected),
                        ComputeCuisineStats(actual)));
  for (int c = 0; c < kNumCuisines; ++c) {
    const CuisineId cuisine = static_cast<CuisineId>(c);
    EXPECT_TRUE(std::ranges::equal(expected.presence(cuisine),
                                   actual.presence(cuisine)))
        << "cuisine " << c;
  }
  EXPECT_TRUE(std::ranges::equal(expected.presence(), actual.presence()));
  for (int c = 0; c < 6; ++c) {
    const TransactionSet lhs =
        IngredientTransactions(expected, static_cast<CuisineId>(c));
    const TransactionSet rhs =
        IngredientTransactions(actual, static_cast<CuisineId>(c));
    ASSERT_EQ(lhs.size(), rhs.size());
    if (lhs.size() == 0) continue;
    const std::vector<Itemset> lhs_sets = MineEclat(lhs, 2);
    const std::vector<Itemset> rhs_sets = MineEclat(rhs, 2);
    ASSERT_EQ(lhs_sets.size(), rhs_sets.size());
    for (size_t i = 0; i < lhs_sets.size(); ++i) {
      EXPECT_EQ(lhs_sets[i].items, rhs_sets[i].items);
      EXPECT_EQ(lhs_sets[i].support, rhs_sets[i].support);
    }
  }
}

/// {offset, size} of the first section with `id` in a container file.
std::pair<size_t, size_t> SectionBytes(const std::string& file, uint32_t id) {
  for (uint32_t i = 0; i < ContainerField<uint32_t>(file, 44); ++i) {
    const size_t at = ContainerTableEntry(i);
    if (ContainerField<uint32_t>(file, at) == id) {
      return {ContainerField<uint64_t>(file, at + 8),
              ContainerField<uint64_t>(file, at + 16)};
    }
  }
  ADD_FAILURE() << "no section " << id;
  return {0, 0};
}

class CorpusSnapshotTest : public ::testing::Test {
 protected:
  void TearDown() override {
    Failpoints::Get().DisarmAll();
    if (!path_.empty()) std::remove(path_.c_str());
  }

  std::string path_;
};

TEST_F(CorpusSnapshotTest, RoundTripMmap) {
  path_ = TempPath("roundtrip");
  const RecipeCorpus corpus = TestCorpus();
  SnapshotWriteOptions options;
  options.sync = false;
  ASSERT_TRUE(WriteCorpusSnapshot(path_, corpus, options).ok());

  Result<LoadedCorpusSnapshot> loaded = LoadCorpusSnapshot(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->memory_mapped);
  EXPECT_TRUE(loaded->corpus.borrowed());
  EXPECT_GT(loaded->file_bytes, 0u);
  EXPECT_TRUE(SameStats(loaded->stats, ComputeCuisineStats(corpus)));
  ExpectBitIdentical(corpus, loaded->corpus);
}

TEST_F(CorpusSnapshotTest, RoundTripBufferedFallback) {
  path_ = TempPath("fallback");
  const RecipeCorpus corpus = TestCorpus();
  SnapshotWriteOptions write;
  write.sync = false;
  ASSERT_TRUE(WriteCorpusSnapshot(path_, corpus, write).ok());

  SnapshotLoadOptions load;
  load.allow_mmap = false;
  Result<LoadedCorpusSnapshot> loaded = LoadCorpusSnapshot(path_, load);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_FALSE(loaded->memory_mapped);
  EXPECT_TRUE(loaded->corpus.borrowed());  // Views into the owned buffer.
  ExpectBitIdentical(corpus, loaded->corpus);
}

TEST_F(CorpusSnapshotTest, TsvAndSnapshotAgree) {
  path_ = TempPath("tsv_agree");
  const Lexicon& lexicon = WorldLexicon();
  Rng rng(11);
  RecipeCorpus::Builder builder;
  for (int i = 0; i < 150; ++i) {
    std::vector<IngredientId> ids;
    for (int k = 0; k < 5; ++k) {
      ids.push_back(static_cast<IngredientId>(rng.NextBounded(
          lexicon.size())));
    }
    ASSERT_TRUE(
        builder.Add(static_cast<CuisineId>(rng.NextBounded(kNumCuisines)),
                    std::move(ids))
            .ok());
  }
  const RecipeCorpus corpus = builder.Build();

  // TSV round trip (names resolve back to the same ids)...
  Result<RecipeCorpus> parsed =
      ParseCorpusTsv(FormatCorpusTsv(corpus, lexicon), lexicon);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ExpectBitIdentical(corpus, parsed.value());

  // ...and snapshot round trip, against the same reference.
  SnapshotWriteOptions write;
  write.sync = false;
  ASSERT_TRUE(WriteCorpusSnapshot(path_, corpus, write).ok());
  Result<LoadedCorpusSnapshot> loaded = LoadCorpusSnapshot(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectBitIdentical(corpus, loaded->corpus);
}

TEST_F(CorpusSnapshotTest, LoadedCorpusSurvivesCopies) {
  path_ = TempPath("copies");
  const RecipeCorpus corpus = TestCorpus(50);
  SnapshotWriteOptions write;
  write.sync = false;
  ASSERT_TRUE(WriteCorpusSnapshot(path_, corpus, write).ok());
  RecipeCorpus copy;
  {
    Result<LoadedCorpusSnapshot> loaded = LoadCorpusSnapshot(path_);
    ASSERT_TRUE(loaded.ok());
    RecipeCorpus inner = loaded->corpus;  // Copy shares the mapping.
    copy = inner;
  }  // Original loaded snapshot destroyed; backing must stay alive.
  ExpectBitIdentical(corpus, copy);
}

TEST_F(CorpusSnapshotTest, MissingFileIsNotFound) {
  Result<LoadedCorpusSnapshot> loaded =
      LoadCorpusSnapshot(TempPath("never_written"));
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST_F(CorpusSnapshotTest, RefusesForeignFile) {
  path_ = TempPath("foreign");
  ASSERT_TRUE(WriteStringToFile(
                  path_, std::string(4096, 'x'))
                  .ok());
  Result<LoadedCorpusSnapshot> loaded = LoadCorpusSnapshot(path_);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

// A version this build does not read, below 1 or above 3, is refused by
// its version, which the message names.
TEST_F(CorpusSnapshotTest, RefusesWrongVersion) {
  path_ = TempPath("version");
  SnapshotWriteOptions write;
  write.sync = false;
  ASSERT_TRUE(WriteCorpusSnapshot(path_, TestCorpus(20), write).ok());
  Result<std::string> bytes = ReadFileToString(path_);
  ASSERT_TRUE(bytes.ok());
  for (const char version : {0, 4, 99}) {
    std::string content = *bytes;
    content[16] = version;  // Version field (u32 little-endian at offset 16).
    ASSERT_TRUE(WriteStringToFile(path_, content).ok());
    Result<LoadedCorpusSnapshot> loaded = LoadCorpusSnapshot(path_);
    EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(loaded.status().message().find(
                  StrFormat("version %d", version)),
              std::string::npos)
        << loaded.status();
  }
}

TEST_F(CorpusSnapshotTest, RefusesForeignEndianness) {
  path_ = TempPath("endian");
  SnapshotWriteOptions write;
  write.sync = false;
  ASSERT_TRUE(WriteCorpusSnapshot(path_, TestCorpus(20), write).ok());
  Result<std::string> bytes = ReadFileToString(path_);
  ASSERT_TRUE(bytes.ok());
  std::string content = std::move(bytes).value();
  std::swap(content[20], content[23]);  // Byte-swap the endian marker.
  std::swap(content[21], content[22]);
  ASSERT_TRUE(WriteStringToFile(path_, content).ok());
  Result<LoadedCorpusSnapshot> loaded = LoadCorpusSnapshot(path_);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(CorpusSnapshotTest, RefusesTruncation) {
  path_ = TempPath("truncated");
  SnapshotWriteOptions write;
  write.sync = false;
  ASSERT_TRUE(WriteCorpusSnapshot(path_, TestCorpus(), write).ok());
  Result<std::string> bytes = ReadFileToString(path_);
  ASSERT_TRUE(bytes.ok());
  const std::string content = std::move(bytes).value();
  // Cut at several depths: inside the header, inside the section table,
  // inside a payload.
  for (const size_t keep :
       {size_t{10}, size_t{100}, content.size() / 2, content.size() - 1}) {
    ASSERT_TRUE(WriteStringToFile(path_, content.substr(0, keep)).ok());
    Result<LoadedCorpusSnapshot> loaded = LoadCorpusSnapshot(path_);
    EXPECT_FALSE(loaded.ok()) << "survived truncation to " << keep;
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
        << "truncation to " << keep << ": " << loaded.status();
  }
}

TEST_F(CorpusSnapshotTest, RefusesBitFlips) {
  path_ = TempPath("bitflip");
  SnapshotWriteOptions write;
  write.sync = false;
  ASSERT_TRUE(WriteCorpusSnapshot(path_, TestCorpus(), write).ok());
  Result<std::string> bytes = ReadFileToString(path_);
  ASSERT_TRUE(bytes.ok());
  const std::string content = std::move(bytes).value();
  // Flip one bit at several positions beyond the magic: header fields,
  // section table, section payloads.
  for (const size_t at : {size_t{25}, size_t{70}, content.size() / 2,
                          content.size() - 3}) {
    std::string corrupted = content;
    corrupted[at] = static_cast<char>(corrupted[at] ^ 0x10);
    ASSERT_TRUE(WriteStringToFile(path_, corrupted).ok());
    Result<LoadedCorpusSnapshot> loaded = LoadCorpusSnapshot(path_);
    EXPECT_FALSE(loaded.ok()) << "survived a bit flip at byte " << at;
  }
}

// Versions 1 and 2 are a compatibility contract: snapshots already on
// disk must keep loading, to the corpus they were written from and with
// the fingerprint ContentFingerprintIsPinned pins, the stats and
// recipe-index sections they also hold ignored.
void ExpectLoadsToTestCorpus(const std::string& path) {
  for (const bool mmap : {true, false}) {
    Result<LoadedCorpusSnapshot> loaded =
        LoadCorpusSnapshot(path, {.allow_mmap = mmap});
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    ExpectBitIdentical(TestCorpus(), loaded->corpus);
    EXPECT_EQ(loaded->content_fingerprint, 0x655684717e10473cull);
    EXPECT_TRUE(SameStats(loaded->stats, ComputeCuisineStats(TestCorpus())));
  }
}

/// The bytes the version-2 writer produced for TestCorpus(), committed.
std::string Version2Bytes() {
  Result<std::string> bytes =
      ReadFileToString(std::string(CULEVO_TEST_DATA_DIR) + "/corpus_v2.snap");
  EXPECT_TRUE(bytes.ok()) << bytes.status();
  return bytes.ok() ? *std::move(bytes) : std::string();
}

// Version 2 changed only the version field and the checksums of version
// 1, so the version-2 file re-signed as version 1 (FNV-1a-64) is the file
// the version-1 writer produced for TestCorpus(), which the hash pins.
TEST_F(CorpusSnapshotTest, WritesGoldenVersion1Bytes) {
  path_ = TempPath("golden");
  std::string bytes = Version2Bytes();
  ResignAsVersion(&bytes, 1);
  EXPECT_EQ(bytes.size(), 10392u);
  EXPECT_EQ(Fnv1a64(bytes), 0x945a6ae394b77832ull);
  ASSERT_TRUE(WriteStringToFile(path_, bytes).ok());
  ExpectLoadsToTestCorpus(path_);
}

// The committed file is the version-2 writer's bytes for TestCorpus(),
// which the hash pins. The test loads a copy, so no load touches it.
TEST_F(CorpusSnapshotTest, WritesGoldenVersion2Bytes) {
  path_ = TempPath("golden2");
  const std::string bytes = Version2Bytes();
  EXPECT_EQ(ContainerField<uint32_t>(bytes, 16), 2u);
  EXPECT_EQ(bytes.size(), 10392u);
  EXPECT_EQ(Fnv1a64(bytes), 0xa9b10412da8bbd38ull);
  ASSERT_TRUE(WriteStringToFile(path_, bytes).ok());
  ExpectLoadsToTestCorpus(path_);
}

// This build writes version 3, whose bytes the hash pins: the three
// columns and the unique lists, no stats and no recipe-index sections.
TEST_F(CorpusSnapshotTest, WritesGoldenVersion3Bytes) {
  path_ = TempPath("golden3");
  ASSERT_TRUE(WriteCorpusSnapshot(path_, TestCorpus(), {.sync = false}).ok());
  Result<std::string> bytes = ReadFileToString(path_);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(ContainerField<uint32_t>(*bytes, 16), 3u);
  const uint32_t sections = ContainerField<uint32_t>(*bytes, 44);
  ASSERT_EQ(sections, 3u + kNumCuisines + 1);
  for (uint32_t i = 0; i < sections; ++i) {
    EXPECT_EQ(ContainerField<uint32_t>(*bytes, ContainerTableEntry(i)),
              i < 3 ? i + 1 : 0x200 + (i - 3))
        << "entry " << i;
  }
  EXPECT_EQ(bytes->size(), 6832u);
  EXPECT_EQ(Fnv1a64(*bytes), 0x7ad12cfddf563090ull);
  ExpectLoadsToTestCorpus(path_);
}

// No byte of the file goes unchecked: the zero padding between sections,
// the reserved word of each table entry and anything after the last
// section are outside every payload checksum, so the reader checks them
// directly.
TEST_F(CorpusSnapshotTest, RefusesBytesOutsideEverySection) {
  path_ = TempPath("padding");
  SnapshotWriteOptions write;
  write.sync = false;
  ASSERT_TRUE(WriteCorpusSnapshot(path_, TestCorpus(21), write).ok());
  Result<std::string> bytes = ReadFileToString(path_);
  ASSERT_TRUE(bytes.ok());
  const std::string content = std::move(bytes).value();

  // The cuisine column (section 3, one byte per recipe) leaves padding
  // before the section after it.
  const size_t padding = ContainerField<uint64_t>(content,
                                                  ContainerTableEntry(2) + 8) +
                         ContainerField<uint64_t>(content,
                                                  ContainerTableEntry(2) + 16);
  ASSERT_EQ(ContainerField<uint32_t>(content, ContainerTableEntry(2)), 3u);
  ASSERT_NE(padding % 8, 0u);
  std::string corrupted = content;
  corrupted[padding] = 1;
  ASSERT_TRUE(WriteStringToFile(path_, corrupted).ok());
  EXPECT_EQ(LoadCorpusSnapshot(path_).status().code(), StatusCode::kDataLoss);

  corrupted = content;
  SetContainerField<uint32_t>(&corrupted, ContainerTableEntry(5) + 4, 1);
  ResignContainer(&corrupted);
  ASSERT_TRUE(WriteStringToFile(path_, corrupted).ok());
  EXPECT_EQ(LoadCorpusSnapshot(path_).status().code(), StatusCode::kDataLoss);

  // Trailing bytes, with the header's file size raised to cover them.
  corrupted = content + std::string(8, '\0');
  SetContainerField<uint64_t>(&corrupted, 48, corrupted.size());
  ASSERT_TRUE(WriteStringToFile(path_, corrupted).ok());
  EXPECT_EQ(LoadCorpusSnapshot(path_).status().code(), StatusCode::kDataLoss);
}

TEST_F(CorpusSnapshotTest, ReadFailpointInjects) {
  path_ = TempPath("failpoint");
  SnapshotWriteOptions write;
  write.sync = false;
  ASSERT_TRUE(WriteCorpusSnapshot(path_, TestCorpus(20), write).ok());
  Failpoints::Get().Arm("corpus.snapshot.read");
  Result<LoadedCorpusSnapshot> loaded = LoadCorpusSnapshot(path_);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  Failpoints::Get().DisarmAll();
  EXPECT_TRUE(LoadCorpusSnapshot(path_).ok());
}

TEST_F(CorpusSnapshotTest, CorruptFailpointForcesChecksumPath) {
  path_ = TempPath("corrupt_fp");
  SnapshotWriteOptions write;
  write.sync = false;
  ASSERT_TRUE(WriteCorpusSnapshot(path_, TestCorpus(20), write).ok());
  Failpoints::Get().Arm("corpus.snapshot.read.corrupt");
  Result<LoadedCorpusSnapshot> loaded = LoadCorpusSnapshot(path_);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST_F(CorpusSnapshotTest, WriteFailpointInjects) {
  path_ = TempPath("write_fp");
  Failpoints::Get().Arm("corpus.snapshot.write");
  EXPECT_FALSE(WriteCorpusSnapshot(path_, TestCorpus(20)).ok());
  Failpoints::Get().DisarmAll();
}

// The loader takes the content fingerprint from the verified checksums of
// the column sections, and the column hashes from their verified blocks,
// instead of hashing the columns (a version-1 file's are hashed); the
// results must be those of the loaded columns, and of the corpus written.
TEST_F(CorpusSnapshotTest, LoadReturnsContentFingerprint) {
  path_ = TempPath("fingerprint");
  const SnapshotWriteOptions write{.sync = false};
  const auto expect_fingerprint = [&](const RecipeCorpus& written,
                                      const SnapshotLoadOptions& load,
                                      const char* what) {
    Result<LoadedCorpusSnapshot> loaded = LoadCorpusSnapshot(path_, load);
    ASSERT_TRUE(loaded.ok()) << what << ": " << loaded.status();
    EXPECT_EQ(loaded->memory_mapped, load.allow_mmap) << what;
    EXPECT_EQ(loaded->content_fingerprint,
              CorpusContentFingerprint(loaded->corpus))
        << what;
    EXPECT_EQ(loaded->content_fingerprint, CorpusContentFingerprint(written))
        << what;
    const CorpusColumnHashes hashes = HashCorpusColumns(written);
    EXPECT_EQ(loaded->column_hashes.flat, hashes.flat) << what;
    EXPECT_EQ(loaded->column_hashes.offsets, hashes.offsets) << what;
    EXPECT_EQ(loaded->column_hashes.cuisines, hashes.cuisines) << what;
  };

  RecipeCorpus::Builder builder;
  const RecipeCorpus empty = builder.Build();
  ASSERT_TRUE(WriteCorpusSnapshot(path_, empty, write).ok());
  expect_fingerprint(empty, {}, "empty corpus");

  ASSERT_TRUE(builder.Add(3, {9, 4}).ok());
  const RecipeCorpus one = builder.Build();
  ASSERT_TRUE(WriteCorpusSnapshot(path_, one, write).ok());
  expect_fingerprint(one, {}, "one recipe");

  const RecipeCorpus small = TestCorpus(20);
  ASSERT_TRUE(WriteCorpusSnapshot(path_, small, write).ok());
  expect_fingerprint(small, {}, "small corpus");
  expect_fingerprint(small, {.allow_mmap = false}, "buffered load");
  std::string version1 = ReadFileToString(path_).value();
  ResignAsVersion(&version1, 1);
  ASSERT_TRUE(WriteStringToFile(path_, version1).ok());
  expect_fingerprint(small, {}, "version-1 file");

  // An incremental corpus after appends.
  IncrementalCorpus incremental = IncrementalCorpus::FromCorpus(small);
  const std::vector<IngredientId> appended[] = {{1, 2, 3}, {250, 7}, {42}};
  for (size_t i = 0; i < std::size(appended); ++i) {
    ASSERT_TRUE(incremental.Add(static_cast<CuisineId>(i), appended[i]).ok());
  }
  Result<RecipeCorpus> grown = incremental.Materialize();
  ASSERT_TRUE(grown.ok()) << grown.status();
  ASSERT_TRUE(WriteCorpusSnapshot(path_, *grown, write).ok());
  expect_fingerprint(*grown, {}, "incremental snapshot after appends");
}

// A corpus with a tail writes its columns whole: the snapshot of a corpus
// extended from the first half of TestCorpus() is byte for byte the
// snapshot of TestCorpus() itself.
TEST_F(CorpusSnapshotTest, ExtendedCorpusWritesTheBytesOfItsRebuild) {
  path_ = TempPath("extended");
  const std::string rebuilt_path = TempPath("extended_rebuilt");
  const SnapshotWriteOptions write{.sync = false};
  const RecipeCorpus rebuilt = TestCorpus();
  const uint32_t half = static_cast<uint32_t>(rebuilt.num_recipes() / 2);
  RecipeCorpus::Builder builder;
  for (uint32_t r = 0; r < half; ++r) {
    ASSERT_TRUE(builder.Add(rebuilt.cuisine_of(r), rebuilt.ingredients_of(r))
                    .ok());
  }
  IncrementalCorpus incremental = IncrementalCorpus::FromCorpus(builder.Build());
  for (uint32_t r = half; r < rebuilt.num_recipes(); ++r) {
    ASSERT_TRUE(
        incremental.Add(rebuilt.cuisine_of(r), rebuilt.ingredients_of(r)).ok());
  }
  Result<RecipeCorpus> extended = incremental.Materialize();
  ASSERT_TRUE(extended.ok()) << extended.status();
  ASSERT_EQ(extended->segments()[1].cuisines.size(),
            rebuilt.num_recipes() - half);

  ASSERT_TRUE(WriteCorpusSnapshot(path_, *extended, write).ok());
  ASSERT_TRUE(WriteCorpusSnapshot(rebuilt_path, rebuilt, write).ok());
  Result<std::string> extended_bytes = ReadFileToString(path_);
  Result<std::string> rebuilt_bytes = ReadFileToString(rebuilt_path);
  std::remove(rebuilt_path.c_str());
  ASSERT_TRUE(extended_bytes.ok());
  ASSERT_TRUE(rebuilt_bytes.ok());
  EXPECT_EQ(*extended_bytes, *rebuilt_bytes);
  EXPECT_EQ(CorpusContentFingerprint(*extended),
            CorpusContentFingerprint(rebuilt));
}

// A delta file pins its base corpus by this value, so it must not change:
// the fold of the block checksums of flat, offsets and cuisines, in that
// order.
TEST_F(CorpusSnapshotTest, ContentFingerprintIsPinned) {
  EXPECT_EQ(CorpusContentFingerprint(TestCorpus()), 0x655684717e10473cull);
}

TEST_F(CorpusSnapshotTest, EmptyCorpusRoundTrips) {
  path_ = TempPath("empty");
  RecipeCorpus::Builder builder;
  const RecipeCorpus corpus = builder.Build();
  SnapshotWriteOptions write;
  write.sync = false;
  ASSERT_TRUE(WriteCorpusSnapshot(path_, corpus, write).ok());
  Result<LoadedCorpusSnapshot> loaded = LoadCorpusSnapshot(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->corpus.num_recipes(), 0u);
  ExpectBitIdentical(corpus, loaded->corpus);
}

// ---------------------------------------------------------------------------
// The load on every usable CPU against the same load on one.

/// The scale-1.0 synthesized world (158,460 recipes): enough recipes and
/// bytes for every parallel stage of a load to split.
const RecipeCorpus& World() {
  static const RecipeCorpus* const world = [] {
    Result<RecipeCorpus> built = SynthesizeWorldCorpus(WorldLexicon());
    EXPECT_TRUE(built.ok()) << built.status();
    return new RecipeCorpus(built.ok() ? std::move(*built) : RecipeCorpus());
  }();
  return *world;
}

Result<LoadedCorpusSnapshot> LoadOnOneCpu(const std::string& path) {
  const OneCpuScope pin;
  EXPECT_EQ(UsableCpus(), 1u);
  return LoadCorpusSnapshot(path);
}

template <typename T>
bool Same(std::span<const T> a, std::span<const T> b) {
  return std::ranges::equal(a, b);
}

// The checksums, the column validation and the fingerprint run on the
// CPUs the process may use; what they produce must not depend on how
// many that is.
TEST_F(CorpusSnapshotTest, ParallelLoadMatchesOneCpuLoad) {
  if (UsableCpus() < 2) GTEST_SKIP() << "this process may use one CPU";
  path_ = TempPath("parallel");
  const RecipeCorpus& world = World();
  ASSERT_GE(ThreadsFor(world.num_recipes(), kRecipesPerThread), 2u);
  ASSERT_TRUE(WriteCorpusSnapshot(path_, world, {.sync = false}).ok());

  const Result<LoadedCorpusSnapshot> one = LoadOnOneCpu(path_);
  const Result<LoadedCorpusSnapshot> all = LoadCorpusSnapshot(path_);
  ASSERT_TRUE(one.ok()) << one.status();
  ASSERT_TRUE(all.ok()) << all.status();
  const RecipeCorpus& a = one->corpus;
  const RecipeCorpus& b = all->corpus;
  EXPECT_TRUE(Same(a.flat(), b.flat()));
  EXPECT_TRUE(Same(a.offsets(), b.offsets()));
  EXPECT_TRUE(Same(a.cuisines(), b.cuisines()));
  for (int c = 0; c < kNumCuisines; ++c) {
    const CuisineId cuisine = static_cast<CuisineId>(c);
    EXPECT_TRUE(Same(a.UniqueIngredients(cuisine),
                     b.UniqueIngredients(cuisine)))
        << c;
    EXPECT_TRUE(Same(a.presence(cuisine), b.presence(cuisine))) << c;
    EXPECT_TRUE(Same(world.presence(cuisine), b.presence(cuisine))) << c;
  }
  EXPECT_TRUE(Same(a.UniqueIngredients(), b.UniqueIngredients()));
  EXPECT_TRUE(Same(a.presence(), b.presence()));
  EXPECT_TRUE(Same(world.presence(), b.presence()));
  EXPECT_TRUE(SameStats(one->stats, all->stats));
  EXPECT_EQ(one->content_fingerprint, all->content_fingerprint);
  EXPECT_EQ(all->content_fingerprint, CorpusContentFingerprint(world));
}

// A refusal names the same first fault whatever the CPU count: the first
// bad section in table order, then the first bad recipe in index order.
TEST_F(CorpusSnapshotTest, ParallelLoadRefusesLikeOneCpuLoad) {
  if (UsableCpus() < 2) GTEST_SKIP() << "this process may use one CPU";
  path_ = TempPath("parallel_refusals");
  const RecipeCorpus& world = World();
  ASSERT_TRUE(WriteCorpusSnapshot(path_, world, {.sync = false}).ok());
  Result<std::string> bytes = ReadFileToString(path_);
  ASSERT_TRUE(bytes.ok());
  const std::string content = std::move(bytes).value();
  const size_t n = world.num_recipes();
  const auto [flat_at, flat_size] = SectionBytes(content, 1);
  const auto [offsets_at, offsets_size] = SectionBytes(content, 2);
  const auto [cuisines_at, cuisines_size] = SectionBytes(content, 3);
  // The flat column's last block is partial, so the first block of the
  // offsets column, a full one, is larger and is hashed before it.
  ASSERT_NE(flat_size % kHashBlockBytes, 0u);
  ASSERT_GE(offsets_size, kHashBlockBytes);
  const uint32_t last_begin = world.offsets()[n - 1];
  ASSERT_GE(world.ingredients_of(static_cast<uint32_t>(n - 1)).size(), 2u);

  const auto unsort_last_recipe = [&](std::string* file) {
    const size_t at = flat_at + size_t{last_begin} * sizeof(IngredientId);
    std::swap_ranges(file->begin() + static_cast<ptrdiff_t>(at),
                     file->begin() + static_cast<ptrdiff_t>(at + 2),
                     file->begin() + static_cast<ptrdiff_t>(at + 2));
  };
  struct Case {
    const char* name;
    std::string file;
    const char* refusal;
  };
  std::vector<Case> cases;
  {
    // Not re-signed. The offsets block is hashed first, but the flat
    // column comes first in the table.
    std::string file = content;
    const size_t flat_last = flat_at + flat_size - 1;
    file[flat_last] = static_cast<char>(file[flat_last] ^ 1);
    file[offsets_at] = static_cast<char>(file[offsets_at] ^ 1);
    cases.push_back({"two corrupt sections", std::move(file),
                     "checksum mismatch in section 1"});
  }
  {
    std::string file = content;
    unsort_last_recipe(&file);
    ResignContainer(&file);
    cases.push_back({"unsorted last recipe", std::move(file),
                     "recipe ingredients must be sorted and unique"});
  }
  {
    // Two bad recipes in different ranges: the first one wins.
    std::string file = content;
    unsort_last_recipe(&file);
    file[cuisines_at] = static_cast<char>(kNumCuisines + 1);
    ResignContainer(&file);
    cases.push_back({"bad first and last recipes", std::move(file),
                     "cuisine id out of range"});
  }
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ASSERT_TRUE(WriteStringToFile(path_, c.file).ok());
    const Result<LoadedCorpusSnapshot> one = LoadOnOneCpu(path_);
    const Result<LoadedCorpusSnapshot> all = LoadCorpusSnapshot(path_);
    ASSERT_FALSE(one.ok());
    ASSERT_FALSE(all.ok());
    EXPECT_EQ(one.status().code(), StatusCode::kDataLoss);
    EXPECT_EQ(all.status(), one.status());
    EXPECT_NE(all.status().message().find(c.refusal), std::string::npos)
        << all.status();
  }
}

}  // namespace
}  // namespace culevo
