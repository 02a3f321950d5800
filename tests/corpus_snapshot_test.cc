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

TEST_F(CorpusSnapshotTest, RefusesWrongVersion) {
  path_ = TempPath("version");
  SnapshotWriteOptions write;
  write.sync = false;
  ASSERT_TRUE(WriteCorpusSnapshot(path_, TestCorpus(20), write).ok());
  Result<std::string> bytes = ReadFileToString(path_);
  ASSERT_TRUE(bytes.ok());
  std::string content = std::move(bytes).value();
  content[16] = 99;  // Version field (u32 little-endian at offset 16).
  ASSERT_TRUE(WriteStringToFile(path_, content).ok());
  Result<LoadedCorpusSnapshot> loaded = LoadCorpusSnapshot(path_);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
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

// Version 1 is a compatibility contract: snapshots already on disk must
// keep loading. Version 2 changed only the version field and the
// checksums, so the writer's bytes re-signed as version 1 (FNV-1a-64) are
// the file the version-1 writer produced for TestCorpus(), which the hash
// pins, and they load.
TEST_F(CorpusSnapshotTest, WritesGoldenVersion1Bytes) {
  path_ = TempPath("golden");
  SnapshotWriteOptions write;
  write.sync = false;
  ASSERT_TRUE(WriteCorpusSnapshot(path_, TestCorpus(), write).ok());
  Result<std::string> bytes = ReadFileToString(path_);
  ASSERT_TRUE(bytes.ok());
  ResignAsVersion(&*bytes, 1);
  EXPECT_EQ(bytes->size(), 10392u);
  EXPECT_EQ(Fnv1a64(*bytes), 0x945a6ae394b77832ull);
  ASSERT_TRUE(WriteStringToFile(path_, *bytes).ok());
  Result<LoadedCorpusSnapshot> loaded = LoadCorpusSnapshot(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectBitIdentical(TestCorpus(), loaded->corpus);
}

// This build writes version 2, whose bytes the hash pins.
TEST_F(CorpusSnapshotTest, WritesGoldenVersion2Bytes) {
  path_ = TempPath("golden2");
  ASSERT_TRUE(WriteCorpusSnapshot(path_, TestCorpus(), {.sync = false}).ok());
  Result<std::string> bytes = ReadFileToString(path_);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(ContainerField<uint32_t>(*bytes, 16), 2u);
  EXPECT_EQ(bytes->size(), 10392u);
  EXPECT_EQ(Fnv1a64(*bytes), 0xa9b10412da8bbd38ull);
}

// The stats section is derived data: a producer that writes stats the
// columns do not support, under valid checksums, must be refused rather
// than have `stats` answer its numbers.
TEST_F(CorpusSnapshotTest, RefusesStatsThatDisagreeWithColumns) {
  path_ = TempPath("stats_lie");
  SnapshotWriteOptions write;
  write.sync = false;
  ASSERT_TRUE(WriteCorpusSnapshot(path_, TestCorpus(20), write).ok());
  Result<std::string> bytes = ReadFileToString(path_);
  ASSERT_TRUE(bytes.ok());
  std::string content = std::move(bytes).value();

  // Re-signing an untouched file changes nothing.
  ResignContainer(&content);
  ASSERT_TRUE(WriteStringToFile(path_, content).ok());
  ASSERT_TRUE(LoadCorpusSnapshot(path_).ok());

  // Stats section (id 4): record 0 is cuisine 0, num_recipes at +8.
  size_t stats_offset = 0;
  for (uint32_t i = 0; i < ContainerField<uint32_t>(content, 44); ++i) {
    if (ContainerField<uint32_t>(content, ContainerTableEntry(i)) == 4) {
      stats_offset =
          ContainerField<uint64_t>(content, ContainerTableEntry(i) + 8);
    }
  }
  ASSERT_NE(stats_offset, 0u);
  SetContainerField<uint64_t>(&content, stats_offset + 8, 1000000);
  ResignContainer(&content);
  ASSERT_TRUE(WriteStringToFile(path_, content).ok());
  Result<LoadedCorpusSnapshot> loaded = LoadCorpusSnapshot(path_);
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss) << loaded.status();
}

// The same check covers the rest of a stats record: under valid
// checksums, a size-histogram bucket moved to its neighbour (the recipe
// count unchanged) or the low bit of a mean flipped is refused.
TEST_F(CorpusSnapshotTest, RefusesStatsHistogramsAndMeansThatDisagree) {
  path_ = TempPath("stats_histogram_lie");
  SnapshotWriteOptions write;
  write.sync = false;
  const RecipeCorpus corpus = TestCorpus(20);
  const CuisineStats first = ComputeCuisineStats(corpus)[0];
  ASSERT_LT(first.min_recipe_size, first.max_recipe_size);
  ASSERT_TRUE(WriteCorpusSnapshot(path_, corpus, write).ok());
  Result<std::string> bytes = ReadFileToString(path_);
  ASSERT_TRUE(bytes.ok());
  const std::string content = std::move(bytes).value();
  const size_t stats_offset = SectionBytes(content, 4).first;

  // Record 0 is cuisine 0: its mean at +24 and its histogram buckets, one
  // u64 per size, from +56.
  const size_t low_bucket =
      stats_offset + 56 + 8 * static_cast<size_t>(first.min_recipe_size);
  ASSERT_EQ(ContainerField<uint64_t>(content, low_bucket),
            first.size_histogram[static_cast<size_t>(first.min_recipe_size)]);
  std::string moved = content;
  SetContainerField<uint64_t>(&moved, low_bucket,
                              ContainerField<uint64_t>(moved, low_bucket) - 1);
  SetContainerField<uint64_t>(
      &moved, low_bucket + 8,
      ContainerField<uint64_t>(moved, low_bucket + 8) + 1);
  std::string flipped = content;
  flipped[stats_offset + 24] =
      static_cast<char>(flipped[stats_offset + 24] ^ 1);

  for (std::string* tampered : {&moved, &flipped}) {
    ResignContainer(tampered);
    ASSERT_TRUE(WriteStringToFile(path_, *tampered).ok());
    for (const bool mmap : {true, false}) {
      Result<LoadedCorpusSnapshot> loaded =
          LoadCorpusSnapshot(path_, {.allow_mmap = mmap});
      EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
          << loaded.status();
    }
  }
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
    EXPECT_TRUE(Same(a.recipes_of(cuisine), b.recipes_of(cuisine))) << c;
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
// bad section in table order, then the first bad recipe in index order,
// then the shards.
TEST_F(CorpusSnapshotTest, ParallelLoadRefusesLikeOneCpuLoad) {
  if (UsableCpus() < 2) GTEST_SKIP() << "this process may use one CPU";
  path_ = TempPath("parallel_refusals");
  const RecipeCorpus& world = World();
  ASSERT_TRUE(WriteCorpusSnapshot(path_, world, {.sync = false}).ok());
  Result<std::string> bytes = ReadFileToString(path_);
  ASSERT_TRUE(bytes.ok());
  const std::string content = std::move(bytes).value();
  const size_t n = world.num_recipes();
  CuisineId largest = 0;
  for (int c = 1; c < kNumCuisines; ++c) {
    if (world.num_recipes_in(static_cast<CuisineId>(c)) >
        world.num_recipes_in(largest)) {
      largest = static_cast<CuisineId>(c);
    }
  }
  const auto [flat_at, flat_size] = SectionBytes(content, 1);
  const auto [cuisines_at, cuisines_size] = SectionBytes(content, 3);
  const auto [stats_at, stats_size] = SectionBytes(content, 4);
  const auto [largest_at, largest_size] = SectionBytes(content, 0x100 + largest);
  const auto [shard24_at, shard24_size] = SectionBytes(content, 0x100 + 24);
  ASSERT_GT(largest_size, stats_size);
  const uint32_t last_begin = world.offsets()[n - 1];
  ASSERT_GE(world.ingredients_of(static_cast<uint32_t>(n - 1)).size(), 2u);
  const uint32_t first24 = world.recipes_of(24).front();
  ASSERT_GT(first24, 0u);

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
    // Not re-signed. The larger section is hashed first, but the stats
    // section comes first in the table.
    std::string file = content;
    file[stats_at] = static_cast<char>(file[stats_at] ^ 1);
    file[largest_at] = static_cast<char>(file[largest_at] ^ 1);
    cases.push_back({"two corrupt sections", std::move(file),
                     "checksum mismatch in section 4"});
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
  {
    // Cuisine 24's first shard entry moved to the recipe before it, which
    // keeps the shard ascending.
    std::string file = content;
    SetContainerField<uint32_t>(&file, shard24_at, first24 - 1);
    ResignContainer(&file);
    cases.push_back({"misassigned shard entry", std::move(file),
                     "shard entry assigned to the wrong cuisine"});
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
