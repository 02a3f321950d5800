#include "util/hash.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.h"

namespace culevo {
namespace {

// The published seed-0 answers of xxHash64, then the python-xxhash
// binding's documented examples, which take the 32-byte stripes and a
// seed.
TEST(Xxh64Test, MatchesThePublishedAnswers) {
  EXPECT_EQ(Xxh64(""), 0xef46db3751d8e999ull);
  EXPECT_EQ(Xxh64("a"), 0xd24ec4f1a98c6e5bull);
  EXPECT_EQ(Xxh64("abc"), 0x44bc2cf5ad770999ull);
  EXPECT_EQ(Xxh64("Nobody inspects the spammish repetition"),
            0xfbcea83c8a378bf1ull);
  EXPECT_EQ(Xxh64("xxhash", 20141025), 0xb559b98d844e0635ull);
}

/// `n` pseudo-random bytes.
std::string Bytes(size_t n, uint64_t seed = 5) {
  Rng rng(seed);
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng.NextBounded(256));
  return out;
}

/// The 8 little-endian bytes of `value`.
std::string_view WordBytes(const uint64_t& value) {
  return {reinterpret_cast<const char*>(&value), sizeof(value)};
}

TEST(BlockChecksumTest, FoldsTheBlockHashesInOrder) {
  // No bytes: no blocks, and the fold of none is Xxh64 of no bytes.
  std::vector<uint64_t> blocks;
  EXPECT_EQ(ExtendBlockHashes("", "", blocks), 0u);
  EXPECT_TRUE(blocks.empty());
  EXPECT_EQ(BlockChecksum(""), Xxh64(""));

  // One whole block.
  const std::string one = Bytes(kHashBlockBytes);
  EXPECT_EQ(ExtendBlockHashes(one, "", blocks), one.size());
  EXPECT_EQ(blocks, std::vector<uint64_t>{Xxh64(one)});
  EXPECT_EQ(BlockChecksum(one), Xxh64(WordBytes(Xxh64(one))));

  // One block and one byte: a second, partial block.
  const std::string more = one + 'x';
  const uint64_t hashes[] = {Xxh64(one), Xxh64("x")};
  EXPECT_EQ(BlockChecksum(more), FoldBlockHashes(hashes));
  EXPECT_EQ(FoldBlockHashes(hashes),
            Xxh64(std::string(WordBytes(hashes[0])) +
                  std::string(WordBytes(hashes[1]))));
  EXPECT_NE(BlockChecksum(more), BlockChecksum(one));
}

// A block that straddles a base and a tail hashes like its joined bytes,
// wherever the split falls: in the one 32-byte stripe that straddles, or
// in the final partial stripe.
TEST(BlockChecksumTest, StraddlingBlocksHashLikeTheJoinedBytes) {
  for (const size_t size : {size_t{20}, size_t{40}, size_t{100}}) {
    const std::string bytes = Bytes(size, size);
    for (size_t split = 0; split <= size; ++split) {
      std::vector<uint64_t> blocks;
      ExtendBlockHashes(std::string_view(bytes).substr(0, split),
                        std::string_view(bytes).substr(split), blocks);
      EXPECT_EQ(blocks, std::vector<uint64_t>{Xxh64(bytes)})
          << size << " bytes split at " << split;
    }
  }
}

// A column held as a base and a tail hashes like the joined column, with
// the split before, at or after a block boundary, and a column grown from
// a prefix rehashes only the prefix's last block and the bytes after it.
TEST(BlockChecksumTest, SplitAndGrownColumnsHashLikeTheJoinedOne) {
  const std::string column = Bytes(3 * kHashBlockBytes + 100);
  std::vector<uint64_t> joined;
  ExtendBlockHashes(column, "", joined);
  ASSERT_EQ(joined.size(), 4u);
  for (const size_t split :
       {size_t{0}, size_t{1}, kHashBlockBytes - 1, kHashBlockBytes,
        kHashBlockBytes + 1, 2 * kHashBlockBytes + 7, column.size()}) {
    SCOPED_TRACE("split at " + std::to_string(split));
    const std::string_view whole(column);
    std::vector<uint64_t> blocks;
    EXPECT_EQ(ExtendBlockHashes(whole.substr(0, split), whole.substr(split),
                                blocks),
              column.size());
    EXPECT_EQ(blocks, joined);

    // The first `split` bytes were a column of their own; the grown one
    // keeps their full blocks.
    std::vector<uint64_t> grown;
    ExtendBlockHashes(whole.substr(0, split), "", grown);
    const size_t kept = grown.empty() ? 0 : grown.size() - 1;
    EXPECT_EQ(ExtendBlockHashes(whole.substr(0, split), whole.substr(split),
                                grown),
              column.size() - kept * kHashBlockBytes);
    EXPECT_LE(column.size() - kept * kHashBlockBytes,
              column.size() - split + kHashBlockBytes);
    EXPECT_EQ(grown, joined);
  }
}

}  // namespace
}  // namespace culevo
