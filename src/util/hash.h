#ifndef CULEVO_UTIL_HASH_H_
#define CULEVO_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace culevo {

/// FNV-1a 64-bit offset basis: the hash of no bytes, and the state to
/// start a stream from.
inline constexpr uint64_t kFnv1a64Offset = 0xCBF29CE484222325ull;

/// FNV-1a-64 of `bytes`, continuing from `state`. The hash is a running
/// one, so hashing a stream piece by piece (passing each result on as the
/// next `state`) equals hashing it in one call. It checksums the journal's
/// records, which are short, and the files of the container versions
/// before the block checksums (CULEVO-CORPUS 1, CULEVO-DELTA 2), which
/// readers still verify. One byte at a time, it runs at about 2 ms per
/// MiB and cannot be split.
inline uint64_t Fnv1a64(std::string_view bytes,
                        uint64_t state = kFnv1a64Offset) {
  for (const char c : bytes) {
    state ^= static_cast<unsigned char>(c);
    state *= 0x100000001B3ull;  // FNV-1a 64 prime
  }
  return state;
}

/// XXH64 of `bytes` under `seed`: the published xxHash64 algorithm (four
/// multiply-rotate lanes over 32-byte stripes, then the tail and the
/// avalanche), written here with no dependency. Little-endian reads, so
/// the value matches the reference implementation on little-endian hosts,
/// the only ones the container formats load on.
uint64_t Xxh64(std::string_view bytes, uint64_t seed = 0);

/// The block of the block checksums: a byte string is hashed as
/// consecutive kHashBlockBytes blocks, the last one partial, each block
/// by Xxh64. Blocks are what the container reader verifies in parallel
/// and what a growing column rehashes only at its end. The block size
/// barely moves a load (the 26 MiB 1 M-recipe snapshot verified in
/// 2.9-3.5 ms on one thread from 64 KiB to 4 MiB blocks); 64 KiB blocks
/// cost ~0.6 ms more on two threads, in task overhead. 256 KiB keeps that
/// snapshot at ~110 blocks and bounds the old bytes a delta rehashes to
/// 256 KiB per column.
inline constexpr size_t kHashBlockBytes = size_t{256} << 10;

/// Blocks in a byte string of `bytes` bytes: ceil(bytes / kHashBlockBytes).
inline size_t HashBlockCount(size_t bytes) {
  return (bytes + kHashBlockBytes - 1) / kHashBlockBytes;
}

/// Extends `blocks` to the block hashes of `head` followed by `tail`,
/// taken as one byte string, and returns the bytes it hashed. On entry
/// `blocks` holds the block hashes of a prefix of that string (none, or
/// those of a column the string extends): its full blocks are kept, and
/// only its last block, which may have been partial, and the bytes after
/// it are hashed. A block that straddles `head` and `tail` is hashed in
/// place too, all but the one 32-byte stripe that straddles them, so the
/// two are never joined. Precondition: the prefix is a prefix of head +
/// tail.
size_t ExtendBlockHashes(std::string_view head, std::string_view tail,
                         std::vector<uint64_t>& blocks);

/// The fold of a byte string's block hashes, in order: Xxh64 over their
/// little-endian bytes (Xxh64 of no bytes for an empty string).
uint64_t FoldBlockHashes(std::span<const uint64_t> blocks);

/// The block checksum of `bytes`: FoldBlockHashes of its block hashes.
/// Every section of a CULEVO-CORPUS 2 or CULEVO-DELTA 3 container, and
/// its section table, carries this checksum, and the content fingerprint
/// of a corpus folds those of its columns (corpus/corpus_snapshot.h).
uint64_t BlockChecksum(std::string_view bytes);

/// Mixes `value` into `seed` (boost::hash_combine style, 64-bit constants).
inline uint64_t HashCombine(uint64_t seed, uint64_t value) {
  seed ^= value + 0x9E3779B97F4A7C15ull + (seed << 12) + (seed >> 4);
  return seed;
}

}  // namespace culevo

#endif  // CULEVO_UTIL_HASH_H_
