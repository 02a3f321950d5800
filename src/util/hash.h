#ifndef CULEVO_UTIL_HASH_H_
#define CULEVO_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace culevo {

/// FNV-1a 64-bit offset basis: the hash of no bytes, and the state to
/// start a stream from.
inline constexpr uint64_t kFnv1a64Offset = 0xCBF29CE484222325ull;

/// FNV-1a-64 of `bytes`, continuing from `state`. The hash is a running
/// one, so hashing a stream piece by piece (passing each result on as the
/// next `state`) equals hashing it in one call. This is the one checksum
/// of every on-disk format: the CULEVO-CORPUS and CULEVO-DELTA containers,
/// CorpusContentFingerprint and the journal.
inline uint64_t Fnv1a64(std::string_view bytes,
                        uint64_t state = kFnv1a64Offset) {
  for (const char c : bytes) {
    state ^= static_cast<unsigned char>(c);
    state *= 0x100000001B3ull;  // FNV-1a 64 prime
  }
  return state;
}

/// Mixes `value` into `seed` (boost::hash_combine style, 64-bit constants).
inline uint64_t HashCombine(uint64_t seed, uint64_t value) {
  seed ^= value + 0x9E3779B97F4A7C15ull + (seed << 12) + (seed >> 4);
  return seed;
}

/// Order-sensitive hash of an integral sequence. Itemsets are kept sorted,
/// so this doubles as a set hash for canonicalized itemsets.
template <typename Int>
uint64_t HashSequence(const std::vector<Int>& values) {
  uint64_t seed = 0xC2B2AE3D27D4EB4Full ^ values.size();
  for (Int v : values) seed = HashCombine(seed, static_cast<uint64_t>(v));
  return seed;
}

/// Functor for unordered_map keys holding sorted id vectors.
template <typename Int>
struct SequenceHash {
  size_t operator()(const std::vector<Int>& values) const {
    return static_cast<size_t>(HashSequence(values));
  }
};

}  // namespace culevo

#endif  // CULEVO_UTIL_HASH_H_
