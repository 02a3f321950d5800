#ifndef CULEVO_UTIL_HASH_H_
#define CULEVO_UTIL_HASH_H_

#include <cstdint>
#include <string_view>

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

}  // namespace culevo

#endif  // CULEVO_UTIL_HASH_H_
