#include "util/hash.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/check.h"

namespace culevo {
namespace {

// The five primes of the xxHash64 specification.
constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ull;
constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ull;

uint64_t Read64(const char* p) {
  uint64_t value;
  std::memcpy(&value, p, sizeof(value));
  return value;
}

uint32_t Read32(const char* p) {
  uint32_t value;
  std::memcpy(&value, p, sizeof(value));
  return value;
}

uint64_t Round(uint64_t lane, uint64_t input) {
  lane += input * kPrime2;
  return std::rotl(lane, 31) * kPrime1;
}

uint64_t MergeRound(uint64_t hash, uint64_t lane) {
  hash ^= Round(0, lane);
  return hash * kPrime1 + kPrime4;
}

/// Runs the four lanes over the whole 32-byte stripes at the front of
/// `bytes` and drops them from it.
void Stripes(uint64_t (&lanes)[4], std::string_view& bytes) {
  const char* p = bytes.data();
  const char* const end = p + bytes.size() / 32 * 32;
  for (; p < end; p += 32) {
    lanes[0] = Round(lanes[0], Read64(p));
    lanes[1] = Round(lanes[1], Read64(p + 8));
    lanes[2] = Round(lanes[2], Read64(p + 16));
    lanes[3] = Round(lanes[3], Read64(p + 24));
  }
  bytes.remove_prefix(bytes.size() / 32 * 32);
}

/// Xxh64 of `head` followed by `tail`, as one string, without joining
/// them: the stripes of each are read in place, and only the one stripe
/// that straddles them, or the final partial one, from a 32-byte copy.
uint64_t Xxh64Of(std::string_view head, std::string_view tail,
                 uint64_t seed) {
  const size_t total = head.size() + tail.size();
  uint64_t lanes[4] = {seed + kPrime1 + kPrime2, seed + kPrime2, seed,
                       seed - kPrime1};
  Stripes(lanes, head);
  char joined[32];
  std::string_view rest;  // The final partial stripe, under 32 bytes.
  if (head.size() + tail.size() < 32) {
    std::copy(tail.begin(), tail.end(),
              std::copy(head.begin(), head.end(), joined));
    rest = std::string_view(joined, head.size() + tail.size());
  } else {
    if (!head.empty()) {
      std::copy_n(tail.begin(), 32 - head.size(),
                  std::copy(head.begin(), head.end(), joined));
      std::string_view stripe(joined, 32);
      Stripes(lanes, stripe);
      tail.remove_prefix(32 - head.size());
    }
    Stripes(lanes, tail);
    rest = tail;
  }

  uint64_t hash = seed + kPrime5;
  if (total >= 32) {
    hash = std::rotl(lanes[0], 1) + std::rotl(lanes[1], 7) +
           std::rotl(lanes[2], 12) + std::rotl(lanes[3], 18);
    for (const uint64_t lane : lanes) hash = MergeRound(hash, lane);
  }
  hash += total;
  const char* p = rest.data();
  const char* const end = p + rest.size();
  for (; end - p >= 8; p += 8) {
    hash ^= Round(0, Read64(p));
    hash = std::rotl(hash, 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    hash ^= uint64_t{Read32(p)} * kPrime1;
    hash = std::rotl(hash, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    hash ^= static_cast<unsigned char>(*p) * kPrime5;
    hash = std::rotl(hash, 11) * kPrime1;
  }
  hash ^= hash >> 33;
  hash *= kPrime2;
  hash ^= hash >> 29;
  hash *= kPrime3;
  hash ^= hash >> 32;
  return hash;
}

}  // namespace

uint64_t Xxh64(std::string_view bytes, uint64_t seed) {
  return Xxh64Of(bytes, {}, seed);
}

size_t ExtendBlockHashes(std::string_view head, std::string_view tail,
                         std::vector<uint64_t>& blocks) {
  const size_t total = head.size() + tail.size();
  CULEVO_CHECK(blocks.size() <= HashBlockCount(total));
  if (!blocks.empty()) blocks.pop_back();
  blocks.reserve(HashBlockCount(total));
  size_t hashed = 0;
  for (size_t begin = blocks.size() * kHashBlockBytes; begin < total;
       begin += kHashBlockBytes) {
    const size_t size = std::min(kHashBlockBytes, total - begin);
    // The block's bytes in `head`, then those in `tail`.
    const std::string_view from_head =
        begin < head.size() ? head.substr(begin, size) : std::string_view();
    const std::string_view from_tail =
        from_head.size() == size
            ? std::string_view()
            : tail.substr(begin + from_head.size() - head.size(),
                          size - from_head.size());
    blocks.push_back(Xxh64Of(from_head, from_tail, 0));
    hashed += size;
  }
  return hashed;
}

uint64_t FoldBlockHashes(std::span<const uint64_t> blocks) {
  return Xxh64(std::string_view(reinterpret_cast<const char*>(blocks.data()),
                                blocks.size_bytes()));
}

uint64_t BlockChecksum(std::string_view bytes) {
  std::vector<uint64_t> blocks;
  ExtendBlockHashes(bytes, {}, blocks);
  return FoldBlockHashes(blocks);
}

}  // namespace culevo
