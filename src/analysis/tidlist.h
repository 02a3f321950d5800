#ifndef CULEVO_ANALYSIS_TIDLIST_H_
#define CULEVO_ANALYSIS_TIDLIST_H_

// Transaction-id-list machinery behind the Eclat miner: a dense bitset
// per tid list, the AND+popcount intersection kernel (with support-based
// early abort), and a rewindable arena so the recursive miner performs
// zero per-candidate heap allocations.
//
// Exposed as a header so the kernel edge cases (the early-abort bound,
// arena trim/rewind) are unit-testable in isolation; everything lives in
// `culevo::mining` to keep the top-level namespace clean.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace culevo::mining {

/// Sentinel returned by IntersectDenseDense when the remaining-input
/// upper bound proves the result cannot reach `min_support`, so the kernel
/// stopped before consuming all input. Callers must treat the output
/// buffer as garbage in that case.
inline constexpr size_t kAborted = static_cast<size_t>(-1);

/// A tid list: `words` points at a fixed-width bitset over all
/// transactions (the miner knows the shared word count) with `support`
/// bits set. The payload lives in a TidArena (or, for roots, in the root
/// arena) and is never owned by this struct.
struct TidList {
  const uint64_t* words = nullptr;
  uint32_t support = 0;
};

/// Bump-pointer arena over 64-bit words with stack-discipline rewind, used
/// for tid-list payloads during one mining call. Memory is grabbed in
/// chunks (geometry: at least `chunk_words`, or the request size if
/// larger); chunks are retained across Rewind so steady-state mining does
/// not touch the heap at all.
class TidArena {
 public:
  static constexpr size_t kDefaultChunkWords = size_t{1} << 14;  // 128 KiB

  explicit TidArena(size_t chunk_words = kDefaultChunkWords)
      : chunk_words_(chunk_words == 0 ? 1 : chunk_words) {}

  TidArena(const TidArena&) = delete;
  TidArena& operator=(const TidArena&) = delete;

  /// Returns `words` (>= 1) uninitialized words. The common case is a pure
  /// bump of the active chunk; chunk advance/growth is out of line.
  uint64_t* AllocWords(size_t words) {
    if (chunk_ < chunks_.size()) {
      Chunk& chunk = chunks_[chunk_];
      if (chunk.size - used_ >= words) {
        uint64_t* ptr = chunk.data.get() + used_;
        used_ += words;
        return ptr;
      }
    }
    return AllocWordsSlow(words);
  }

  /// A rewind point. Everything allocated after Position() is released by
  /// Rewind() — pointers handed out in between become invalid.
  struct Mark {
    size_t chunk = 0;
    size_t used = 0;
  };
  Mark Position() const { return Mark{chunk_, used_}; }
  void Rewind(const Mark& mark) {
    chunk_ = mark.chunk;
    used_ = mark.used;
  }

  /// Shrinks the most recent allocation (which must start at `ptr` inside
  /// the current chunk) to `words` words, releasing the tail.
  void TrimTo(const uint64_t* ptr, size_t words) {
    used_ = static_cast<size_t>(ptr - chunks_[chunk_].data.get()) + words;
  }

  /// Total backing storage reserved across all chunks, in bytes.
  size_t allocated_bytes() const { return total_words_ * sizeof(uint64_t); }

 private:
  struct Chunk {
    std::unique_ptr<uint64_t[]> data;
    size_t size = 0;
  };

  uint64_t* AllocWordsSlow(size_t words);

  size_t chunk_words_;
  std::vector<Chunk> chunks_;
  size_t chunk_ = 0;  ///< Index of the chunk currently bump-allocated.
  size_t used_ = 0;   ///< Words consumed in chunks_[chunk_].
  size_t total_words_ = 0;
};

/// out[i] = a[i] & b[i] with a running popcount. Returns the popcount, or
/// kAborted once popcount-so-far + 64 * remaining_words < min_support
/// with input still unread (the bound is evaluated at block granularity so
/// the inner loop stays vectorizable). A scan that consumes all input
/// returns its exact count even when that count is below min_support —
/// kAborted strictly means "stopped early", so callers can count aborts
/// per aborted kernel invocation. `out` must hold `num_words` words and
/// may alias neither input. On x86-64 Linux this (and PopcountWords)
/// dispatches at load time to an AVX2/POPCNT clone when the CPU has one.
size_t IntersectDenseDense(const uint64_t* a, const uint64_t* b,
                           size_t num_words, size_t min_support,
                           uint64_t* out);

/// Total popcount of `num_words` words (ISA-dispatched, see above).
size_t PopcountWords(const uint64_t* words, size_t num_words);

}  // namespace culevo::mining

#endif  // CULEVO_ANALYSIS_TIDLIST_H_
