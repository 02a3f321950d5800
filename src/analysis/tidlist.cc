#include "analysis/tidlist.h"

#include <algorithm>
#include <bit>

#include "util/check.h"

// ThreadSanitizer's runtime initializes after ifunc resolvers run, so a
// target_clones dispatcher (or any instrumented code reached during early
// startup) segfaults before main under TSan. Kernel ISA dispatch is
// irrelevant to race coverage, so TSan builds take the portable paths.
#if defined(__x86_64__) && defined(__linux__) && defined(__GNUC__) && \
    !defined(__SANITIZE_THREAD__)
#define CULEVO_X86_SIMD 1
#endif

// The kernels are pure AND+popcount loops whose throughput is set by
// the instruction set the compiler may assume. The portable x86-64 baseline
// has no POPCNT instruction, turning std::popcount into a libcall per word
// (~10x slower than the hardware path), so on x86-64 Linux the kernels are
// compiled into per-ISA clones resolved once at load time (ifunc): an AVX2
// clone, a POPCNT clone, and the portable default. Non-x86 targets lower
// std::popcount natively and get the plain definition.
#ifdef CULEVO_X86_SIMD
#define CULEVO_POPCOUNT_CLONES \
  __attribute__((target_clones("avx2", "popcnt", "default")))
#else
#define CULEVO_POPCOUNT_CLONES
#endif

namespace culevo::mining {

uint64_t* TidArena::AllocWordsSlow(size_t words) {
  CULEVO_DCHECK(words > 0);
  while (true) {
    if (chunk_ < chunks_.size()) {
      Chunk& chunk = chunks_[chunk_];
      if (chunk.size - used_ >= words) {
        uint64_t* ptr = chunk.data.get() + used_;
        used_ += words;
        return ptr;
      }
      // Doesn't fit here; fall through to the next chunk. (A retained
      // chunk that is too small for this request is skipped, not freed —
      // marks taken earlier keep indexing the same chunks.)
      ++chunk_;
      used_ = 0;
      continue;
    }
    const size_t size = std::max(chunk_words_, words);
    // for_overwrite: chunks hand out uninitialized words; value-init here
    // would zero every chunk a second time behind the callers' memsets.
    chunks_.push_back(
        Chunk{std::make_unique_for_overwrite<uint64_t[]>(size), size});
    total_words_ += size;
  }
}

CULEVO_POPCOUNT_CLONES
size_t IntersectDenseDense(const uint64_t* a, const uint64_t* b,
                           size_t num_words, size_t min_support,
                           uint64_t* out) {
  // The abort bound is checked once per block, not per word, so the inner
  // loop is a branch-free AND+popcount the vectorizer can unroll. Checking
  // later than word-by-word never changes which scans finish below
  // min_support; it only delays where an unreachable bound is noticed.
  // kAborted is returned only with input still unread — a completed scan
  // reports its exact count (callers tally early_aborts per aborted
  // kernel, so "finished but infrequent" must stay distinguishable).
  constexpr size_t kBlockWords = 8;
  size_t count = 0;
  size_t i = 0;
  while (num_words - i >= kBlockWords) {
    size_t block = 0;
    for (size_t j = 0; j < kBlockWords; ++j) {
      const uint64_t w = a[i + j] & b[i + j];
      out[i + j] = w;
      block += static_cast<size_t>(std::popcount(w));
    }
    count += block;
    i += kBlockWords;
    if (i < num_words && count + 64 * (num_words - i) < min_support) {
      return kAborted;
    }
  }
  for (; i < num_words; ++i) {
    const uint64_t w = a[i] & b[i];
    out[i] = w;
    count += static_cast<size_t>(std::popcount(w));
  }
  return count;
}

CULEVO_POPCOUNT_CLONES
size_t PopcountWords(const uint64_t* words, size_t num_words) {
  size_t count = 0;
  for (size_t i = 0; i < num_words; ++i) {
    count += static_cast<size_t>(std::popcount(words[i]));
  }
  return count;
}

}  // namespace culevo::mining
