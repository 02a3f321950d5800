#ifndef CULEVO_UTIL_DISTRIBUTIONS_H_
#define CULEVO_UTIL_DISTRIBUTIONS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.h"
#include "util/status.h"

namespace culevo {

/// Standard normal variate via Box–Muller (one value per call; simple and
/// deterministic across platforms, unlike std::normal_distribution).
double SampleStandardNormal(Rng* rng);

/// Normal(mean, stddev) truncated to the closed integer interval [lo, hi]
/// by resampling, then rounded to the nearest integer: the paper's recipe
/// sizes are gaussian and bounded (Fig. 1).
int SampleTruncatedNormalInt(Rng* rng, double mean, double stddev, int lo,
                             int hi);

/// Zipf–Mandelbrot weights w_r = 1 / (r + q)^s for ranks r = 1..n,
/// normalized to sum to 1. Models ingredient rank-frequency curves.
std::vector<double> ZipfWeights(size_t n, double exponent, double shift = 0.0);

/// O(1) sampling from a fixed discrete distribution (Walker alias method).
class DiscreteSampler {
 public:
  /// `weights` must be non-empty with non-negative entries and positive sum.
  explicit DiscreteSampler(const std::vector<double>& weights);

  /// Returns an index in [0, size()) with probability proportional to its
  /// weight.
  size_t Sample(Rng* rng) const;

  size_t size() const { return prob_.size(); }

 private:
  std::vector<double> prob_;
  std::vector<uint32_t> alias_;
};

/// Reusable duplicate-detection bitmask for SampleWithoutReplacementInto.
/// The mask stays all-zero between calls (callers clear exactly the bits
/// they set), so one scratch serves any number of draws over ranges up to
/// its reserved width without re-zeroing.
class SampleScratch {
 public:
  /// Grows the mask to cover values in [0, n). Newly added words are zero;
  /// existing bits are untouched.
  void Reserve(uint32_t n) {
    const size_t words = (static_cast<size_t>(n) + 63) / 64;
    if (words > words_.size()) words_.resize(words, 0);
  }

  bool Test(uint32_t v) const {
    return (words_[v >> 6] >> (v & 63)) & 1u;
  }
  void Set(uint32_t v) { words_[v >> 6] |= uint64_t{1} << (v & 63); }
  void Clear(uint32_t v) { words_[v >> 6] &= ~(uint64_t{1} << (v & 63)); }

 private:
  std::vector<uint64_t> words_;
};

/// Samples `k` distinct indices uniformly from [0, n) (Floyd's algorithm).
/// Precondition: k <= n. Order of the result is unspecified but
/// deterministic for a given RNG state.
std::vector<uint32_t> SampleWithoutReplacement(Rng* rng, uint32_t n,
                                               uint32_t k);

/// In-place variant of SampleWithoutReplacement: appends `k` distinct
/// values from [0, n) to `*out`, using `*scratch` for duplicate detection
/// instead of Floyd's O(k²) linear rescan. Allocation-free once `out` and
/// `scratch` capacity are warm (`scratch` is left all-zero on return).
/// Draws the RNG in the same order as SampleWithoutReplacement, so both
/// variants produce the identical sample from the same stream.
void SampleWithoutReplacementInto(Rng* rng, uint32_t n, uint32_t k,
                                  SampleScratch* scratch,
                                  std::vector<uint32_t>* out);

/// Samples `k` distinct indices from [0, n) with probability proportional
/// to `weights` (sequential draws with a running total; suitable for
/// k << n or modest n). Returns InvalidArgument when `k` exceeds the
/// number of *positive* weights (zero-weight entries are legal but never
/// selectable) or any weight is negative.
Result<std::vector<uint32_t>> WeightedSampleWithoutReplacement(
    Rng* rng, const std::vector<double>& weights, uint32_t k);

}  // namespace culevo

#endif  // CULEVO_UTIL_DISTRIBUTIONS_H_
