#include "analysis/distance.h"

#include <algorithm>
#include <cmath>

namespace culevo {
namespace {

/// Shared-rank reduction: applies `term` over ranks 1..min(|a|,|b|) and
/// divides by the rank count. If one curve is empty, compares the other
/// against an all-zero curve of equal length.
template <typename TermFn>
double SharedRankMean(const RankFrequency& a, const RankFrequency& b,
                      TermFn term) {
  const RankFrequency* first = &a;
  const RankFrequency* second = &b;
  if (first->empty() && second->empty()) return 0.0;
  size_t r = std::min(first->size(), second->size());
  if (r == 0) {
    // One curve empty: treat it as zero over the other's full length.
    const RankFrequency* nonempty = first->empty() ? second : first;
    double total = 0.0;
    for (double v : nonempty->values()) total += term(v, 0.0);
    return total / static_cast<double>(nonempty->size());
  }
  double total = 0.0;
  for (size_t i = 0; i < r; ++i) {
    total += term(first->values()[i], second->values()[i]);
  }
  return total / static_cast<double>(r);
}

}  // namespace

double MeanAbsoluteError(const RankFrequency& a, const RankFrequency& b) {
  return SharedRankMean(a, b,
                        [](double x, double y) { return std::abs(x - y); });
}

double PaperEq2Distance(const RankFrequency& a, const RankFrequency& b) {
  return SharedRankMean(
      a, b, [](double x, double y) { return (x - y) * (x - y); });
}

std::vector<std::vector<double>> PairwiseMae(
    const std::vector<RankFrequency>& curves) {
  const size_t n = curves.size();
  std::vector<std::vector<double>> matrix(n, std::vector<double>(n, 0.0));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const double d = MeanAbsoluteError(curves[i], curves[j]);
      matrix[i][j] = d;
      matrix[j][i] = d;
    }
  }
  return matrix;
}

double MeanOffDiagonal(const std::vector<std::vector<double>>& matrix) {
  const size_t n = matrix.size();
  if (n < 2) return 0.0;
  double total = 0.0;
  size_t pairs = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      total += matrix[i][j];
      ++pairs;
    }
  }
  return total / static_cast<double>(pairs);
}

}  // namespace culevo
