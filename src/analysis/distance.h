#ifndef CULEVO_ANALYSIS_DISTANCE_H_
#define CULEVO_ANALYSIS_DISTANCE_H_

#include <vector>

#include "analysis/rank_frequency.h"

namespace culevo {

/// Mean absolute error between two rank-frequency curves over the shared
/// rank range r = min(|a|, |b|):  (1/r) * sum |f_a(i) - f_b(i)|.
/// This matches the *name* the paper gives Eq. 2. Returns 0 for two empty
/// curves and the mean of the non-empty curve's values against zero if
/// exactly one is empty.
double MeanAbsoluteError(const RankFrequency& a, const RankFrequency& b);

/// Eq. 2 exactly as *printed* in the paper (a squared difference despite
/// the MAE name): (1/r) * sum (f_a(i) - f_b(i))^2. See DESIGN.md §5.
double PaperEq2Distance(const RankFrequency& a, const RankFrequency& b);

/// Symmetric pairwise-distance matrix over a set of curves using
/// MeanAbsoluteError. matrix[i][j] == matrix[j][i], diagonal == 0.
std::vector<std::vector<double>> PairwiseMae(
    const std::vector<RankFrequency>& curves);

/// Mean of the strictly-upper-triangle entries of a square matrix
/// (the paper's "average MAE" across cuisine pairs). Returns 0 for
/// matrices smaller than 2x2.
double MeanOffDiagonal(const std::vector<std::vector<double>>& matrix);

}  // namespace culevo

#endif  // CULEVO_ANALYSIS_DISTANCE_H_
