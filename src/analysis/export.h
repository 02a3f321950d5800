#ifndef CULEVO_ANALYSIS_EXPORT_H_
#define CULEVO_ANALYSIS_EXPORT_H_

#include <string>
#include <vector>

#include "analysis/rank_frequency.h"

namespace culevo {

/// CSV exporters for the figure data, so the paper's plots can be
/// regenerated with any plotting tool from bench output.

/// rank,<label1>,<label2>,... — several curves aligned by rank; shorter
/// curves pad with empty cells. Precondition: labels.size() ==
/// curves.size().
std::string CurvesToCsv(const std::vector<std::string>& labels,
                        const std::vector<RankFrequency>& curves);

/// Square matrix with row/column labels (e.g. pairwise MAE, Fig. 3).
/// Precondition: labels.size() == matrix.size() == each row's size.
std::string MatrixToCsv(const std::vector<std::string>& labels,
                        const std::vector<std::vector<double>>& matrix);

}  // namespace culevo

#endif  // CULEVO_ANALYSIS_EXPORT_H_
