#include "analysis/export.h"

#include "util/check.h"
#include "util/strings.h"

namespace culevo {

std::string CurvesToCsv(const std::vector<std::string>& labels,
                        const std::vector<RankFrequency>& curves) {
  CULEVO_CHECK(labels.size() == curves.size());
  size_t max_len = 0;
  for (const RankFrequency& curve : curves) {
    max_len = std::max(max_len, curve.size());
  }
  std::string out = "rank";
  for (const std::string& label : labels) {
    out += ',';
    out += label;
  }
  out += '\n';
  for (size_t rank = 1; rank <= max_len; ++rank) {
    out += StrFormat("%zu", rank);
    for (const RankFrequency& curve : curves) {
      out += ',';
      if (rank <= curve.size()) {
        out += StrFormat("%.10g", curve.at_rank(rank));
      }
    }
    out += '\n';
  }
  return out;
}

std::string MatrixToCsv(const std::vector<std::string>& labels,
                        const std::vector<std::vector<double>>& matrix) {
  CULEVO_CHECK(labels.size() == matrix.size());
  std::string out;
  for (const std::string& label : labels) {
    out += ',';
    out += label;
  }
  out += '\n';
  for (size_t i = 0; i < matrix.size(); ++i) {
    CULEVO_CHECK(matrix[i].size() == labels.size());
    out += labels[i];
    for (double value : matrix[i]) {
      out += StrFormat(",%.10g", value);
    }
    out += '\n';
  }
  return out;
}

}  // namespace culevo
