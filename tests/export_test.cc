#include "analysis/export.h"

#include <gtest/gtest.h>

#include "util/strings.h"

namespace culevo {
namespace {

TEST(ExportTest, CurvesToCsvAlignsAndPads) {
  const std::vector<RankFrequency> curves = {
      RankFrequency::FromFrequencies({0.5, 0.25, 0.125}),
      RankFrequency::FromFrequencies({0.75}),
  };
  const std::string csv = CurvesToCsv({"empirical", "model"}, curves);
  EXPECT_EQ(csv,
            "rank,empirical,model\n"
            "1,0.5,0.75\n"
            "2,0.25,\n"
            "3,0.125,\n");
  // The padded output must still be rectangular CSV.
  const std::vector<std::string> rows = SplitAndTrim(csv, '\n');
  EXPECT_EQ(rows.size(), 4u);
  for (const std::string& row : rows) EXPECT_EQ(Split(row, ',').size(), 3u);
}

TEST(ExportTest, MatrixToCsv) {
  const std::string csv = MatrixToCsv(
      {"A", "B"}, {{0.0, 0.5}, {0.5, 0.0}});
  EXPECT_EQ(csv, ",A,B\nA,0,0.5\nB,0.5,0\n");
}

}  // namespace
}  // namespace culevo
