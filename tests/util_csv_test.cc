#include "util/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace culevo {
namespace {

TEST(ParseDsvTest, SimpleRows) {
  Result<DsvTable> table = ParseDsv("a,b\nc,d\n", ',');
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->num_rows(), 2u);
  EXPECT_EQ(table->rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(table->rows[1], (std::vector<std::string>{"c", "d"}));
}

TEST(ParseDsvTest, NoTrailingNewline) {
  Result<DsvTable> table = ParseDsv("a,b", ',');
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->num_rows(), 1u);
}

TEST(ParseDsvTest, CrLfLineEndings) {
  Result<DsvTable> table = ParseDsv("a,b\r\nc,d\r\n", ',');
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->num_rows(), 2u);
  EXPECT_EQ(table->rows[0][1], "b");
}

TEST(ParseDsvTest, QuotedFieldsWithDelimiterAndNewline) {
  Result<DsvTable> table = ParseDsv("\"a,1\",\"b\nc\"\n", ',');
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->num_rows(), 1u);
  EXPECT_EQ(table->rows[0][0], "a,1");
  EXPECT_EQ(table->rows[0][1], "b\nc");
}

TEST(ParseDsvTest, DoubledQuotesEscape) {
  Result<DsvTable> table = ParseDsv("\"say \"\"hi\"\"\"\n", ',');
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->rows[0][0], "say \"hi\"");
}

TEST(ParseDsvTest, EmptyFields) {
  Result<DsvTable> table = ParseDsv(",a,\n", ',');
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->rows[0], (std::vector<std::string>{"", "a", ""}));
}

TEST(ParseDsvTest, UnterminatedQuoteFails) {
  Result<DsvTable> table = ParseDsv("\"open,b\n", ',');
  EXPECT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParseDsvTest, QuoteInsideUnquotedFieldFails) {
  Result<DsvTable> table = ParseDsv("ab\"c,d\n", ',');
  EXPECT_FALSE(table.ok());
}

TEST(ParseDsvTest, TabDelimiter) {
  Result<DsvTable> table = ParseDsv("a\tb\nc\td\n", '\t');
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->rows[1][0], "c");
}

TEST(FormatDsvTest, RoundTripsWithQuoting) {
  DsvTable table;
  // {""} is written quoted: as a bare newline it would read back as no row.
  table.rows = {{"plain", "with,comma", "with\"quote", "with\nnewline"},
                {""}};
  const std::string text = FormatDsv(table, ',');
  Result<DsvTable> parsed = ParseDsv(text, ',');
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->rows, table.rows);
}

TEST(FileIoTest, MissingFileIsIOError) {
  Result<std::string> content =
      ReadFileToString("/nonexistent/culevo/file.txt");
  EXPECT_FALSE(content.ok());
  EXPECT_EQ(content.status().code(), StatusCode::kIOError);
}

TEST(FileIoTest, WriteThenReadRoundTrip) {
  const std::string path = ::testing::TempDir() + "/culevo_csv_test.txt";
  ASSERT_TRUE(WriteStringToFile(path, "hello\nworld").ok());
  Result<std::string> content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(content.value(), "hello\nworld");
  std::remove(path.c_str());
}

TEST(FileIoTest, DsvFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/culevo_dsv_test.tsv";
  DsvTable table;
  table.rows = {{"x", "1"}, {"y", "2"}};
  ASSERT_TRUE(WriteDsvFile(path, table, '\t').ok());
  Result<DsvTable> parsed = ReadDsvFile(path, '\t');
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->rows, table.rows);
  std::remove(path.c_str());
}

TEST(FileIoTest, WriteToBadPathFails) {
  EXPECT_FALSE(WriteStringToFile("/nonexistent/dir/f.txt", "x").ok());
}

}  // namespace
}  // namespace culevo
