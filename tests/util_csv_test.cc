#include "util/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace culevo {
namespace {

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

TEST(FileIoTest, WriteToBadPathFails) {
  EXPECT_FALSE(WriteStringToFile("/nonexistent/dir/f.txt", "x").ok());
}

}  // namespace
}  // namespace culevo
