#include "data/loader.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

namespace numdist {
namespace {

TEST(LoaderTest, ParsesOneValuePerLine) {
  LoadOptions options;
  options.min_value = 0.0;
  options.max_value = 10.0;
  const auto values =
      ParseNumericColumn("1.0\n5.0\n9.0\n", options).ValueOrDie();
  ASSERT_EQ(values.size(), 3u);
  EXPECT_DOUBLE_EQ(values[0], 0.1);
  EXPECT_DOUBLE_EQ(values[1], 0.5);
  EXPECT_DOUBLE_EQ(values[2], 0.9);
}

TEST(LoaderTest, FiltersOutOfRangeValues) {
  LoadOptions options;
  options.min_value = 0.0;
  options.max_value = 100.0;
  const auto values =
      ParseNumericColumn("-5\n50\n100\n150\n", options).ValueOrDie();
  // -5 below, 100 and 150 at/above max are dropped.
  ASSERT_EQ(values.size(), 1u);
  EXPECT_DOUBLE_EQ(values[0], 0.5);
}

// NaN compares false both ways, so a "below min or at/above max" filter
// would keep it; every spelling strtod reads as NaN is skipped instead.
TEST(LoaderTest, SkipsNanRows) {
  LoadOptions options;
  const auto values =
      ParseNumericColumn("0.5\nnan\n0.25\nNaN\n-nan\n0.75\n", options)
          .ValueOrDie();
  ASSERT_EQ(values.size(), 3u);
  EXPECT_DOUBLE_EQ(values[0], 0.5);
  EXPECT_DOUBLE_EQ(values[1], 0.25);
  EXPECT_DOUBLE_EQ(values[2], 0.75);
}

TEST(LoaderTest, ReadsChosenCsvColumn) {
  LoadOptions options;
  options.min_value = 0.0;
  options.max_value = 1000.0;
  options.column = 2;
  const auto values =
      ParseNumericColumn("a,b,100,c\nd,e,900,f\n", options).ValueOrDie();
  ASSERT_EQ(values.size(), 2u);
  EXPECT_DOUBLE_EQ(values[0], 0.1);
  EXPECT_DOUBLE_EQ(values[1], 0.9);
}

TEST(LoaderTest, SkipsHeaderAndJunkRows) {
  LoadOptions options;
  options.min_value = 0.0;
  options.max_value = 10.0;
  options.skip_header = true;
  const auto values =
      ParseNumericColumn("value\n3\nnot_a_number\n\n7\n", options)
          .ValueOrDie();
  ASSERT_EQ(values.size(), 2u);
  EXPECT_DOUBLE_EQ(values[0], 0.3);
  EXPECT_DOUBLE_EQ(values[1], 0.7);
}

TEST(LoaderTest, ShortRowsSkippedForHighColumns) {
  LoadOptions options;
  options.min_value = 0.0;
  options.max_value = 10.0;
  options.column = 3;
  const auto result = ParseNumericColumn("1,2\n1,2,3,4\n", options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().size(), 1u);
  EXPECT_DOUBLE_EQ(result.value()[0], 0.4);
}

TEST(LoaderTest, RejectsInvertedRange) {
  LoadOptions options;
  options.min_value = 5.0;
  options.max_value = 5.0;
  EXPECT_FALSE(ParseNumericColumn("1\n", options).ok());
}

TEST(LoaderTest, RejectsEmptyResult) {
  LoadOptions options;
  options.min_value = 0.0;
  options.max_value = 1.0;
  EXPECT_FALSE(ParseNumericColumn("junk\nmore junk\n", options).ok());
}

TEST(LoaderTest, LoadsFromDisk) {
  const std::string path = ::testing::TempDir() + "/loader_test_data.csv";
  {
    std::ofstream out(path);
    out << "salary\n42000\n58000\n999999999\n";
  }
  LoadOptions options;
  options.min_value = 0.0;
  options.max_value = 524288.0;  // the paper's income clip
  options.skip_header = true;
  const auto values = LoadNumericFile(path, options).ValueOrDie();
  ASSERT_EQ(values.size(), 2u);
  EXPECT_NEAR(values[0], 42000.0 / 524288.0, 1e-12);
  std::remove(path.c_str());
}

TEST(LoaderTest, MissingFileIsError) {
  EXPECT_FALSE(LoadNumericFile("/nonexistent/file.csv", LoadOptions()).ok());
}

}  // namespace
}  // namespace numdist
