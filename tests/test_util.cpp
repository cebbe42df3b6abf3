#include <gtest/gtest.h>

#include <set>

#include "util/io.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace cals {
namespace {

TEST(Io, WholeFileReadsRefuseDirectoriesAndMissingFiles) {
  // A directory opens like a file, but its seek-to-end "size" can be huge;
  // the readers must answer with a status, not a giant allocation.
  const std::string dir = ::testing::TempDir();
  EXPECT_FALSE(read_file_string(dir).ok());
  EXPECT_FALSE(read_file_bytes(dir).ok());
  EXPECT_FALSE(read_file_string(dir + "/cals_no_such_file").ok());
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowCoversRange) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceRespectsProbability) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i)
    if (rng.chance(0.25)) ++hits;
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
}

TEST(Strings, SplitWs) {
  const auto tokens = split_ws("  a  bb\tccc \n d ");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0], "a");
  EXPECT_EQ(tokens[1], "bb");
  EXPECT_EQ(tokens[2], "ccc");
  EXPECT_EQ(tokens[3], "d");
}

TEST(Strings, SplitWsEmpty) {
  EXPECT_TRUE(split_ws("").empty());
  EXPECT_TRUE(split_ws("   \t\n ").empty());
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with(".names a b", ".names"));
  EXPECT_FALSE(starts_with(".name", ".names"));
}

TEST(Strings, Strprintf) {
  EXPECT_EQ(strprintf("%d-%s-%.2f", 7, "x", 1.5), "7-x-1.50");
  EXPECT_EQ(strprintf("%s", ""), "");
}

TEST(Table, AlignsColumns) {
  Table t({"K", "Cells"});
  t.add_row({"0.0", "7184"});
  t.add_row({"0.0001", "69"});
  const std::string s = t.str();
  EXPECT_NE(s.find("| K      | Cells |"), std::string::npos);
  EXPECT_NE(s.find("| 0.0001 | 69    |"), std::string::npos);
}

TEST(Table, CaptionAndRowCount) {
  Table t({"a"});
  t.set_caption("Table 9. Things");
  t.add_row({"1"});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.str().rfind("Table 9. Things", 0), 0u);
}

TEST(Table, FmtHelpers) {
  EXPECT_EQ(fmt_f(1.23456, 2), "1.23");
  EXPECT_EQ(fmt_i(1234567), "1234567");
}

}  // namespace
}  // namespace cals
