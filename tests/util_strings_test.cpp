// Tests for the string helpers.
#include <gtest/gtest.h>

#include "util/strings.h"

namespace bp::util {
namespace {

TEST(Split, BasicFields) {
  const auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Split, EmptyFieldsPreserved) {
  const auto parts = split(",x,,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "x");
  EXPECT_EQ(parts[3], "");
}

TEST(Split, EmptyInputIsOneEmptyField) {
  EXPECT_EQ(split("", ',').size(), 1u);
}

TEST(Trim, RemovesBothEnds) {
  EXPECT_EQ(trim("  hello\t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(StartsWith, Matches) {
  EXPECT_TRUE(starts_with("Mozilla/5.0", "Mozilla"));
  EXPECT_FALSE(starts_with("Moz", "Mozilla"));
  EXPECT_TRUE(starts_with("abc", ""));
}

TEST(Contains, FindsSubstrings) {
  EXPECT_TRUE(contains("Chrome/112.0", "Chrome/"));
  EXPECT_FALSE(contains("Firefox", "Chrome"));
}

TEST(IEquals, IgnoresCase) {
  EXPECT_TRUE(iequals("ChRoMe", "chrome"));
  EXPECT_FALSE(iequals("chrome", "chrom"));
  EXPECT_TRUE(iequals("", ""));
}

TEST(ParseInt, ValidValues) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("  -7 "), -7);
  EXPECT_EQ(parse_int("0"), 0);
}

TEST(ParseInt, RejectsGarbage) {
  EXPECT_FALSE(parse_int("12x").has_value());
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("four").has_value());
  EXPECT_FALSE(parse_int("1.5").has_value());
}

TEST(ParseDouble, ValidValues) {
  EXPECT_DOUBLE_EQ(*parse_double("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(*parse_double("-1e3"), -1000.0);
}

TEST(ParseDouble, RejectsGarbage) {
  EXPECT_FALSE(parse_double("abc").has_value());
  EXPECT_FALSE(parse_double("").has_value());
}

TEST(FormatDouble, Precision) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(2.0, 0), "2");
}

TEST(Join, WithSeparator) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"only"}, ","), "only");
}

TEST(ToLower, AsciiOnly) { EXPECT_EQ(to_lower("ChRoMe 112"), "chrome 112"); }

TEST(ToHex, FixedWidth) {
  EXPECT_EQ(to_hex(0), "0000000000000000");
  EXPECT_EQ(to_hex(0xdeadbeef), "00000000deadbeef");
}

}  // namespace
}  // namespace bp::util
