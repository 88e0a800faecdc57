// Tests for util/parse.h, the strict parser behind every numeric CLI
// flag: a value is the whole string as one non-negative number, or it
// is rejected (the CLIs then exit 2 naming the flag).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "util/parse.h"

namespace divsec::util {
namespace {

TEST(CliParse, U64AcceptsPlainDecimals) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("2013"), 2013u);
  EXPECT_EQ(parse_u64("007"), 7u);
  EXPECT_EQ(parse_u64("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(CliParse, U64RejectsSignsOverflowAndStrayBytes) {
  for (const char* bad :
       {"", "-1", "+1", "-0", "18446744073709551616", "99999999999999999999999",
        "12x", "abc", " 12", "12 ", "1e3", "1.5", "0x10", "nan"}) {
    EXPECT_FALSE(parse_u64(bad).has_value()) << "'" << bad << "'";
  }
  // An embedded NUL is a trailing byte, not a terminator.
  EXPECT_FALSE(parse_u64(std::string("12\0x", 4)).has_value());
}

TEST(CliParse, F64AcceptsNonNegativeFiniteDecimals) {
  EXPECT_EQ(parse_f64("0"), 0.0);
  EXPECT_EQ(parse_f64("0.01"), 0.01);
  EXPECT_EQ(parse_f64(".5"), 0.5);
  EXPECT_EQ(parse_f64("720"), 720.0);
  EXPECT_EQ(parse_f64("1e-3"), 1e-3);
  EXPECT_EQ(parse_f64("2.5E2"), 250.0);
}

TEST(CliParse, F64RejectsSignsNonFiniteOverflowAndStrayBytes) {
  for (const char* bad : {"", "-0.5", "+0.5", "nan", "NaN", "inf", "-inf",
                          "infinity", "1e999", "0.5x", "1,5", " 1", "1 ",
                          "0x1p3", "e5", "."}) {
    EXPECT_FALSE(parse_f64(bad).has_value()) << "'" << bad << "'";
  }
}

}  // namespace
}  // namespace divsec::util
