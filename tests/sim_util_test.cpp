#include "sim/util.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>

namespace mcs::sim {
namespace {

TEST(UtilTest, Strf) {
  EXPECT_EQ(strf("x=%d y=%s", 5, "abc"), "x=5 y=abc");
  EXPECT_EQ(strf("%.2f", 1.239), "1.24");
  EXPECT_EQ(strf("empty"), "empty");
}

TEST(UtilTest, HumanBytes) {
  EXPECT_EQ(human_bytes(512), "512 B");
  EXPECT_EQ(human_bytes(2048), "2.0 KB");
  EXPECT_EQ(human_bytes(3 * 1024 * 1024), "3.0 MB");
}

TEST(UtilTest, HumanRate) {
  EXPECT_EQ(human_rate(500), "500.00 bps");
  EXPECT_EQ(human_rate(11e6), "11.00 Mbps");
  EXPECT_EQ(human_rate(2.4e9), "2.40 Gbps");
}

TEST(UtilTest, Split) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("abc", ','), (std::vector<std::string>{"abc"}));
  EXPECT_EQ(split("a,", ','), (std::vector<std::string>{"a", ""}));
}

TEST(UtilTest, AtoiViewMatchesAtoiInRangeAndSaturates) {
  for (const char* s : {"42", " \t-17", "+8080", "80abc", "", "abc", "-0",
                        "  +", "2147483647"}) {
    EXPECT_EQ(atoi_view(s, 2147483647), std::atoi(s)) << s;
  }
  EXPECT_EQ(atoi_view("4294967376", 65536), 65536);
  EXPECT_EQ(atoi_view("-99999999999999999999", 256), -256);
  // A view ends where it ends, not at a NUL.
  EXPECT_EQ(atoi_view(std::string_view{"12345", 3}, 1000), 123);
}

TEST(UtilTest, Trim) {
  EXPECT_EQ(trim("  hi  "), "hi");
  EXPECT_EQ(trim("\t\r\nx\n"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("no-trim"), "no-trim");
}

TEST(UtilTest, ToLower) {
  EXPECT_EQ(to_lower("Content-Type"), "content-type");
  EXPECT_EQ(to_lower("abc123"), "abc123");
}

// One whitespace and case rule for the whole tree: the ASCII helpers agree
// with the C-locale <cctype> functions on every byte value. Nothing in the
// simulator calls setlocale, so the C locale is the one that applies.
TEST(UtilTest, AsciiHelpersMatchCLocaleOnAllBytes) {
  for (int v = 0; v < 256; ++v) {
    const char c = static_cast<char>(v);
    EXPECT_EQ(is_ascii_space(c), std::isspace(v) != 0) << "byte " << v;
    EXPECT_EQ(ascii_lower(c), static_cast<char>(std::tolower(v)))
        << "byte " << v;
    const std::string one(1, c);
    EXPECT_EQ(trim(one).empty(), std::isspace(v) != 0) << "byte " << v;
    EXPECT_EQ(to_lower(one), std::string(1, ascii_lower(c))) << "byte " << v;
  }
}

TEST(UtilTest, StartsEndsWith) {
  EXPECT_TRUE(starts_with("GET /index", "GET "));
  EXPECT_FALSE(starts_with("GE", "GET "));
  EXPECT_TRUE(ends_with("page.wml", ".wml"));
  EXPECT_FALSE(ends_with("wml", ".wml"));
}

TEST(UtilTest, Fnv1aStableAndSensitive) {
  const auto h1 = fnv1a("hello");
  EXPECT_EQ(h1, fnv1a("hello"));
  EXPECT_NE(h1, fnv1a("hellp"));
  EXPECT_NE(fnv1a("ab"), fnv1a("ba"));
  EXPECT_NE(fnv1a("x", 1), fnv1a("x", 2));  // seed matters
}

}  // namespace
}  // namespace mcs::sim
