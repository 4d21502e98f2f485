#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "support/rng.hpp"
#include "support/strings.hpp"

namespace wst::support {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(13), 13u);
}

TEST(Rng, BelowCoversRange) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 400; ++i) seen.insert(rng.below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(11);
  bool sawLo = false, sawHi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    sawLo |= (v == -3);
    sawHi |= (v == 3);
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Strings, Format) {
  EXPECT_EQ(format("%d + %d = %d", 1, 2, 3), "1 + 2 = 3");
  EXPECT_EQ(format("%s", ""), "");
  EXPECT_EQ(format("%.2f", 3.14159), "3.14");
  // Longer than any stack buffer a short line fits in.
  const std::string longText(1000, 'x');
  EXPECT_EQ(format("%s|%d|%.3f", longText.c_str(), -42, 2.5),
            longText + "|-42|2.500");
}

TEST(Strings, AppendFixed3MatchesPrintf) {
  std::vector<double> values = {0.0,
                                -0.0,
                                0.0005,
                                0.0625,  // exact tie: rounds to even
                                0.1875,
                                2.5,
                                1e-300,
                                123456789.0125,
                                std::numeric_limits<double>::max(),
                                -std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::denorm_min()};
  // Every odd k / 16 is an exact tie at three decimals.
  for (int k = 0; k < 4096; ++k) {
    for (const double v : {k / 16.0, k / 1024.0, k / 1000.0}) {
      values.push_back(v);
      values.push_back(-v);
    }
  }
  for (const double v : values) {
    std::string out = "x";
    appendFixed3(out, v);
    EXPECT_EQ(out, "x" + format("%.3f", v)) << v;
  }
}

TEST(Strings, AppendInt) {
  std::string out;
  appendInt(out, std::numeric_limits<std::int64_t>::min());
  out += ' ';
  appendInt(out, std::numeric_limits<std::uint64_t>::max());
  out += ' ';
  appendInt(out, std::int32_t{0});
  EXPECT_EQ(out, "-9223372036854775808 18446744073709551615 0");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"a"}, ", "), "a");
  EXPECT_EQ(join({"a", "b", "c"}, "-"), "a-b-c");
}

TEST(Strings, FormatDurationNs) {
  EXPECT_EQ(formatDurationNs(15), "15 ns");
  EXPECT_EQ(formatDurationNs(1'500), "1.500 us");
  EXPECT_EQ(formatDurationNs(2'345'678), "2.346 ms");
  EXPECT_EQ(formatDurationNs(3'200'000'000ULL), "3.200 s");
}

TEST(Strings, WithCommas) {
  EXPECT_EQ(withCommas(0), "0");
  EXPECT_EQ(withCommas(999), "999");
  EXPECT_EQ(withCommas(1000), "1,000");
  EXPECT_EQ(withCommas(1234567), "1,234,567");
}

TEST(Strings, HtmlEscape) {
  EXPECT_EQ(htmlEscape("a<b>&\"c\""), "a&lt;b&gt;&amp;&quot;c&quot;");
  EXPECT_EQ(htmlEscape("plain"), "plain");
}

TEST(Strings, DotEscape) {
  EXPECT_EQ(dotEscape("a\"b\\c"), "a\\\"b\\\\c");
}

TEST(Strings, JsonEscape) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("a\"b\\c\b\f\n\r\t\x01\x1f "),
            "a\\\"b\\\\c\\b\\f\\n\\r\\t\\u0001\\u001f ");
}

}  // namespace
}  // namespace wst::support
