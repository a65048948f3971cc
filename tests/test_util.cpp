#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace cnash::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(Rng, UniformIndexCoversRangeUniformly) {
  Rng rng(3);
  std::vector<int> counts(10, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) ++counts[rng.uniform_index(10)];
  for (int c : counts) EXPECT_NEAR(c, draws / 10, draws / 100);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.normal(2.0, 3.0));
  EXPECT_NEAR(s.mean(), 2.0, 0.05);
  EXPECT_NEAR(s.stddev(), 3.0, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 100000; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, SplitStreamsAreIndependentish) {
  Rng a(99);
  Rng b = a.split();
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, KeyedSplitIsPureAndDeterministic) {
  // split(key) must not advance the parent and must be a pure function of
  // (state, key): SA jobs rely on this to rebuild per-run streams.
  Rng a(99), b(99);
  Rng s1 = a.split(7);
  Rng s2 = a.split(7);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(s1(), s2());
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a(), b());  // parent untouched
}

TEST(Rng, KeyedSplitAdjacentKeysDecorrelated) {
  Rng root(1234);
  Rng s0 = root.split(0);
  Rng s1 = root.split(1);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (s0() == s1()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, KeyedSplitDependsOnParentState) {
  Rng a(5), b(6);
  Rng sa = a.split(3);
  Rng sb = b.split(3);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (sa() == sb()) ++same;
  EXPECT_LT(same, 2);
}

// Draw counts that cover n = 0, 1, odd n, and n on both sides of the
// 256-draw chunk simd::fill_normals requests at a time.
constexpr std::size_t kBulkCounts[] = {0, 1, 7, 255, 256, 257, 1001};

TEST(Rng, FillMatchesRepeatedCalls) {
  for (const std::size_t n : kBulkCounts) {
    Rng bulk(91), one(91);
    std::vector<std::uint64_t> out(n + 1, 0);
    bulk.fill(out.data(), n);
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(out[i], one()) << n;
    EXPECT_EQ(out[n], 0u) << "fill wrote past n = " << n;
    EXPECT_EQ(bulk(), one()) << n;
  }
}

TEST(Rng, DiscardMatchesRepeatedCalls) {
  for (const std::size_t n : kBulkCounts) {
    Rng skipped(92), one(92);
    // A cached Box-Muller deviate belongs to the caller, not the raw stream.
    EXPECT_EQ(skipped.normal(), one.normal());
    skipped.discard(n);
    for (std::size_t i = 0; i < n; ++i) one();
    EXPECT_EQ(skipped.normal(), one.normal()) << n;
    EXPECT_EQ(skipped(), one()) << n;
  }
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownSequence) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeMatchesCombinedStream) {
  Rng rng(23);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.normal();
    all.add(v);
    (i % 2 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-12);
}

TEST(Histogram, BinsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);    // bin 0
  h.add(9.99);   // bin 9
  h.add(-5.0);   // clamps to bin 0
  h.add(50.0);   // clamps to bin 9
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, DensitySumsToOne) {
  Histogram h(0.0, 1.0, 16);
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) h.add(rng.uniform());
  double sum = 0.0;
  for (std::size_t b = 0; b < h.bins(); ++b) sum += h.density(b);
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(0.0, 0.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Percentile, InterpolatesLinearly) {
  std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 2.5);
}

TEST(Table, PrettyContainsHeadersAndCells) {
  Table t({"game", "rate"});
  t.add_row({"BoS", Table::num(99.5, 1)});
  const std::string s = t.pretty();
  EXPECT_NE(s.find("game"), std::string::npos);
  EXPECT_NE(s.find("99.5"), std::string::npos);
}

TEST(Table, CsvQuotesSpecials) {
  Table t({"a"});
  t.add_row({"x,y\"z"});
  EXPECT_NE(t.csv().find("\"x,y\"\"z\""), std::string::npos);
}

TEST(Table, RowArityEnforced) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
}


// ---- Json number contract ----------------------------------------------------
//
// util/json.hpp: dump writes printf "%g" when strtod reads that back as the
// same double, else "%.17g"; parse(dump(x)) is bit-identical to x. The
// reference below is written with snprintf/strtod (this test never changes
// the locale, so they run in the "C" locale the contract names).

std::uint64_t bits_of(double x) {
  std::uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

double from_bits(std::uint64_t b) {
  double x;
  std::memcpy(&x, &b, sizeof x);
  return x;
}

std::string printf_reference(double x) {
  char shortest[40];
  std::snprintf(shortest, sizeof shortest, "%g", x);
  if (std::strtod(shortest, nullptr) == x) return shortest;
  char full[40];
  std::snprintf(full, sizeof full, "%.17g", x);
  return full;
}

/// ~10^5 finite doubles: the values reports carry (k/I fractions, counts)
/// plus the corners of the format (signed zeros, denormals, huge and tiny
/// exponents) and random bit patterns.
std::vector<double> contract_doubles() {
  Rng rng(0x5eed1e55);
  std::vector<double> xs = {0.0,
                            -0.0,
                            4.9e-324,
                            -4.9e-324,
                            std::numeric_limits<double>::denorm_min(),
                            std::numeric_limits<double>::min(),
                            std::numeric_limits<double>::max(),
                            -std::numeric_limits<double>::max(),
                            std::numeric_limits<double>::epsilon(),
                            1e300,
                            -1e300,
                            1e-300,
                            -1e-300,
                            9007199254740992.0,
                            999999.0,
                            1000000.0,
                            0.1,
                            1.0 / 3.0};
  for (int i = 0; i < 25000; ++i) {  // k/I, I <= 4096
    const auto intervals = static_cast<double>(rng.uniform_int(1, 4096));
    const auto k = static_cast<double>(
        rng.uniform_int(0, static_cast<std::int64_t>(intervals)));
    xs.push_back(k / intervals);
  }
  for (int i = 0; i < 15000; ++i)  // integers up to 2^53, either sign
    xs.push_back(static_cast<double>(rng() >> 11) * (i % 2 ? -1.0 : 1.0));
  for (int i = 0; i < 10000; ++i)  // denormals
    xs.push_back(from_bits((rng() & 0x800fffffffffffffULL) | 1u));
  for (int i = 0; i < 10000; ++i) {  // around 1e+-300
    const double scale = i % 2 ? 1e300 : 1e-300;
    xs.push_back(scale * rng.uniform(0.5, 5.0));
  }
  while (xs.size() < 100000) {  // random bit patterns, finite only
    const double x = from_bits(rng());
    if (std::isfinite(x)) xs.push_back(x);
  }
  return xs;
}

TEST(JsonNumbers, DumpMatchesPrintfAndParsesBackBitExact) {
  std::size_t mismatches = 0;
  for (const double x : contract_doubles()) {
    const std::string text = Json::number(x).dump();
    const std::string want = printf_reference(x);
    if (text != want && ++mismatches <= 5)
      ADD_FAILURE() << "dump " << text << " != printf " << want;
    const double back = Json::parse(text).as_number();
    if (bits_of(back) != bits_of(x) && ++mismatches <= 5)
      ADD_FAILURE() << text << " parsed back as a different double";
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(JsonNumbers, OutOfRangeParsesAsStrtodDoes) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Json::parse("1e999").as_number(), inf);
  EXPECT_EQ(Json::parse("-1e999").as_number(), -inf);
  const double tiny = Json::parse("1e-400").as_number();
  EXPECT_EQ(tiny, 0.0);
  EXPECT_FALSE(std::signbit(tiny));
  const double negative_zero = Json::parse("-0").as_number();
  EXPECT_EQ(negative_zero, 0.0);
  EXPECT_TRUE(std::signbit(negative_zero));
  // The leading digit's place, not the exponent's sign, decides overflow vs
  // underflow; every case agrees with strtod bit for bit.
  const std::string zeros(400, '0');
  const std::vector<std::string> texts = {
      "-1e-400",  "1" + zeros + "e-5", "0." + zeros + "1e5",
      "1" + zeros, "-0." + zeros + "1", "4.9e-324", "2e-324", "1.8e308",
      "123.456e99999999999999999999", "0.5e-99999999999999999999"};
  for (const std::string& text : texts) {
    EXPECT_EQ(bits_of(Json::parse(text).as_number()),
              bits_of(std::strtod(text.c_str(), nullptr)))
        << text;
  }
}

}  // namespace
}  // namespace cnash::util
