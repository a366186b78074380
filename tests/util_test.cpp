#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "util/bytes.hpp"
#include "util/csv.hpp"
#include "util/flat_map.hpp"
#include "util/json.hpp"
#include "util/parse.hpp"
#include "util/random.hpp"
#include "util/require.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace wmsn {
namespace {

// --- FlatMap ---------------------------------------------------------------

TEST(FlatMap, MatchesStdMapUnderRandomOperations) {
  // Same contents, same ascending iteration, same lookups as std::map after
  // every insert, overwrite and erase.
  Rng rng(99);
  FlatMap<std::uint64_t, std::uint32_t> flat;
  std::map<std::uint64_t, std::uint32_t> ref;
  for (int op = 0; op < 2000; ++op) {
    const auto high = static_cast<std::uint64_t>(rng.uniformInt(0, 40));
    const auto low = static_cast<std::uint64_t>(rng.uniformInt(0, 3));
    const std::uint64_t key = high << 32 | low;
    const auto value = static_cast<std::uint32_t>(rng.uniformInt(0, 1000));
    const bool erase = rng.uniformInt(0, 3) == 0;
    if (erase) {
      const auto it = flat.find(key);
      ASSERT_EQ(it != flat.end(), ref.contains(key));
      if (it != flat.end()) flat.erase(it);
      ref.erase(key);
    } else {
      flat[key] = value;
      ref[key] = value;
    }
    ASSERT_EQ(flat.size(), ref.size());
    ASSERT_TRUE(std::equal(flat.begin(), flat.end(), ref.begin(), ref.end(),
                           [](const auto& a, const auto& b) {
                             return a.first == b.first && a.second == b.second;
                           }));
    ASSERT_EQ(flat.find(key) != flat.end(), ref.contains(key));
    if (ref.contains(key)) {
      ASSERT_EQ(flat.at(key), ref.at(key));
    }
  }
  EXPECT_THROW((void)flat.at(~std::uint64_t{0}), PreconditionError);
  flat.clear();
  EXPECT_TRUE(flat.empty());
}

// --- jsonEscape --------------------------------------------------------------

TEST(Json, EscapesQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(jsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

// --- Rng -------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversFullRangeInclusive) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniformInt(0, 5));
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 5);
}

TEST(Rng, UniformIntSingleValue) {
  Rng rng(3);
  EXPECT_EQ(rng.uniformInt(42, 42), 42);
}

TEST(Rng, UniformIntRejectsInvertedRange) {
  Rng rng(3);
  EXPECT_THROW(rng.uniformInt(5, 4), PreconditionError);
}

TEST(Rng, IndexRejectsEmpty) {
  Rng rng(3);
  EXPECT_THROW(rng.index(0), PreconditionError);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(13);
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i)
    if (rng.chance(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 100'000; ++i) stats.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ExponentialRejectsNonPositiveRate) {
  Rng rng(19);
  EXPECT_THROW(rng.exponential(0.0), PreconditionError);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(29);
  Rng child = a.fork();
  // The child's stream should not track the parent's.
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == child.next()) ++same;
  EXPECT_LT(same, 2);
}

// --- ByteWriter / ByteReader -------------------------------------------------

TEST(Bytes, RoundTripAllTypes) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.f64(3.14159);
  w.str("hello");
  Bytes payload{1, 2, 3};
  w.bytes(payload);

  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.bytes(), payload);
  EXPECT_TRUE(r.empty());
}

TEST(Bytes, LittleEndianLayout) {
  ByteWriter w;
  w.u16(0x0102);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w.data()[0], 0x02);
  EXPECT_EQ(w.data()[1], 0x01);
}

TEST(Bytes, TruncatedReadThrows) {
  ByteWriter w;
  w.u16(7);
  ByteReader r(w.data());
  EXPECT_EQ(r.u16(), 7);
  EXPECT_THROW(r.u8(), PreconditionError);
}

TEST(Bytes, TruncatedLengthPrefixedThrows) {
  Bytes raw{0x10, 0x00, 1, 2};  // claims 16 bytes, has 2
  ByteReader r(raw);
  EXPECT_THROW(r.bytes(), PreconditionError);
}

TEST(Bytes, HexRoundTrip) {
  const Bytes data{0x00, 0x7f, 0xff, 0x10};
  EXPECT_EQ(toHex(data), "007fff10");
  EXPECT_EQ(fromHex("007fff10"), data);
  EXPECT_EQ(fromHex("007FFF10"), data);
}

TEST(Bytes, FromHexRejectsBadInput) {
  EXPECT_THROW(fromHex("abc"), PreconditionError);   // odd length
  EXPECT_THROW(fromHex("zz"), PreconditionError);    // bad digit
}

TEST(Bytes, ConstantTimeEqual) {
  const Bytes a{1, 2, 3};
  const Bytes b{1, 2, 3};
  const Bytes c{1, 2, 4};
  const Bytes d{1, 2};
  EXPECT_TRUE(constantTimeEqual(a, b));
  EXPECT_FALSE(constantTimeEqual(a, c));
  EXPECT_FALSE(constantTimeEqual(a, d));
}

// --- RunningStats -------------------------------------------------------------

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variancePopulation(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variancePopulation(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats all, left, right;
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 1.5);
    all.add(x);
    (i % 2 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variancePopulation(), all.variancePopulation(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  empty.merge(a);
  EXPECT_DOUBLE_EQ(empty.mean(), mean);
}

// --- SampleStats -----------------------------------------------------------------

TEST(SampleStats, Percentiles) {
  SampleStats s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(95), 95.05, 0.1);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(SampleStats, SingleSample) {
  SampleStats s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 3.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 3.0);
}

TEST(SampleStats, EmptyPercentileThrows) {
  SampleStats s;
  EXPECT_THROW(s.percentile(50), PreconditionError);
}

// --- jainFairness -----------------------------------------------------------------

TEST(JainFairness, PerfectBalance) {
  EXPECT_DOUBLE_EQ(jainFairness({3.0, 3.0, 3.0, 3.0}), 1.0);
}

TEST(JainFairness, WorstCase) {
  // All load on one of n: index = 1/n.
  EXPECT_NEAR(jainFairness({1.0, 0.0, 0.0, 0.0}), 0.25, 1e-12);
}

TEST(JainFairness, EmptyAndZero) {
  EXPECT_DOUBLE_EQ(jainFairness({}), 1.0);
  EXPECT_DOUBLE_EQ(jainFairness({0.0, 0.0}), 1.0);
}

// --- TextTable / CsvWriter ------------------------------------------------------------

TEST(TextTable, RendersAlignedRows) {
  TextTable t({"name", "value"});
  t.addRow({"alpha", "1"});
  t.addRow({"b", "22"});
  const std::string s = t.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTable, RejectsMismatchedRow) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.addRow({"only-one"}), PreconditionError);
}

TEST(TextTable, NumFormatting) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(42), "42");
  EXPECT_EQ(TextTable::num(std::uint64_t{7}), "7");
}

TEST(CsvWriter, EscapesSpecialCharacters) {
  CsvWriter csv({"a", "b"});
  csv.addRow({"plain", "with,comma"});
  csv.addRow({"with\"quote", "multi\nline"});
  const std::string s = csv.str();
  EXPECT_NE(s.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(s.find("\"with\"\"quote\""), std::string::npos);
}

TEST(CsvWriter, RejectsMismatchedRow) {
  CsvWriter csv({"a"});
  EXPECT_THROW(csv.addRow({"x", "y"}), PreconditionError);
}

// --- parseNumber ------------------------------------------------------------

/// Every rejected input throws PreconditionError naming the key and the text.
template <class T>
void expectNumberRejected(const std::vector<std::string>& inputs) {
  for (const std::string& text : inputs) {
    try {
      parseNumber<T>("setting 'k'", text);
      ADD_FAILURE() << "accepted '" << text << "'";
    } catch (const PreconditionError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("setting 'k'"), std::string::npos) << what;
      EXPECT_NE(what.find("'" + text + "'"), std::string::npos) << what;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "'" << text << "' threw " << e.what();
    }
  }
}

TEST(ParseNumber, WholeValueInRangeOrAnErrorNamingKeyAndText) {
  expectNumberRejected<std::uint32_t>({"", "abc", "30x", "x30", " 30", "30 ",
                                       "+30", "-1", "-0", "1.5", "0x10",
                                       "4294967296"});
  expectNumberRejected<std::uint64_t>(
      {"", "-1", "18446744073709551616", "99999999999999999999"});
  expectNumberRejected<std::size_t>({"-", "1e3"});
  expectNumberRejected<std::int64_t>(
      {"-", "--1", "9223372036854775808", "-9223372036854775809"});
  expectNumberRejected<double>({"", "x", "1.5.2", " 1", "+1", "1e999", "0.5s"});

  EXPECT_EQ(parseNumber<std::uint32_t>("k", "0"), 0u);
  EXPECT_EQ(parseNumber<std::uint32_t>("k", "4294967295"), 4294967295u);
  EXPECT_EQ(parseNumber<std::uint32_t>("k", "007"), 7u);
  EXPECT_EQ(parseNumber<std::uint64_t>("k", "18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parseNumber<std::int64_t>("k", "-9223372036854775808"),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_DOUBLE_EQ(parseNumber<double>("k", "0.25"), 0.25);
  EXPECT_DOUBLE_EQ(parseNumber<double>("k", "-1e-3"), -1e-3);
}

}  // namespace
}  // namespace wmsn
