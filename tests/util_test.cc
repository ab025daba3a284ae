// Unit tests for the util substrate: Status/StatusOr, strings, flags,
// and the PCG random generator's statistical behavior.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "util/crc32.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/strings.h"

namespace vas {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad k");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value_or(7), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("missing");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(v.value_or(7), 7);
}

TEST(StatusOrTest, MovesValueOut) {
  StatusOr<std::string> v = std::string("hello");
  std::string moved = std::move(v).value();
  EXPECT_EQ(moved, "hello");
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, SplitSingleField) {
  auto parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringsTest, JoinRoundTrip) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, ','), "x,y,z");
  EXPECT_EQ(Split(Join(parts, ';'), ';'), parts);
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace("a b"), "a b");
}

TEST(StringsTest, ParseDoubleAcceptsValid) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.25"), 3.25);
  EXPECT_DOUBLE_EQ(*ParseDouble(" -1e-3 "), -1e-3);
  EXPECT_DOUBLE_EQ(*ParseDouble("0"), 0.0);
}

TEST(StringsTest, ParseDoubleRejectsGarbage) {
  EXPECT_FALSE(ParseDouble("3.25x").ok());
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("abc").ok());
}

TEST(StringsTest, ParseInt64) {
  EXPECT_EQ(*ParseInt64("-42"), -42);
  EXPECT_EQ(*ParseInt64("1000000000000"), 1000000000000LL);
  EXPECT_FALSE(ParseInt64("1.5").ok());
  EXPECT_FALSE(ParseInt64("").ok());
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("--flag", "--"));
  EXPECT_FALSE(StartsWith("-flag", "--"));
  EXPECT_TRUE(StartsWith("abc", ""));
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d/%s", 3, "x"), "3/x");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
}

TEST(StringsTest, FormatWithCommas) {
  EXPECT_EQ(FormatWithCommas(0), "0");
  EXPECT_EQ(FormatWithCommas(999), "999");
  EXPECT_EQ(FormatWithCommas(1000), "1,000");
  EXPECT_EQ(FormatWithCommas(1234567), "1,234,567");
  EXPECT_EQ(FormatWithCommas(-1234567), "-1,234,567");
}

TEST(FlagsTest, ParsesEqualsAndSpaceForms) {
  FlagSet flags;
  flags.Define("n", "10", "count");
  flags.Define("name", "", "a name");
  const char* argv[] = {"prog", "--n=25", "--name", "geo"};
  ASSERT_TRUE(flags.Parse(4, const_cast<char**>(argv)).ok());
  EXPECT_EQ(flags.GetInt("n"), 25);
  EXPECT_EQ(flags.GetString("name"), "geo");
}

TEST(FlagsTest, DefaultsApplyWhenUnset) {
  FlagSet flags;
  flags.Define("scale", "1.5", "scale");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.Parse(1, const_cast<char**>(argv)).ok());
  EXPECT_DOUBLE_EQ(flags.GetDouble("scale"), 1.5);
}

TEST(FlagsTest, UnknownFlagIsError) {
  FlagSet flags;
  flags.Define("n", "10", "count");
  const char* argv[] = {"prog", "--typo=1"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)).ok());
}

TEST(FlagsTest, PositionalAndHelp) {
  FlagSet flags;
  flags.Define("b", "false", "a bool");
  const char* argv[] = {"prog", "input.csv", "--help", "--b=true"};
  ASSERT_TRUE(flags.Parse(4, const_cast<char**>(argv)).ok());
  EXPECT_TRUE(flags.help_requested());
  EXPECT_TRUE(flags.GetBool("b"));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "input.csv");
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU32(), b.NextU32());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU32() == b.NextU32()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, BelowIsInRangeAndCoversAll) {
  Rng rng(7);
  std::set<uint32_t> seen;
  for (int i = 0; i < 1000; ++i) {
    uint32_t v = rng.Below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    double g = rng.Gaussian();
    sum += g;
    sum2 += g * g;
  }
  double mean = sum / n;
  double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(17);
  std::vector<double> w = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.Categorical(w)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / double(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / double(n), 0.3, 0.015);
  EXPECT_NEAR(counts[3] / double(n), 0.6, 0.015);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(19);
  std::vector<int> v = {1, 2, 3, 4, 5, 6};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// The bytewise table loop Crc32 ran before slicing-by-8, kept as the
// oracle.
uint32_t ReferenceCrc32(const unsigned char* bytes, size_t len) {
  uint32_t table[256];
  for (uint32_t n = 0; n < 256; ++n) {
    uint32_t c = n;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    table[n] = c;
  }
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

TEST(Crc32Test, CheckValue) {
  EXPECT_EQ(Crc32(std::string("123456789")), 0xcbf43926u);
  EXPECT_EQ(Crc32(std::string()), 0u);
}

TEST(Crc32Test, MatchesTheBytewiseLoop) {
  std::vector<size_t> sizes;
  for (size_t n = 0; n <= 70; ++n) sizes.push_back(n);
  for (size_t n : {4096u, 65792u, 200000u}) sizes.push_back(n);
  Rng rng(31);
  std::vector<unsigned char> random(200000 + 8);
  for (auto& b : random) b = static_cast<unsigned char>(rng.Below(256));
  const std::vector<unsigned char> ones(200000 + 8, 0xff);
  for (size_t n : sizes) {
    // Start offsets 0-7 put the 8-byte steps at every alignment.
    for (size_t offset = 0; offset < 8; ++offset) {
      EXPECT_EQ(Crc32(random.data() + offset, n),
                ReferenceCrc32(random.data() + offset, n))
          << "n=" << n << " offset=" << offset;
      EXPECT_EQ(Crc32(ones.data() + offset, n),
                ReferenceCrc32(ones.data() + offset, n))
          << "0xff n=" << n << " offset=" << offset;
    }
  }
}

TEST(StopwatchTest, MeasuresElapsed) {
  Stopwatch w;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + std::sqrt(double(i));
  double first = w.ElapsedSeconds();
  EXPECT_GE(first, 0.0);
  EXPECT_GE(w.ElapsedSeconds(), first);  // monotone
  w.Restart();
  EXPECT_LT(w.ElapsedSeconds(), 1.0);
}

}  // namespace
}  // namespace vas
