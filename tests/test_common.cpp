// Unit tests for src/common: stats, string utilities, env config, RNG.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <vector>

#include "common/aligned.h"
#include "common/env.h"
#include "common/file_util.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/string_util.h"

namespace harp {
namespace {

// ---------- RunningStats ----------

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.Count(), 0);
  EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.Variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.CV(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_EQ(s.Count(), 8);
  EXPECT_DOUBLE_EQ(s.Mean(), 5.0);
  EXPECT_NEAR(s.Stddev(), 2.0, 1e-12);  // classic population-stddev example
  EXPECT_NEAR(s.CV(), 0.4, 1e-12);
  EXPECT_DOUBLE_EQ(s.Min(), 2.0);
  EXPECT_DOUBLE_EQ(s.Max(), 9.0);
}

TEST(RunningStats, SingleValueHasZeroVariance) {
  RunningStats s;
  s.Add(42.0);
  EXPECT_DOUBLE_EQ(s.Mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.Variance(), 0.0);
}

TEST(RunningStats, ConstantSequenceCVZero) {
  RunningStats s;
  for (int i = 0; i < 100; ++i) s.Add(3.0);
  EXPECT_NEAR(s.CV(), 0.0, 1e-12);
}

// ---------- Percentile / means ----------

TEST(Percentile, EndpointsAndMedian) {
  std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 3.0);
}

TEST(Percentile, Interpolates) {
  std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.25), 2.5);
}

TEST(MeanTest, Basic) {
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
}

TEST(GeometricMeanTest, Basic) {
  EXPECT_NEAR(GeometricMean({2.0, 8.0}), 4.0, 1e-12);
  EXPECT_NEAR(GeometricMean({3.0, 3.0, 3.0}), 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(GeometricMean({}), 0.0);
}

// ---------- string_util ----------

TEST(Split, KeepsEmptyFields) {
  const auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Split, SingleField) {
  const auto parts = Split("hello", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "hello");
}

TEST(SplitWhitespaceTest, DropsRuns) {
  const auto parts = SplitWhitespace("  a \t b\n c  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitWhitespaceTest, EmptyInput) {
  EXPECT_TRUE(SplitWhitespace("").empty());
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(TrimTest, Basic) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("x"), "x");
  EXPECT_EQ(Trim("\r\n\t"), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(ParseDoubleTest, Valid) {
  double v = 0.0;
  EXPECT_TRUE(ParseDouble("3.5", &v));
  EXPECT_DOUBLE_EQ(v, 3.5);
  EXPECT_TRUE(ParseDouble("-1e3", &v));
  EXPECT_DOUBLE_EQ(v, -1000.0);
  // Hex floats roundtrip (model IO relies on this).
  EXPECT_TRUE(ParseDouble("0x1.8p+1", &v));
  EXPECT_DOUBLE_EQ(v, 3.0);
}

TEST(ParseDoubleTest, Invalid) {
  double v = 7.0;
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("1.5x", &v));
  EXPECT_DOUBLE_EQ(v, 7.0);  // untouched on failure
}

TEST(ParseFloatTest, Valid) {
  float v = 0.0f;
  EXPECT_TRUE(ParseFloat("3.5", &v));
  EXPECT_FLOAT_EQ(v, 3.5f);
  EXPECT_TRUE(ParseFloat("-1e3", &v));
  EXPECT_FLOAT_EQ(v, -1000.0f);
  EXPECT_TRUE(ParseFloat("0.001953125", &v));
  EXPECT_FLOAT_EQ(v, 0.001953125f);
  EXPECT_TRUE(ParseFloat("nan", &v));
  EXPECT_TRUE(std::isnan(v));
  EXPECT_TRUE(ParseFloat("inf", &v));
  EXPECT_TRUE(std::isinf(v));
}

TEST(ParseFloatTest, FallbackForms) {
  // Forms std::from_chars rejects but strtod accepts; ParseFloat must
  // accept them so it behaves exactly like ParseDouble-then-cast.
  float v = 0.0f;
  EXPECT_TRUE(ParseFloat("+1.5", &v));
  EXPECT_FLOAT_EQ(v, 1.5f);
  EXPECT_TRUE(ParseFloat("0x10", &v));
  EXPECT_FLOAT_EQ(v, 16.0f);
  EXPECT_TRUE(ParseFloat("0x1.8p+1", &v));
  EXPECT_FLOAT_EQ(v, 3.0f);
}

TEST(ParseFloatTest, Invalid) {
  float v = 7.0f;
  EXPECT_FALSE(ParseFloat("", &v));
  EXPECT_FALSE(ParseFloat("abc", &v));
  EXPECT_FALSE(ParseFloat("1.5x", &v));
  EXPECT_FALSE(ParseFloat("1e99999", &v));  // overflow, as in ParseDouble
  EXPECT_FLOAT_EQ(v, 7.0f);  // untouched on failure
}

TEST(ParseFloatTest, AgreesWithParseDouble) {
  const char* cases[] = {"0",     "-0.0",    "1",        "123.456",
                         "1e-8",  "-2.5E+6", "99999999", ".5",
                         "5.",    "1e308",   "4.9e-324", "2.2250738585072014e-308",
                         "abc",   "1..2",    "--1",      "1 2",
                         "1e",    "e5",      "+inf",     "-nan"};
  for (const char* text : cases) {
    double d = 0.0;
    float f = 0.0f;
    const bool ok_d = ParseDouble(text, &d);
    const bool ok_f = ParseFloat(text, &f);
    EXPECT_EQ(ok_d, ok_f) << "disagree on '" << text << "'";
    if (ok_d && ok_f) {
      const float expected = static_cast<float>(d);
      const bool both_nan = std::isnan(expected) && std::isnan(f);
      EXPECT_TRUE(both_nan || expected == f)
          << "value mismatch on '" << text << "': " << expected << " vs "
          << f;
    }
  }
}

TEST(ParseIntTest, ValidAndInvalid) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt("-42", &v));
  EXPECT_EQ(v, -42);
  EXPECT_FALSE(ParseInt("4.2", &v));
  EXPECT_FALSE(ParseInt("", &v));
  EXPECT_FALSE(ParseInt("12a", &v));
}

TEST(StrFormatTest, Formats) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(HumanUnits, Duration) {
  EXPECT_EQ(HumanDuration(2.5), "2.500s");
  EXPECT_EQ(HumanDuration(0.0025), "2.50ms");
  EXPECT_EQ(HumanDuration(2.5e-6), "2.5us");
  EXPECT_EQ(HumanDuration(25e-9), "25.0ns");
}

TEST(HumanUnits, Bytes) {
  EXPECT_EQ(HumanBytes(512), "512B");
  EXPECT_EQ(HumanBytes(2048), "2.0KB");
  EXPECT_EQ(HumanBytes(3.5 * 1024 * 1024), "3.5MB");
}

// ---------- file_util ----------

TEST(FileUtil, RoundtripIncludingBinary) {
  const std::string path = "/tmp/harp_test_file_util.bin";
  std::string content = "line1\nline2\r\n";
  content += '\0';
  content += "after-nul";
  std::string error;
  ASSERT_TRUE(WriteStringToFile(path, content, &error)) << error;
  std::string loaded;
  ASSERT_TRUE(ReadFileToString(path, &loaded, &error)) << error;
  EXPECT_EQ(loaded, content);
  std::remove(path.c_str());
}

TEST(FileUtil, EmptyFile) {
  const std::string path = "/tmp/harp_test_file_util_empty.bin";
  std::string error;
  ASSERT_TRUE(WriteStringToFile(path, "", &error)) << error;
  std::string loaded = "stale";
  ASSERT_TRUE(ReadFileToString(path, &loaded, &error)) << error;
  EXPECT_TRUE(loaded.empty());
  std::remove(path.c_str());
}

TEST(FileUtil, MissingFileFails) {
  std::string loaded;
  std::string error;
  EXPECT_FALSE(
      ReadFileToString("/tmp/does_not_exist_harp_file_util", &loaded, &error));
  EXPECT_FALSE(error.empty());
}

TEST(FileUtil, UnwritableDirFails) {
  std::string error;
  EXPECT_FALSE(WriteStringToFile("/nonexistent_dir/x.txt", "data", &error));
  EXPECT_FALSE(error.empty());
}

// ---------- env ----------

TEST(Env, IntFallbackAndParse) {
  ::unsetenv("HARP_TEST_ENV_INT");
  EXPECT_EQ(GetEnvInt("HARP_TEST_ENV_INT", 5), 5);
  ::setenv("HARP_TEST_ENV_INT", "12", 1);
  EXPECT_EQ(GetEnvInt("HARP_TEST_ENV_INT", 5), 12);
  ::setenv("HARP_TEST_ENV_INT", "junk", 1);
  EXPECT_EQ(GetEnvInt("HARP_TEST_ENV_INT", 5), 5);
  ::unsetenv("HARP_TEST_ENV_INT");
}

TEST(Env, DoubleAndString) {
  ::setenv("HARP_TEST_ENV_D", "0.25", 1);
  EXPECT_DOUBLE_EQ(GetEnvDouble("HARP_TEST_ENV_D", 1.0), 0.25);
  ::unsetenv("HARP_TEST_ENV_D");
  EXPECT_DOUBLE_EQ(GetEnvDouble("HARP_TEST_ENV_D", 1.0), 1.0);
  EXPECT_EQ(GetEnvString("HARP_TEST_ENV_S", "dflt"), "dflt");
  ::setenv("HARP_TEST_ENV_S", "val", 1);
  EXPECT_EQ(GetEnvString("HARP_TEST_ENV_S", "dflt"), "val");
  ::unsetenv("HARP_TEST_ENV_S");
}

// ---------- random ----------

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextDoubleInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NextBelowBoundsAndCoverage) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.NextBelow(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all values hit in 1000 draws
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.Add(rng.Normal());
  EXPECT_NEAR(s.Mean(), 0.0, 0.02);
  EXPECT_NEAR(s.Stddev(), 1.0, 0.02);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng rng(19);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.Add(rng.Exponential(2.0));
  EXPECT_NEAR(s.Mean(), 0.5, 0.02);
}

// ---------- aligned ----------

TEST(Aligned, VectorIsCacheLineAligned) {
  AlignedVector<double> v(100);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(v.data()) % kCacheLineBytes, 0u);
}

TEST(Aligned, SurvivesGrowth) {
  AlignedVector<int> v;
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(v.data()) % kCacheLineBytes, 0u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(v[static_cast<size_t>(i)], i);
}

// ---------- latency recorder ----------

TEST(LatencyRecorder, EmptyIsZero) {
  LatencyRecorder rec;
  EXPECT_EQ(rec.Count(), 0);
  EXPECT_EQ(rec.MinNs(), 0);
  EXPECT_EQ(rec.MaxNs(), 0);
  EXPECT_EQ(rec.MeanNs(), 0.0);
  EXPECT_EQ(rec.PercentileNs(0.99), 0.0);
}

TEST(LatencyRecorder, SmallValuesAreExact) {
  // Below 2^kSubBits every value has its own bucket: percentiles are
  // exact, not approximations.
  LatencyRecorder rec;
  for (int64_t v = 1; v <= 20; ++v) rec.Record(v);
  EXPECT_EQ(rec.Count(), 20);
  EXPECT_EQ(rec.MinNs(), 1);
  EXPECT_EQ(rec.MaxNs(), 20);
  EXPECT_DOUBLE_EQ(rec.MeanNs(), 10.5);
  EXPECT_EQ(rec.PercentileNs(0.0), 1.0);
  EXPECT_EQ(rec.PercentileNs(0.5), 10.0);
  EXPECT_EQ(rec.PercentileNs(1.0), 20.0);
}

TEST(LatencyRecorder, LogBucketsKeepRelativeErrorBounded) {
  // One octave spans 32 sub-buckets, so any reconstructed percentile is
  // within ~1/32 of the true value.
  LatencyRecorder rec;
  std::vector<int64_t> values;
  int64_t v = 100;
  for (int i = 0; i < 2000; ++i) {
    values.push_back(v);
    rec.Record(v);
    v += 997;  // spread across many octaves
  }
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const double exact = values[static_cast<size_t>(
        q * static_cast<double>(values.size() - 1))];
    const double approx = rec.PercentileNs(q);
    EXPECT_NEAR(approx, exact, exact * 0.05) << "q=" << q;
  }
  // Extremes clamp to observed min/max exactly.
  EXPECT_EQ(rec.PercentileNs(0.0), static_cast<double>(values.front()));
  EXPECT_EQ(rec.PercentileNs(1.0), static_cast<double>(values.back()));
}

TEST(LatencyRecorder, MergeMatchesCombinedStream) {
  LatencyRecorder a;
  LatencyRecorder b;
  LatencyRecorder all;
  for (int i = 1; i <= 500; ++i) {
    const int64_t v = static_cast<int64_t>(i) * 37;
    (i % 2 == 0 ? a : b).Record(v);
    all.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.Count(), all.Count());
  EXPECT_EQ(a.MinNs(), all.MinNs());
  EXPECT_EQ(a.MaxNs(), all.MaxNs());
  EXPECT_DOUBLE_EQ(a.MeanNs(), all.MeanNs());
  for (double q : {0.1, 0.5, 0.99}) {
    EXPECT_DOUBLE_EQ(a.PercentileNs(q), all.PercentileNs(q));
  }
  a.Reset();
  EXPECT_EQ(a.Count(), 0);
  EXPECT_EQ(a.MaxNs(), 0);
}

TEST(LatencyRecorder, SummaryMentionsLabelAndCount) {
  LatencyRecorder rec;
  for (int i = 0; i < 100; ++i) rec.Record(1000 * (i + 1));
  const std::string line = rec.Summary("ticks");
  EXPECT_NE(line.find("ticks"), std::string::npos);
  EXPECT_NE(line.find("n=100"), std::string::npos);
  EXPECT_NE(line.find("p99"), std::string::npos);
}

}  // namespace
}  // namespace harp
