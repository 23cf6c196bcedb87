// common module: rng determinism, statistics, table formatting, assertions.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/assert.hpp"
#include "common/pgm.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace bba {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(Rng, UniformRespectsRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
    const int k = rng.uniformInt(1, 6);
    EXPECT_GE(k, 1);
    EXPECT_LE(k, 6);
  }
}

TEST(Rng, NormalMomentsRoughlyCorrect) {
  Rng rng(11);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(2.0, 3.0);
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.5);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(1);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(Stats, MeanStddev) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mean(xs), 3.0);
  EXPECT_NEAR(stddev(xs), std::sqrt(2.5), 1e-12);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(stddev(std::vector<double>{7.0}), 0.0);
}

TEST(Stats, PercentileInterpolation) {
  const std::vector<double> xs{0, 10};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 0.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 10.0);
  EXPECT_THROW((void)percentile(std::vector<double>{}, 50), AssertionError);
}

TEST(Stats, CdfFractionBelow) {
  Cdf cdf(std::vector<double>{1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(cdf.fractionBelow(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.fractionBelow(2.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf.fractionBelow(10.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(Cdf{}.fractionBelow(1.0), 0.0);
}

TEST(Stats, BoxStatsOrdering) {
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);
  const BoxStats b = boxStats(xs);
  EXPECT_LE(b.p10, b.p25);
  EXPECT_LE(b.p25, b.p50);
  EXPECT_LE(b.p50, b.p75);
  EXPECT_LE(b.p75, b.p90);
  EXPECT_EQ(b.n, 100u);
  EXPECT_NEAR(b.p50, 50.5, 0.01);
}

TEST(Table, PrintsAlignedRows) {
  Table t({"a", "bbbb"});
  t.addRow({"x", "1"});
  t.addRow({"longer", "2"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("| a      | bbbb |"), std::string::npos);
  EXPECT_NE(s.find("| longer | 2    |"), std::string::npos);
}

TEST(Table, CsvAndArityCheck) {
  Table t({"a", "b"});
  t.addRow({"1", "2"});
  std::ostringstream os;
  t.printCsv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
  EXPECT_THROW(t.addRow({"only-one"}), AssertionError);
}

TEST(Assert, ThrowsWithContext) {
  try {
    BBA_ASSERT_MSG(1 == 2, "custom context");
    FAIL() << "should have thrown";
  } catch (const AssertionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom context"), std::string::npos);
  }
}

TEST(Fmt, FixedPrecision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 1), "2.0");
}


TEST(Pgm, WritesValidFileAndScales) {
  ImageF img(4, 2, 0.0f);
  img(0, 0) = 0.5f;
  img(3, 1) = 1.0f;
  const std::string path = "/tmp/bba_pgm_test.pgm";
  writePgm(img, path, 1.0f);
  std::ifstream is(path, std::ios::binary);
  ASSERT_TRUE(is.good());
  std::string magic;
  int w, h, maxv;
  is >> magic >> w >> h >> maxv;
  EXPECT_EQ(magic, "P5");
  EXPECT_EQ(w, 4);
  EXPECT_EQ(h, 2);
  EXPECT_EQ(maxv, 255);
  is.get();  // single whitespace after header
  unsigned char bytes[8];
  is.read(reinterpret_cast<char*>(bytes), 8);
  EXPECT_EQ(bytes[0], 128);  // 0.5 scaled
  EXPECT_EQ(bytes[7], 255);
  std::remove(path.c_str());
}

TEST(Pgm, IndexImageSpreadsGrayRange) {
  ImageU8 img(2, 1, 0);
  img(1, 0) = 11;
  const std::string path = "/tmp/bba_pgm_idx_test.pgm";
  writeIndexPgm(img, 12, path);
  std::ifstream is(path, std::ios::binary);
  std::string magic;
  int w, h, maxv;
  is >> magic >> w >> h >> maxv;
  is.get();
  unsigned char bytes[2];
  is.read(reinterpret_cast<char*>(bytes), 2);
  EXPECT_EQ(bytes[0], 0);
  EXPECT_EQ(bytes[1], 255);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bba
