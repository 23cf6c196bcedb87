// signal module: Image<T>, FFT correctness properties, Log-Gabor bank.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <utility>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "signal/fft.hpp"
#include "signal/image.hpp"
#include "signal/log_gabor.hpp"

namespace bba {
namespace {

TEST(Image, AccessAndBounds) {
  ImageF img(4, 3, 0.5f);
  EXPECT_EQ(img.width(), 4);
  EXPECT_EQ(img.height(), 3);
  EXPECT_FLOAT_EQ(img(2, 1), 0.5f);
  img(2, 1) = 2.0f;
  EXPECT_FLOAT_EQ(img.at(2, 1), 2.0f);
  EXPECT_THROW((void)img.at(4, 0), AssertionError);
  EXPECT_FLOAT_EQ(img.clampedAt(-5, 100), img(0, 2));
  EXPECT_FLOAT_EQ(img.maxValue(), 2.0f);
}

/// The 1-D transform of `data`: fft2d on an n x 1 image.
void lineFft(std::vector<Complexf>& data, bool inverse) {
  ComplexImage img(static_cast<int>(data.size()), 1);
  std::copy(data.begin(), data.end(), img.data().begin());
  fft2d(img, inverse);
  std::copy(img.data().begin(), img.data().end(), data.begin());
}

TEST(Fft1d, InverseRecoversSignal) {
  Rng rng(3);
  std::vector<Complexf> data(64);
  std::vector<Complexf> orig(64);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = Complexf(static_cast<float>(rng.uniform(-1, 1)),
                       static_cast<float>(rng.uniform(-1, 1)));
    orig[i] = data[i];
  }
  lineFft(data, false);
  lineFft(data, true);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i].real(), orig[i].real(), 1e-4f);
    EXPECT_NEAR(data[i].imag(), orig[i].imag(), 1e-4f);
  }
}

TEST(Fft1d, ImpulseGivesFlatSpectrum) {
  std::vector<Complexf> data(16, Complexf(0, 0));
  data[0] = Complexf(1, 0);
  lineFft(data, false);
  for (const auto& c : data) {
    EXPECT_NEAR(c.real(), 1.0f, 1e-5f);
    EXPECT_NEAR(c.imag(), 0.0f, 1e-5f);
  }
}

TEST(Fft1d, MatchesDftOnSine) {
  // One full cycle of a sine across n samples -> energy in bins 1 and n-1.
  const int n = 32;
  std::vector<Complexf> data(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    data[static_cast<std::size_t>(i)] = Complexf(
        static_cast<float>(std::sin(2.0 * std::numbers::pi * i / n)), 0.0f);
  }
  lineFft(data, false);
  for (int k = 0; k < n; ++k) {
    const float mag = std::abs(data[static_cast<std::size_t>(k)]);
    if (k == 1 || k == n - 1) {
      EXPECT_NEAR(mag, n / 2.0f, 1e-3f);
    } else {
      EXPECT_NEAR(mag, 0.0f, 1e-3f);
    }
  }
}

TEST(Fft1d, RejectsNonPowerOfTwo) {
  std::vector<Complexf> data(12);
  EXPECT_THROW(lineFft(data, false), AssertionError);
}

TEST(Fft2d, RoundTripAndParseval) {
  Rng rng(5);
  ComplexImage img(32, 16);
  double spatialEnergy = 0.0;
  for (auto& c : img.data()) {
    c = Complexf(static_cast<float>(rng.uniform(-1, 1)), 0.0f);
    spatialEnergy += std::norm(c);
  }
  const auto orig = img.data();
  fft2d(img, false);
  double freqEnergy = 0.0;
  for (const auto& c : img.data()) freqEnergy += std::norm(c);
  // Parseval (unnormalized forward): sum|X|^2 = N * sum|x|^2.
  EXPECT_NEAR(freqEnergy / (32.0 * 16.0), spatialEnergy,
              spatialEnergy * 1e-4);
  fft2d(img, true);
  for (std::size_t i = 0; i < orig.size(); ++i) {
    EXPECT_NEAR(img.data()[i].real(), orig[i].real(), 1e-4f);
  }
}

/// The transform fft2d has always computed, spelled out with std::complex:
/// per line, the bit reversal, radix-2 levels whose twiddles come from the
/// float recurrence w *= wlen (restarted per block), and 1/n after an
/// inverse; every row first, then every column.
void referenceLine(std::vector<Complexf>& d, bool inverse) {
  const std::size_t n = d.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(d[i], d[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = (inverse ? 2.0 : -2.0) * std::numbers::pi /
                       static_cast<double>(len);
    const Complexf wlen(static_cast<float>(std::cos(ang)),
                        static_cast<float>(std::sin(ang)));
    for (std::size_t i = 0; i < n; i += len) {
      Complexf w(1.0f, 0.0f);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Complexf u = d[i + k];
        const Complexf v = d[i + k + len / 2] * w;
        d[i + k] = u + v;
        d[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    const float s = 1.0f / static_cast<float>(n);
    for (Complexf& c : d) c *= s;
  }
}

void referenceFft2d(ComplexImage& img, bool inverse) {
  std::vector<Complexf> row(static_cast<std::size_t>(img.width()));
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) row[x] = img(x, y);
    referenceLine(row, inverse);
    for (int x = 0; x < img.width(); ++x) img(x, y) = row[x];
  }
  std::vector<Complexf> col(static_cast<std::size_t>(img.height()));
  for (int x = 0; x < img.width(); ++x) {
    for (int y = 0; y < img.height(); ++y) col[y] = img(x, y);
    referenceLine(col, inverse);
    for (int y = 0; y < img.height(); ++y) img(x, y) = col[y];
  }
}

TEST(Fft2d, BitIdenticalToRowThenColumnReference) {
  const SimdLevel saved = simdLevel();
  std::vector<SimdLevel> levels{SimdLevel::Scalar};
  if (maxSupportedSimdLevel() == SimdLevel::Avx2)
    levels.push_back(SimdLevel::Avx2);
  const std::pair<int, int> sizes[] = {{1, 1},   {2, 8},    {8, 2},
                                       {4, 4},   {256, 1},  {1, 256},
                                       {16, 256}, {256, 16}, {256, 256}};
  for (const SimdLevel level : levels) {
    setSimdLevel(level);
    for (const int threads : {1, 4}) {
      const ThreadLimit limit(threads);
      for (const auto& [w, h] : sizes) {
        for (const bool inverse : {false, true}) {
          Rng rng(static_cast<std::uint64_t>(w * 1000 + h));
          ComplexImage img(w, h);
          for (Complexf& c : img.data())
            c = Complexf(static_cast<float>(rng.uniform(-1, 1)),
                         static_cast<float>(rng.uniform(-1, 1)));
          ComplexImage expected = img;
          referenceFft2d(expected, inverse);
          fft2d(img, inverse);
          EXPECT_EQ(std::memcmp(img.data().data(), expected.data().data(),
                                img.data().size() * sizeof(Complexf)),
                    0)
              << w << "x" << h << (inverse ? " inverse " : " forward ")
              << toString(level) << " at " << threads << " threads";
        }
      }
    }
  }
  setSimdLevel(saved);
}

TEST(LogGabor, FiltersHaveZeroDcAndPeakInBand) {
  const LogGaborBank bank(64, 64);
  for (int s = 0; s < LogGaborBank::kNumScales; ++s) {
    for (int o = 0; o < LogGaborBank::kNumOrientations; ++o) {
      const ImageF& f = bank.filter(s, o);
      EXPECT_FLOAT_EQ(f(0, 0), 0.0f);  // no DC response
      float mx = 0.0f;
      for (float v : f.data()) {
        EXPECT_GE(v, 0.0f);
        mx = std::max(mx, v);
      }
      EXPECT_GT(mx, 0.5f);  // somewhere the filter passes energy
    }
  }
}

TEST(LogGabor, OrientedLineExcitesMatchingOrientation) {
  // A vertical line (constant x) has a horizontal spatial frequency; the
  // dominant Log-Gabor response must be at the corresponding orientation,
  // and rotating the line must rotate the winning orientation.
  const int n = 64;
  const LogGaborBank bank(n, n);
  const int no = LogGaborBank::kNumOrientations;

  ImageF vertical(n, n, 0.0f);
  for (int y = 8; y < n - 8; ++y) vertical(n / 2, y) = 1.0f;
  const auto ampsV = bank.orientationAmplitudes(vertical);

  ImageF horizontal(n, n, 0.0f);
  for (int x = 8; x < n - 8; ++x) horizontal(x, n / 2) = 1.0f;
  const auto ampsH = bank.orientationAmplitudes(horizontal);

  const auto argmaxAt = [&](const std::vector<ImageF>& amps, int x, int y) {
    int best = 0;
    float bv = -1.0f;
    for (int o = 0; o < no; ++o) {
      if (amps[static_cast<std::size_t>(o)](x, y) > bv) {
        bv = amps[static_cast<std::size_t>(o)](x, y);
        best = o;
      }
    }
    return best;
  };
  const int oV = argmaxAt(ampsV, n / 2, n / 2);
  const int oH = argmaxAt(ampsH, n / 2, n / 2);
  EXPECT_NE(oV, oH);
  // The two winning orientations are ~90 degrees apart.
  const int diff = std::abs(oV - oH);
  EXPECT_NEAR(std::min(diff, no - diff), no / 2, 1);
}

TEST(LogGabor, RequiresMatchingDimensions) {
  const LogGaborBank bank(32, 32);
  ImageF wrong(16, 16);
  EXPECT_THROW((void)bank.orientationAmplitudes(wrong), AssertionError);
}

class FftSizes : public ::testing::TestWithParam<int> {};

TEST_P(FftSizes, RoundTripProperty) {
  const int n = GetParam();
  Rng rng(n);
  std::vector<Complexf> data(static_cast<std::size_t>(n));
  std::vector<Complexf> orig;
  for (auto& c : data)
    c = Complexf(static_cast<float>(rng.uniform(-1, 1)),
                 static_cast<float>(rng.uniform(-1, 1)));
  orig = data;
  lineFft(data, false);
  lineFft(data, true);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_NEAR(std::abs(data[i] - orig[i]), 0.0f, 2e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FftSizes,
                         ::testing::Values(2, 4, 8, 32, 128, 512, 1024));

}  // namespace
}  // namespace bba
