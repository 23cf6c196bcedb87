#include "signal/log_gabor.hpp"

#include <cmath>
#include <map>
#include <mutex>
#include <numbers>
#include <tuple>

#include "common/assert.hpp"
#include "common/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bba {

LogGaborBank::LogGaborBank(int width, int height,
                           const LogGaborParams& params)
    : w_(width), h_(height), params_(params) {
  BBA_SPAN("log-gabor-bank");
  BBA_ASSERT_MSG(isPowerOfTwo(width) && isPowerOfTwo(height),
                 "LogGaborBank requires power-of-two dimensions");
  BBA_ASSERT(params.numScales >= 1 && params.numOrientations >= 2);

  const int ns = params.numScales;
  const int no = params.numOrientations;
  filters_.assign(static_cast<std::size_t>(ns * no), ImageF());

  const double sigmaTheta =
      params.thetaSigmaRatio * std::numbers::pi / static_cast<double>(no);
  const double logSigmaOnf2 =
      2.0 * std::log(params.sigmaOnf) * std::log(params.sigmaOnf);

  // Each filter is an independent pure function of (s, o); one task per
  // filter, each writing only its own filters_ slot.
  parallelFor(0, ns * no, 1, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const int s = static_cast<int>(i) / no;
      const int o = static_cast<int>(i) % no;
      const double wavelength =
          params.minWavelength * std::pow(params.mult, static_cast<double>(s));
      const double f0 = 1.0 / wavelength;  // center frequency (cycles/pixel)
      const double theta0 =
          static_cast<double>(o) * std::numbers::pi / static_cast<double>(no);
      const double cos0 = std::cos(theta0);
      const double sin0 = std::sin(theta0);

      ImageF filt(w_, h_);
      for (int y = 0; y < h_; ++y) {
        // FFT frequency coordinate in cycles/pixel, wrapped to [-0.5, 0.5).
        const double fy =
            (y <= h_ / 2 ? y : y - h_) / static_cast<double>(h_);
        for (int x = 0; x < w_; ++x) {
          const double fx =
              (x <= w_ / 2 ? x : x - w_) / static_cast<double>(w_);
          const double r = std::sqrt(fx * fx + fy * fy);
          if (r == 0.0) {
            filt(x, y) = 0.0f;  // log-Gabor has zero DC response
            continue;
          }
          const double lr = std::log(r / f0);
          const double radial = std::exp(-(lr * lr) / logSigmaOnf2);

          // One-sided angular spread: full-circle angular distance keeps
          // only the half-plane around theta0, producing an analytic
          // (complex) spatial response.
          const double phi = std::atan2(fy, fx);
          const double ds = std::sin(phi) * cos0 - std::cos(phi) * sin0;
          const double dc = std::cos(phi) * cos0 + std::sin(phi) * sin0;
          const double dTheta = std::abs(std::atan2(ds, dc));
          const double angular =
              std::exp(-(dTheta * dTheta) / (2.0 * sigmaTheta * sigmaTheta));

          filt(x, y) = static_cast<float>(radial * angular);
        }
      }
      filters_[static_cast<std::size_t>(i)] = std::move(filt);
    }
  });
}

const ImageF& LogGaborBank::filter(int s, int o) const {
  BBA_ASSERT(s >= 0 && s < params_.numScales);
  BBA_ASSERT(o >= 0 && o < params_.numOrientations);
  return filters_[static_cast<std::size_t>(s * params_.numOrientations + o)];
}

std::vector<ImageF> LogGaborBank::orientationAmplitudes(
    const ImageF& img) const {
  BBA_SPAN("log-gabor");
  BBA_ASSERT_MSG(img.width() == w_ && img.height() == h_,
                 "image dimensions must match the bank");

  ComplexImage spectrum = ComplexImage::fromReal(img);
  fft2d(spectrum, /*inverse=*/false);  // itself strip-parallel

  const int ns = params_.numScales;
  const int no = params_.numOrientations;
  std::vector<ImageF> amp(static_cast<std::size_t>(no), ImageF(w_, h_, 0.0f));

  // One task per orientation: each owns its amp[o] accumulator and sums
  // its scales' moduli in index order, so no two tasks share a write range
  // and the per-pixel accumulation order is fixed regardless of thread
  // count. The inverse transforms inside run on the task's thread.
  parallelFor(0, no, 1, [&](std::int64_t o0, std::int64_t o1) {
    std::vector<const ImageF*> scales(static_cast<std::size_t>(ns));
    for (std::int64_t o = o0; o < o1; ++o) {
      for (int s = 0; s < ns; ++s)
        scales[static_cast<std::size_t>(s)] = &filter(s, static_cast<int>(o));
      accumulateFilteredModuli(spectrum, scales,
                               amp[static_cast<std::size_t>(o)]);
    }
  });
  return amp;
}

namespace {

using BankKey = std::tuple<int, int, int, int, double, double, double, double>;

BankKey bankKey(int w, int h, const LogGaborParams& p) {
  return {w,      h,      p.numScales, p.numOrientations,
          p.minWavelength, p.mult,     p.sigmaOnf, p.thetaSigmaRatio};
}

}  // namespace

std::shared_ptr<const LogGaborBank> sharedLogGaborBank(
    int width, int height, const LogGaborParams& params) {
  static std::mutex mu;
  static std::map<BankKey, std::shared_ptr<const LogGaborBank>> banks;

  const BankKey key = bankKey(width, height, params);
  {
    std::lock_guard<std::mutex> lock(mu);
    auto it = banks.find(key);
    if (it != banks.end()) {
      BBA_COUNTER_ADD("cache.bank_hit", 1);
      return it->second;
    }
  }

  // Build outside the lock: a miss costs hundreds of milliseconds and must
  // not block hits (or misses for other geometries). A same-key race
  // builds redundantly; the loser's bank is discarded below.
  BBA_COUNTER_ADD("cache.bank_miss", 1);
  auto built = std::make_shared<const LogGaborBank>(width, height, params);
  std::lock_guard<std::mutex> lock(mu);
  auto [it, inserted] = banks.emplace(key, std::move(built));
  (void)inserted;
  return it->second;
}

}  // namespace bba
