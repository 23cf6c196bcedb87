#include "features/mim.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define BBA_MIM_X86 1
#endif

#include "common/assert.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "geom/vec.hpp"
#include "obs/trace.hpp"

namespace bba {

namespace {

// ---- fused orientation-sweep kernels -------------------------------------
// Per pixel, in one pass over the `no` orientation maps: amplitude sum,
// strict-greater argmax, and the double-precision axial circular-mean
// accumulators. The AVX2 path puts one *pixel* per lane, so every
// per-pixel op runs in the exact scalar sequence (sequential adds over o,
// blend-based argmax, float->double converts, mul + add, never FMA) and
// both levels produce bit-identical images. The atan2/fmod finish is
// scalar in both paths.

float finishAngle(double s2, double c2) {
  // Axial (pi-periodic) circular mean, rotated +90 degrees to the
  // structure direction (see computeMim's comment).
  double angle = 0.5 * std::atan2(s2, c2) + std::numbers::pi / 2.0;
  angle = std::fmod(angle, std::numbers::pi);
  if (angle < 0.0) angle += std::numbers::pi;
  return static_cast<float>(angle);
}

void mimSweepScalar(const float* const* amp, int no, int x0, int x1,
                    const double* cosT, const double* sinT,
                    unsigned char* mim, float* peak, float* total,
                    float* orient) {
  for (int x = x0; x < x1; ++x) {
    float bestAmp = 0.0f;
    int bestIdx = 0;
    float tot = 0.0f;
    double s2 = 0.0, c2 = 0.0;
    for (int o = 0; o < no; ++o) {
      const float a = amp[o][x];
      tot += a;
      if (a > bestAmp) {
        bestAmp = a;
        bestIdx = o;
      }
      const double ad = static_cast<double>(a);
      c2 += ad * cosT[o];
      s2 += ad * sinT[o];
    }
    mim[x] = static_cast<unsigned char>(bestIdx);
    peak[x] = bestAmp;
    total[x] = tot;
    orient[x] = finishAngle(s2, c2);
  }
}

#if defined(BBA_MIM_X86)

__attribute__((target("avx2"))) void mimSweepAvx2(
    const float* const* amp, int no, int x0, int x1, const double* cosT,
    const double* sinT, unsigned char* mim, float* peak, float* total,
    float* orient) {
  int x = x0;
  for (; x + 8 <= x1; x += 8) {
    __m256 best = _mm256_setzero_ps();
    __m256i bidx = _mm256_setzero_si256();
    __m256 tot = _mm256_setzero_ps();
    __m256d c2lo = _mm256_setzero_pd(), c2hi = _mm256_setzero_pd();
    __m256d s2lo = _mm256_setzero_pd(), s2hi = _mm256_setzero_pd();
    for (int o = 0; o < no; ++o) {
      const __m256 a = _mm256_loadu_ps(amp[o] + x);
      tot = _mm256_add_ps(tot, a);
      const __m256 gt = _mm256_cmp_ps(a, best, _CMP_GT_OQ);
      best = _mm256_blendv_ps(best, a, gt);
      bidx = _mm256_blendv_epi8(bidx, _mm256_set1_epi32(o),
                                _mm256_castps_si256(gt));
      const __m256d alo = _mm256_cvtps_pd(_mm256_castps256_ps128(a));
      const __m256d ahi = _mm256_cvtps_pd(_mm256_extractf128_ps(a, 1));
      const __m256d cv = _mm256_set1_pd(cosT[o]);
      const __m256d sv = _mm256_set1_pd(sinT[o]);
      c2lo = _mm256_add_pd(c2lo, _mm256_mul_pd(alo, cv));
      c2hi = _mm256_add_pd(c2hi, _mm256_mul_pd(ahi, cv));
      s2lo = _mm256_add_pd(s2lo, _mm256_mul_pd(alo, sv));
      s2hi = _mm256_add_pd(s2hi, _mm256_mul_pd(ahi, sv));
    }
    _mm256_storeu_ps(peak + x, best);
    _mm256_storeu_ps(total + x, tot);
    int idx[8];
    double c2a[8], s2a[8];
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(idx), bidx);
    _mm256_storeu_pd(c2a, c2lo);
    _mm256_storeu_pd(c2a + 4, c2hi);
    _mm256_storeu_pd(s2a, s2lo);
    _mm256_storeu_pd(s2a + 4, s2hi);
    for (int l = 0; l < 8; ++l) {
      mim[x + l] = static_cast<unsigned char>(idx[l]);
      orient[x + l] = finishAngle(s2a[l], c2a[l]);
    }
  }
  if (x < x1) {
    mimSweepScalar(amp, no, x, x1, cosT, sinT, mim, peak, total, orient);
  }
}

#endif  // BBA_MIM_X86

void mimSweepRow(const float* const* amp, int no, int w, const double* cosT,
                 const double* sinT, unsigned char* mim, float* peak,
                 float* total, float* orient, SimdLevel level) {
#if defined(BBA_MIM_X86)
  if (level == SimdLevel::Avx2 && w >= 8) {
    mimSweepAvx2(amp, no, 0, w, cosT, sinT, mim, peak, total, orient);
    return;
  }
#else
  (void)level;
#endif
  mimSweepScalar(amp, no, 0, w, cosT, sinT, mim, peak, total, orient);
}

}  // namespace

MimResult computeMim(const ImageF& bvImage, const LogGaborBank& bank) {
  BBA_SPAN("mim");
  BBA_ASSERT_MSG(bvImage.width() == bank.width() &&
                     bvImage.height() == bank.height(),
                 "BV image dimensions must match the Log-Gabor bank");
  const std::vector<ImageF> amps = bank.orientationAmplitudes(bvImage);
  const int no = bank.params().numOrientations;
  const int w = bvImage.width();
  const int h = bvImage.height();

  MimResult out;
  out.mim = ImageU8(w, h, 0);
  out.peakAmplitude = ImageF(w, h, 0.0f);
  out.totalAmplitude = ImageF(w, h, 0.0f);
  out.orientation = ImageF(w, h, 0.0f);
  out.numOrientations = no;

  const double binAngle = std::numbers::pi / static_cast<double>(no);
  // The per-orientation angle factors don't depend on the pixel; hoist
  // them out of the per-pixel loop.
  std::vector<double> cosTable(static_cast<std::size_t>(no));
  std::vector<double> sinTable(static_cast<std::size_t>(no));
  for (int o = 0; o < no; ++o) {
    const double t2 = 2.0 * static_cast<double>(o) * binAngle;
    cosTable[static_cast<std::size_t>(o)] = std::cos(t2);
    sinTable[static_cast<std::size_t>(o)] = std::sin(t2);
  }

  // Row-parallel, one fused sweep over the orientation stack per pixel
  // (peak, total, and axial circular mean accumulate in the same pass;
  // the continuous orientation is the axial pi-periodic circular mean
  // theta = atan2(sum A sin 2t, sum A cos 2t) / 2, rotated +90 degrees
  // from the filter axis to the structure direction — see finishAngle).
  // Each row's outputs are written by exactly one chunk, and the
  // SIMD-dispatched kernel puts one pixel per lane, so results are
  // bit-identical at every level and thread count.
  const SimdLevel level = simdLevel();
  parallelFor(0, h, 16, [&](std::int64_t y0, std::int64_t y1) {
    std::vector<const float*> ampRows(static_cast<std::size_t>(no));
    for (std::int64_t yy = y0; yy < y1; ++yy) {
      const int y = static_cast<int>(yy);
      for (int o = 0; o < no; ++o) {
        ampRows[static_cast<std::size_t>(o)] =
            &amps[static_cast<std::size_t>(o)](0, y);
      }
      mimSweepRow(ampRows.data(), no, w, cosTable.data(), sinTable.data(),
                  &out.mim(0, y), &out.peakAmplitude(0, y),
                  &out.totalAmplitude(0, y), &out.orientation(0, y), level);
    }
  });
  return out;
}

std::vector<double> orientationHistogram(const MimResult& mim, int bins) {
  BBA_ASSERT(bins >= 2);
  std::vector<double> hist(static_cast<std::size_t>(bins), 0.0);
  if (mim.peakAmplitude.empty()) return hist;
  // Mask out pixels with negligible energy: their orientation is noise.
  const float mask = 0.05f * mim.peakAmplitude.maxValue();
  const double scale = static_cast<double>(bins) / std::numbers::pi;
  for (int y = 0; y < mim.mim.height(); ++y) {
    for (int x = 0; x < mim.mim.width(); ++x) {
      const float amp = mim.peakAmplitude(x, y);
      if (amp <= mask) continue;
      const double pos = mim.orientation(x, y) * scale;
      const int b0 = static_cast<int>(pos) % bins;
      const int b1 = (b0 + 1) % bins;
      const double frac = pos - std::floor(pos);
      hist[static_cast<std::size_t>(b0)] += amp * (1.0 - frac);
      hist[static_cast<std::size_t>(b1)] += amp * frac;
    }
  }
  return hist;
}

std::vector<double> globalYawCandidates(const MimResult& egoMim,
                                        const MimResult& otherMim,
                                        int maxCandidates) {
  BBA_ASSERT(egoMim.numOrientations == otherMim.numOrientations);
  BBA_ASSERT(maxCandidates >= 1);
  constexpr int kBins = 72;  // 2.5-degree resolution
  const std::vector<double> hE = orientationHistogram(egoMim, kBins);
  const std::vector<double> hO = orientationHistogram(otherMim, kBins);

  // C(k) = sum_o hE[o] * hO[(o - k) mod bins]: structure at orientation a
  // in the other image appears at a + yaw in the ego image.
  std::vector<double> corr(static_cast<std::size_t>(kBins), 0.0);
  for (int k = 0; k < kBins; ++k) {
    double s = 0.0;
    for (int o = 0; o < kBins; ++o) {
      s += hE[static_cast<std::size_t>(o)] *
           hO[static_cast<std::size_t>(((o - k) % kBins + kBins) % kBins)];
    }
    corr[static_cast<std::size_t>(k)] = s;
  }

  // Local maxima of the circular correlation, best first. The correlation
  // peak is as wide as the filters' angular response (~20 degrees), so a
  // background-subtracted center of mass over a window refines far better
  // than a 3-point parabola. Peaks within 5 degrees of a stronger peak are
  // treated as the same candidate.
  std::vector<std::pair<double, double>> peaks;  // (score, yaw)
  constexpr int kWin = 6;                        // +-15 degrees
  for (int k = 0; k < kBins; ++k) {
    const double c = corr[static_cast<std::size_t>(k)];
    bool isMax = true;
    for (int d = -2; d <= 2; ++d) {
      if (d == 0) continue;
      if (corr[static_cast<std::size_t>((k + d + kBins) % kBins)] > c) {
        isMax = false;
        break;
      }
    }
    if (!isMax) continue;
    double lo = c;
    for (int d = -kWin; d <= kWin; ++d) {
      lo = std::min(lo, corr[static_cast<std::size_t>((k + d + kBins) % kBins)]);
    }
    double wsum = 0.0, msum = 0.0;
    for (int d = -kWin; d <= kWin; ++d) {
      const double w =
          corr[static_cast<std::size_t>((k + d + kBins) % kBins)] - lo;
      wsum += w;
      msum += w * static_cast<double>(d);
    }
    const double offset = wsum > 1e-12 ? msum / wsum : 0.0;
    double yaw = (static_cast<double>(k) + offset) * std::numbers::pi /
                 static_cast<double>(kBins);
    yaw = std::fmod(yaw, std::numbers::pi);
    if (yaw < 0.0) yaw += std::numbers::pi;
    peaks.emplace_back(c, yaw);
  }
  std::sort(peaks.begin(), peaks.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  std::vector<double> out;
  for (const auto& [score, yaw] : peaks) {
    (void)score;
    bool dup = false;
    for (double kept : out) {
      double d = std::abs(yaw - kept);
      d = std::min(d, std::numbers::pi - d);
      if (d < 5.0 * kDegToRad) {
        dup = true;
        break;
      }
    }
    if (dup) continue;
    out.push_back(yaw);
    if (static_cast<int>(out.size()) >= maxCandidates) break;
  }
  if (out.empty()) out.push_back(0.0);  // flat histograms: assume no rotation
  return out;
}

}  // namespace bba
