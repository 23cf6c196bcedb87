#include "features/descriptor.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define BBA_DESC_X86 1
#endif

#include "common/assert.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bba {

DescriptorSet::DescriptorSet(std::vector<Keypoint> keypoints,
                             std::vector<std::vector<float>> descriptors,
                             int grid, int numOrientations)
    : keypoints_(std::move(keypoints)),
      descriptors_(std::move(descriptors)),
      grid_(grid),
      numOrientations_(numOrientations) {
  BBA_ASSERT(keypoints_.size() == descriptors_.size());
}

std::vector<float> DescriptorSet::flipped(std::size_t i) const {
  // A 180-degree patch rotation sends grid cell (gx, gy) to
  // (l-1-gx, l-1-gy); the MIM orientation index is unchanged because the
  // MIM is pi-periodic (a pi shift is the identity on orientation bins).
  const std::vector<float>& src = descriptors_[i];
  std::vector<float> out(src.size());
  const int l = grid_;
  const int no = numOrientations_;
  for (int gy = 0; gy < l; ++gy) {
    for (int gx = 0; gx < l; ++gx) {
      const std::size_t from = static_cast<std::size_t>((gy * l + gx) * no);
      const std::size_t to = static_cast<std::size_t>(
          (((l - 1 - gy) * l) + (l - 1 - gx)) * no);
      std::copy_n(src.begin() + static_cast<std::ptrdiff_t>(from), no,
                  out.begin() + static_cast<std::ptrdiff_t>(to));
    }
  }
  return out;
}

namespace {

/// Dominant MIM orientation around a keypoint: the amplitude-weighted mode
/// of MIM indices in a disc of radius `radius`, refined to sub-bin
/// precision by parabolic interpolation over the (circular) histogram —
/// without it, relative yaws that are not multiples of pi/N_o quantize
/// inconsistently across the two images and descriptors stop matching.
/// Returned as an angle in [0, pi).
double dominantOrientation(const MimResult& mim, const Vec2& px,
                           int radius) {
  const int no = mim.numOrientations;
  std::vector<double> hist(static_cast<std::size_t>(no), 0.0);
  const int cx = static_cast<int>(px.x);
  const int cy = static_cast<int>(px.y);
  const int r2 = radius * radius;
  for (int dy = -radius; dy <= radius; ++dy) {
    for (int dx = -radius; dx <= radius; ++dx) {
      if (dx * dx + dy * dy > r2) continue;
      const int x = cx + dx;
      const int y = cy + dy;
      if (!mim.mim.inBounds(x, y)) continue;
      hist[mim.mim(x, y)] += mim.peakAmplitude(x, y);
    }
  }
  const auto it = std::max_element(hist.begin(), hist.end());
  const int bin = static_cast<int>(it - hist.begin());
  const double l = hist[static_cast<std::size_t>((bin + no - 1) % no)];
  const double c = hist[static_cast<std::size_t>(bin)];
  const double r = hist[static_cast<std::size_t>((bin + 1) % no)];
  const double denom = l - 2.0 * c + r;
  const double offset =
      std::abs(denom) > 1e-12 ? std::clamp(0.5 * (l - r) / denom, -0.5, 0.5)
                              : 0.0;
  // +pi/2: MIM indices are frequency orientations; report the structure
  // direction (see computeMim).
  double angle = (static_cast<double>(bin) + offset) * std::numbers::pi /
                     static_cast<double>(no) +
                 std::numbers::pi / 2.0;
  angle = std::fmod(angle, std::numbers::pi);
  if (angle < 0.0) angle += std::numbers::pi;
  return angle;
}

// ---- patch-coordinate kernels --------------------------------------------
// For one patch row (fixed dy), the rotated sample coordinates are
// sx = (px.x + c*dx) - s*dy and sy = (px.y + s*dx) + c*dy; the per-dx
// bases are hoisted into a1/a2 so each sample costs one sub/add plus the
// half-up rounding. Samples are strictly positive here (the caller's
// margin check guarantees it), so floor(v + 0.5) equals truncation and
// cvttpd is an exact vectorization; one dx per lane keeps both levels
// bit-identical.

void patchCoordsScalar(const double* a1, const double* a2, int n, double sdy,
                       double cdy, int* ix, int* iy) {
  for (int k = 0; k < n; ++k) {
    ix[k] = static_cast<int>(std::floor(a1[k] - sdy + 0.5));
    iy[k] = static_cast<int>(std::floor(a2[k] + cdy + 0.5));
  }
}

#if defined(BBA_DESC_X86)

__attribute__((target("avx2"))) void patchCoordsAvx2(const double* a1,
                                                     const double* a2, int n,
                                                     double sdy, double cdy,
                                                     int* ix, int* iy) {
  const __m256d sv = _mm256_set1_pd(sdy);
  const __m256d cv = _mm256_set1_pd(cdy);
  const __m256d half = _mm256_set1_pd(0.5);
  int k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256d sx =
        _mm256_add_pd(_mm256_sub_pd(_mm256_loadu_pd(a1 + k), sv), half);
    const __m256d sy =
        _mm256_add_pd(_mm256_add_pd(_mm256_loadu_pd(a2 + k), cv), half);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(ix + k),
                     _mm256_cvttpd_epi32(sx));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(iy + k),
                     _mm256_cvttpd_epi32(sy));
  }
  if (k < n) patchCoordsScalar(a1 + k, a2 + k, n - k, sdy, cdy, ix + k, iy + k);
}

#endif  // BBA_DESC_X86

void patchCoords(const double* a1, const double* a2, int n, double sdy,
                 double cdy, int* ix, int* iy, SimdLevel level) {
#if defined(BBA_DESC_X86)
  if (level == SimdLevel::Avx2 && n >= 4) {
    patchCoordsAvx2(a1, a2, n, sdy, cdy, ix, iy);
    return;
  }
#else
  (void)level;
#endif
  patchCoordsScalar(a1, a2, n, sdy, cdy, ix, iy);
}

}  // namespace

DescriptorSet computeDescriptors(const MimResult& mim,
                                 std::vector<Keypoint> keypoints,
                                 double fixedAngle,
                                 const DescriptorParams& prm) {
  BBA_SPAN("descriptor");
  BBA_ASSERT(prm.patchSize >= prm.grid && prm.grid >= 1);
  const int no = mim.numOrientations;
  const int l = prm.grid;
  const int half = prm.patchSize / 2;
  const double cellSize =
      static_cast<double>(prm.patchSize) / static_cast<double>(l);
  const int w = mim.mim.width();
  const int h = mim.mim.height();

  // Rotated patches need sqrt(2) margin around the keypoint.
  const int margin = static_cast<int>(std::ceil(half * 1.4142135)) + 1;

  const float ampMask = static_cast<float>(
      prm.amplitudeMaskFraction *
      (mim.peakAmplitude.empty() ? 0.0 : mim.peakAmplitude.maxValue()));

  // The grid-cell position of a sample depends only on its patch offset,
  // not the keypoint: hoist floor((dx+half)/cellSize - 0.5) and its
  // fractional part into per-offset tables (identical values, computed
  // once instead of per sample).
  const int patch = 2 * half;  // offsets in [-half, half)
  std::vector<int> gTab(static_cast<std::size_t>(patch));
  std::vector<double> fTab(static_cast<std::size_t>(patch));
  for (int k = 0; k < patch; ++k) {
    const double gf = static_cast<double>(k) / cellSize - 0.5;
    const int g0 = static_cast<int>(std::floor(gf));
    gTab[static_cast<std::size_t>(k)] = g0;
    fTab[static_cast<std::size_t>(k)] = gf - g0;
  }
  const SimdLevel level = simdLevel();

  // Keypoints are independent: extract in parallel into per-index slots
  // (an empty descriptor marks a rejected keypoint), then compact in index
  // order so the output ordering matches a serial pass at any thread
  // count.
  struct Extracted {
    Keypoint kp;
    std::vector<float> desc;  // empty == rejected
  };
  std::vector<Extracted> slots(keypoints.size());

  // Per-task scratch for the rotated sample bases / coordinates.
  struct Scratch {
    std::vector<double> a1, a2;
    std::vector<int> ix, iy;
  };

  auto extractOne = [&](const Keypoint& kp, Extracted& slot,
                        Scratch& scratch) {
    const int cx = static_cast<int>(kp.px.x);
    const int cy = static_cast<int>(kp.px.y);
    if (cx < margin || cy < margin || cx >= w - margin || cy >= h - margin)
      return;

    const double domOrient = dominantOrientation(mim, kp.px, half);
    // The dominant orientation is always recorded on the keypoint (RANSAC
    // gates inliers on orientation consistency); whether it also rotates
    // the patch depends on the rotation mode.
    double theta = 0.0;
    switch (prm.rotationMode) {
      case RotationMode::None:
        break;
      case RotationMode::PerKeypoint:
        theta = domOrient;
        break;
      case RotationMode::FixedAngle:
        theta = fixedAngle;
        break;
    }
    const double binShiftF =
        theta * static_cast<double>(no) / std::numbers::pi;
    const double c = std::cos(theta), s = std::sin(theta);

    // Rotated sample coordinate for offset (dx, dy):
    //   sx = (px.x + c*dx) - s*dy,  sy = (px.y + s*dx) + c*dy
    // (normalizing the patch's dominant structure to orientation 0). The
    // per-dx bases are keypoint constants; each row then costs one
    // SIMD-dispatched sub/add + round per sample. The margin check above
    // keeps every rotated sample strictly inside the image (the rotated
    // offset never exceeds half*sqrt(2) < margin - 1), so there is no
    // per-sample bounds test.
    scratch.a1.resize(static_cast<std::size_t>(patch));
    scratch.a2.resize(static_cast<std::size_t>(patch));
    scratch.ix.resize(static_cast<std::size_t>(patch));
    scratch.iy.resize(static_cast<std::size_t>(patch));
    for (int k = 0; k < patch; ++k) {
      const int dx = k - half;
      scratch.a1[static_cast<std::size_t>(k)] = kp.px.x + c * dx;
      scratch.a2[static_cast<std::size_t>(k)] = kp.px.y + s * dx;
    }

    std::vector<float> desc(static_cast<std::size_t>(l * l * no), 0.0f);
    for (int dy = -half; dy < half; ++dy) {
      patchCoords(scratch.a1.data(), scratch.a2.data(), patch, s * dy,
                  c * dy, scratch.ix.data(), scratch.iy.data(), level);
      const int ky = dy + half;
      const int gy0 = gTab[static_cast<std::size_t>(ky)];
      const double fy = fTab[static_cast<std::size_t>(ky)];
      for (int kx = 0; kx < patch; ++kx) {
        const int ix = scratch.ix[static_cast<std::size_t>(kx)];
        const int iy = scratch.iy[static_cast<std::size_t>(kx)];
        const float amp = mim.peakAmplitude(ix, iy);
        if (amp <= ampMask) continue;

        // Every unmasked pixel casts one vote, whatever its amplitude:
        // counting is steadier than amplitude weighting across sensors
        // whose differing densities and vertical FOVs skew amplitudes.
        //
        // Trilinear soft binning (x, y, orientation): visibility and
        // sub-pixel differences between two views then move vote mass
        // between adjacent bins instead of teleporting it, which keeps
        // descriptor distances small for true correspondences across
        // heterogeneous sensors.
        const int gx0 = gTab[static_cast<std::size_t>(kx)];
        const double fx = fTab[static_cast<std::size_t>(kx)];

        // |theta| < pi in every pipeline path, so the shift distance lies
        // in (-no, 2*no) and one conditional +-no reproduces the fmod the
        // code used to call exactly (the subtraction is Sterbenz-exact);
        // the libcall survives only for out-of-range fixedAngle values.
        const double dno = static_cast<double>(no);
        double shifted = static_cast<double>(mim.mim(ix, iy)) - binShiftF;
        if (shifted >= dno) {
          shifted = shifted < 2.0 * dno ? shifted - dno
                                        : std::fmod(shifted, dno);
        } else if (shifted < -dno) {
          shifted = std::fmod(shifted, dno);
        }
        if (shifted < 0.0) shifted += dno;
        const int i0 = static_cast<int>(shifted) % no;
        const int i1 = (i0 + 1) % no;
        const float fo = static_cast<float>(shifted - std::floor(shifted));

        for (int by = 0; by < 2; ++by) {
          const int gy2 = gy0 + by;
          if (gy2 < 0 || gy2 >= l) continue;
          const double wy = by == 0 ? 1.0 - fy : fy;
          for (int bx = 0; bx < 2; ++bx) {
            const int gx2 = gx0 + bx;
            if (gx2 < 0 || gx2 >= l) continue;
            const double wx = bx == 0 ? 1.0 - fx : fx;
            float* cell = &desc[static_cast<std::size_t>((gy2 * l + gx2) * no)];
            const float ws = static_cast<float>(wy * wx);
            cell[i0] += ws * (1.0f - fo);
            cell[i1] += ws * fo;
          }
        }
      }
    }

    // Hellinger kernel: sqrt-compress then L2-normalize. Dampens the
    // influence of dense structure one sensor happens to sample heavily.
    double norm2 = 0.0;
    for (float& v : desc) {
      v = std::sqrt(v);
      norm2 += static_cast<double>(v) * v;
    }
    if (norm2 <= 0.0) return;  // structure-free patch
    const float inv = static_cast<float>(1.0 / std::sqrt(norm2));
    for (float& v : desc) v *= inv;

    slot.kp = kp;
    slot.kp.orientation = static_cast<float>(domOrient);
    slot.desc = std::move(desc);
  };

  parallelFor(0, static_cast<std::int64_t>(keypoints.size()), 8,
              [&](std::int64_t i0, std::int64_t i1) {
                Scratch scratch;
                for (std::int64_t i = i0; i < i1; ++i) {
                  extractOne(keypoints[static_cast<std::size_t>(i)],
                             slots[static_cast<std::size_t>(i)], scratch);
                }
              });

  std::vector<Keypoint> kept;
  std::vector<std::vector<float>> descs;
  kept.reserve(keypoints.size());
  descs.reserve(keypoints.size());
  for (Extracted& slot : slots) {
    if (slot.desc.empty()) continue;
    kept.push_back(slot.kp);
    descs.push_back(std::move(slot.desc));
  }
  BBA_COUNTER_ADD("descriptor.computed",
                  static_cast<std::int64_t>(kept.size()));
  BBA_COUNTER_ADD("descriptor.rejected",
                  static_cast<std::int64_t>(keypoints.size() - kept.size()));

  return DescriptorSet(std::move(kept), std::move(descs), l, no);
}

namespace {

// ---- squared-distance kernels --------------------------------------------
// Fixed 8-virtual-lane blocked reduction: lane l accumulates elements
// i % 8 == l, and both paths collapse the 8 partials with the same
// pairwise tree — so scalar (8 scalar accumulators) and AVX2 (1x8 lanes)
// are bit-identical. Descriptors are grid*grid*no floats (192 by default),
// a multiple of 8; other sizes take the sequential fallback.

float hsum8(const float* acc) {
  const float s01 = acc[0] + acc[1];
  const float s23 = acc[2] + acc[3];
  const float s45 = acc[4] + acc[5];
  const float s67 = acc[6] + acc[7];
  return (s01 + s23) + (s45 + s67);
}

float distance2Blocked8Scalar(const float* a, const float* b, std::size_t n) {
  float acc[8] = {};
  for (std::size_t i = 0; i < n; i += 8) {
    for (int l = 0; l < 8; ++l) {
      const float d = a[i + static_cast<std::size_t>(l)] -
                      b[i + static_cast<std::size_t>(l)];
      acc[l] += d * d;
    }
  }
  return hsum8(acc);
}

#if defined(BBA_DESC_X86)

__attribute__((target("avx2"))) float distance2Blocked8Avx2(const float* a,
                                                            const float* b,
                                                            std::size_t n) {
  __m256 acc = _mm256_setzero_ps();
  for (std::size_t i = 0; i < n; i += 8) {
    const __m256 d =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
  }
  float lanes[8];
  _mm256_storeu_ps(lanes, acc);
  return hsum8(lanes);
}

#endif  // BBA_DESC_X86

}  // namespace

float descriptorDistance2(const std::vector<float>& a,
                          const std::vector<float>& b) {
  BBA_ASSERT(a.size() == b.size());
  const std::size_t n = a.size();
  if (n % 8 == 0 && n > 0) {
#if defined(BBA_DESC_X86)
    if (simdLevel() == SimdLevel::Avx2) {
      return distance2Blocked8Avx2(a.data(), b.data(), n);
    }
#endif
    return distance2Blocked8Scalar(a.data(), b.data(), n);
  }
  float s = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    const float d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

}  // namespace bba
