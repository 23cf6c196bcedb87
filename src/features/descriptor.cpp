#include "features/descriptor.hpp"

#include <algorithm>
#include <array>
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
                             std::vector<float> descriptors, int grid,
                             int numOrientations)
    : keypoints_(std::move(keypoints)),
      data_(std::move(descriptors)),
      grid_(grid),
      numOrientations_(numOrientations) {
  BBA_ASSERT(data_.size() ==
             keypoints_.size() * static_cast<std::size_t>(dimension()));
}

std::vector<float> DescriptorSet::flippedBlock() const {
  // A 180-degree patch rotation sends grid cell (gx, gy) to
  // (l-1-gx, l-1-gy); the MIM orientation index is unchanged because the
  // MIM is pi-periodic (a pi shift is the identity on orientation bins).
  std::vector<float> out(data_.size());
  const int l = grid_;
  const auto no = static_cast<std::size_t>(numOrientations_);
  const auto dim = static_cast<std::size_t>(dimension());
  for (std::size_t row = 0; row < data_.size(); row += dim) {
    for (int gy = 0; gy < l; ++gy) {
      for (int gx = 0; gx < l; ++gx) {
        const auto from = static_cast<std::size_t>(gy * l + gx) * no;
        const auto to =
            static_cast<std::size_t>((l - 1 - gy) * l + (l - 1 - gx)) * no;
        std::copy_n(data_.begin() + static_cast<std::ptrdiff_t>(row + from),
                    no,
                    out.begin() + static_cast<std::ptrdiff_t>(row + to));
      }
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

/// Whether the patch around `kp`, rotated by any angle, stays inside a
/// w x h image: rotated patches need a sqrt(2) margin around the
/// keypoint.
bool patchFits(const Keypoint& kp, int half, int w, int h) {
  const int margin = static_cast<int>(std::ceil(half * 1.4142135)) + 1;
  const int cx = static_cast<int>(kp.px.x);
  const int cy = static_cast<int>(kp.px.y);
  return cx >= margin && cy >= margin && cx < w - margin && cy < h - margin;
}

}  // namespace

void orientKeypoints(const MimResult& mim, std::vector<Keypoint>& keypoints,
                     const DescriptorParams& prm) {
  const int half = prm.patchSize / 2;
  const int w = mim.mim.width();
  const int h = mim.mim.height();
  parallelFor(0, static_cast<std::int64_t>(keypoints.size()), 8,
              [&](std::int64_t i0, std::int64_t i1) {
                for (std::int64_t i = i0; i < i1; ++i) {
                  Keypoint& kp = keypoints[static_cast<std::size_t>(i)];
                  if (!patchFits(kp, half, w, h)) continue;
                  kp.orientation = static_cast<float>(
                      dominantOrientation(mim, kp.px, half));
                }
              });
}

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
  const auto dim = static_cast<std::size_t>(l * l * no);

  const float ampMask = static_cast<float>(
      prm.amplitudeMaskFraction *
      (mim.peakAmplitude.empty() ? 0.0 : mim.peakAmplitude.maxValue()));

  // Trilinear soft binning (x, y, orientation): a sample votes into the up
  // to 4 grid cells around its patch position, weighted by float(wy * wx).
  // Cells and weights depend only on the sample's patch offset, not on the
  // keypoint, so they are tabled once per pass: offset (kx, ky) keeps its
  // cells' base indices and weights in (by, bx) order.
  const int patch = 2 * half;  // offsets in [-half, half)
  std::vector<int> gTab(static_cast<std::size_t>(patch));
  std::vector<double> fTab(static_cast<std::size_t>(patch));
  for (int k = 0; k < patch; ++k) {
    const double gf = static_cast<double>(k) / cellSize - 0.5;
    const int g0 = static_cast<int>(std::floor(gf));
    gTab[static_cast<std::size_t>(k)] = g0;
    fTab[static_cast<std::size_t>(k)] = gf - g0;
  }
  struct CellVote {
    int cell;  ///< index of the cell's first orientation bin
    float weight;
  };
  struct OffsetVotes {
    std::array<CellVote, 4> votes;
    int count = 0;
  };
  std::vector<OffsetVotes> voteTab(static_cast<std::size_t>(patch * patch));
  for (int ky = 0; ky < patch; ++ky) {
    for (int kx = 0; kx < patch; ++kx) {
      OffsetVotes& o = voteTab[static_cast<std::size_t>(ky * patch + kx)];
      for (int by = 0; by < 2; ++by) {
        const int gy = gTab[static_cast<std::size_t>(ky)] + by;
        if (gy < 0 || gy >= l) continue;
        const double fy = fTab[static_cast<std::size_t>(ky)];
        const double wy = by == 0 ? 1.0 - fy : fy;
        for (int bx = 0; bx < 2; ++bx) {
          const int gx = gTab[static_cast<std::size_t>(kx)] + bx;
          if (gx < 0 || gx >= l) continue;
          const double fx = fTab[static_cast<std::size_t>(kx)];
          const double wx = bx == 0 ? 1.0 - fx : fx;
          o.votes[static_cast<std::size_t>(o.count++)] =
              CellVote{(gy * l + gx) * no, static_cast<float>(wy * wx)};
        }
      }
    }
  }
  const SimdLevel level = simdLevel();

  // Keypoints are independent: extract in parallel, each into its own row
  // of one block (a flag marks a rejected keypoint), then compact in index
  // order so the output ordering matches a serial pass at any thread
  // count.
  std::vector<float> rows(keypoints.size() * dim, 0.0f);
  std::vector<char> kept(keypoints.size(), 0);

  // The two orientation bins a sample votes into, with their weights.
  struct BinVote {
    int lo, hi;
    float loWeight, hiWeight;
  };
  // Per-task scratch: the rotated sample bases / coordinates, and one
  // BinVote per MIM index.
  struct Scratch {
    std::vector<double> a1, a2;
    std::vector<int> ix, iy;
    std::vector<BinVote> bins;
  };

  auto extractOne = [&](const Keypoint& kp, float* desc, char& keep,
                        Scratch& scratch) {
    if (!patchFits(kp, half, w, h)) return;

    // The keypoint's orientation (orientKeypoints) always rides along
    // (RANSAC gates inliers on orientation consistency); whether it also
    // rotates the patch depends on the rotation mode. The PerKeypoint
    // ablation rotates by the unrounded angle, so it re-derives it.
    double theta = 0.0;
    switch (prm.rotationMode) {
      case RotationMode::None:
        break;
      case RotationMode::PerKeypoint:
        theta = dominantOrientation(mim, kp.px, half);
        break;
      case RotationMode::FixedAngle:
        theta = fixedAngle;
        break;
    }
    const double binShiftF =
        theta * static_cast<double>(no) / std::numbers::pi;
    const double c = std::cos(theta), s = std::sin(theta);

    // Soft binning over orientation: a sample's two bins and their weights
    // depend only on its MIM index, one of `no` values, so they are tabled
    // once per keypoint. |theta| < pi in every pipeline path, so the shift
    // distance lies in (-no, 2*no) and one conditional +-no reproduces the
    // fmod the code used to call exactly (the subtraction is
    // Sterbenz-exact); the libcall survives only for out-of-range
    // fixedAngle values. The shift then lies in [0, no] (no itself by
    // rounding), so one compare each wraps the two bins.
    const double dno = static_cast<double>(no);
    scratch.bins.resize(static_cast<std::size_t>(no));
    for (int m = 0; m < no; ++m) {
      double shifted = static_cast<double>(m) - binShiftF;
      if (shifted >= dno) {
        shifted =
            shifted < 2.0 * dno ? shifted - dno : std::fmod(shifted, dno);
      } else if (shifted < -dno) {
        shifted = std::fmod(shifted, dno);
      }
      if (shifted < 0.0) shifted += dno;
      int lo = static_cast<int>(shifted);
      if (lo >= no) lo -= no;
      const float fo = static_cast<float>(shifted - std::floor(shifted));
      scratch.bins[static_cast<std::size_t>(m)] =
          BinVote{lo, lo + 1 < no ? lo + 1 : 0, 1.0f - fo, fo};
    }

    // Rotated sample coordinate for offset (dx, dy):
    //   sx = (px.x + c*dx) - s*dy,  sy = (px.y + s*dx) + c*dy
    // (normalizing the patch's dominant structure to orientation 0). The
    // per-dx bases are keypoint constants; each row then costs one
    // SIMD-dispatched sub/add + round per sample. patchFits() keeps every
    // rotated sample strictly inside the image (the rotated offset never
    // exceeds half*sqrt(2) < margin - 1), so there is no per-sample bounds
    // test.
    scratch.a1.resize(static_cast<std::size_t>(patch));
    scratch.a2.resize(static_cast<std::size_t>(patch));
    scratch.ix.resize(static_cast<std::size_t>(patch));
    scratch.iy.resize(static_cast<std::size_t>(patch));
    for (int k = 0; k < patch; ++k) {
      const int dx = k - half;
      scratch.a1[static_cast<std::size_t>(k)] = kp.px.x + c * dx;
      scratch.a2[static_cast<std::size_t>(k)] = kp.px.y + s * dx;
    }

    for (int dy = -half; dy < half; ++dy) {
      patchCoords(scratch.a1.data(), scratch.a2.data(), patch, s * dy,
                  c * dy, scratch.ix.data(), scratch.iy.data(), level);
      const OffsetVotes* rowVotes =
          &voteTab[static_cast<std::size_t>((dy + half) * patch)];
      for (int kx = 0; kx < patch; ++kx) {
        const int ix = scratch.ix[static_cast<std::size_t>(kx)];
        const int iy = scratch.iy[static_cast<std::size_t>(kx)];
        const float amp = mim.peakAmplitude(ix, iy);
        if (amp <= ampMask) continue;

        // Every unmasked pixel casts one vote, whatever its amplitude:
        // counting is steadier than amplitude weighting across sensors
        // whose differing densities and vertical FOVs skew amplitudes.
        // Soft binning moves vote mass between adjacent bins under
        // visibility and sub-pixel differences between two views instead
        // of teleporting it, which keeps descriptor distances small for
        // true correspondences across heterogeneous sensors.
        const BinVote& bin = scratch.bins[mim.mim(ix, iy)];
        const OffsetVotes& o = rowVotes[kx];
        for (int v = 0; v < o.count; ++v) {
          const CellVote& vote = o.votes[static_cast<std::size_t>(v)];
          float* cell = desc + vote.cell;
          cell[bin.lo] += vote.weight * bin.loWeight;
          cell[bin.hi] += vote.weight * bin.hiWeight;
        }
      }
    }

    // Hellinger kernel: sqrt-compress then L2-normalize. Dampens the
    // influence of dense structure one sensor happens to sample heavily.
    double norm2 = 0.0;
    for (std::size_t k = 0; k < dim; ++k) {
      desc[k] = std::sqrt(desc[k]);
      norm2 += static_cast<double>(desc[k]) * desc[k];
    }
    if (norm2 <= 0.0) return;  // structure-free patch
    const float inv = static_cast<float>(1.0 / std::sqrt(norm2));
    for (std::size_t k = 0; k < dim; ++k) desc[k] *= inv;
    keep = 1;
  };

  parallelFor(0, static_cast<std::int64_t>(keypoints.size()), 8,
              [&](std::int64_t i0, std::int64_t i1) {
                Scratch scratch;
                for (std::int64_t i = i0; i < i1; ++i) {
                  const auto k = static_cast<std::size_t>(i);
                  extractOne(keypoints[k], rows.data() + k * dim, kept[k],
                             scratch);
                }
              });

  std::size_t n = 0;
  for (const char k : kept) n += static_cast<std::size_t>(k);
  std::vector<Keypoint> keptKeypoints;
  keptKeypoints.reserve(n);
  std::vector<float> block(n * dim);
  for (std::size_t k = 0; k < keypoints.size(); ++k) {
    if (!kept[k]) continue;
    std::copy_n(rows.begin() + static_cast<std::ptrdiff_t>(k * dim), dim,
                block.begin() +
                    static_cast<std::ptrdiff_t>(keptKeypoints.size() * dim));
    keptKeypoints.push_back(keypoints[k]);
  }
  // Rejected: a patch that would leave the image or holds no structure.
  BBA_COUNTER_ADD("descriptor.computed", static_cast<std::int64_t>(n));
  BBA_COUNTER_ADD("descriptor.rejected",
                  static_cast<std::int64_t>(keypoints.size() - n));

  return DescriptorSet(std::move(keptKeypoints), std::move(block), l, no);
}

namespace {

// ---- squared-distance kernels --------------------------------------------
// Fixed 8-virtual-lane blocked reduction: lane l accumulates elements
// i % 8 == l, and the 8 partials collapse with one pairwise tree (hsum8).
// Descriptors are grid*grid*no floats (192 by default), a multiple of 8;
// other sizes take the sequential fallback. The 4-row kernel gives each of
// its 8 pairs its own accumulator with exactly this order and tree, so a
// pair's distance is the same whichever kernel computes it. Each kernel is
// one always-inline body, compiled once for the scalar level and once
// under target("avx2"), where GCC turns the 8 lanes into one register:
// the same operations in the same order, so the two levels agree bit for
// bit. No body fuses a multiply into an add (the library builds with
// -ffp-contract=off): an FMA rounds once where the reference rounds twice.

float hsum8(const float* acc) {
  const float s01 = acc[0] + acc[1];
  const float s23 = acc[2] + acc[3];
  const float s45 = acc[4] + acc[5];
  const float s67 = acc[6] + acc[7];
  return (s01 + s23) + (s45 + s67);
}

float distance2Sequential(const float* a, const float* b, std::size_t n) {
  float s = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    const float d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

[[gnu::always_inline]] inline float distance2Blocked8(const float* a,
                                                      const float* b,
                                                      std::size_t n) {
  float acc[8] = {};
  for (std::size_t i = 0; i < n; i += 8) {
    for (std::size_t l = 0; l < 8; ++l) {
      const float d = a[i + l] - b[i + l];
      acc[l] += d * d;
    }
  }
  return hsum8(acc);
}

[[gnu::always_inline]] inline void distance2Rows4(const float* a,
                                                  const float* f,
                                                  const float* b,
                                                  std::size_t n, float* out) {
  float acc[8][8] = {};
  for (std::size_t i = 0; i < n; i += 8) {
    for (std::size_t r = 0; r < 4; ++r) {
      const float* row = b + r * n + i;
      for (std::size_t l = 0; l < 8; ++l) {
        const float da = a[i + l] - row[l];
        const float df = f[i + l] - row[l];
        acc[r][l] += da * da;
        acc[4 + r][l] += df * df;
      }
    }
  }
  for (int k = 0; k < 8; ++k) out[k] = hsum8(acc[k]);
}

#if defined(BBA_DESC_X86)

__attribute__((target("avx2"))) float distance2Blocked8Avx2(const float* a,
                                                            const float* b,
                                                            std::size_t n) {
  return distance2Blocked8(a, b, n);
}

__attribute__((target("avx2"))) void distance2Rows4Avx2(const float* a,
                                                        const float* f,
                                                        const float* b,
                                                        std::size_t n,
                                                        float* out) {
  distance2Rows4(a, f, b, n, out);
}

#endif  // BBA_DESC_X86

}  // namespace

float descriptorDistance2(std::span<const float> a, std::span<const float> b) {
  BBA_ASSERT(a.size() == b.size());
  const std::size_t n = a.size();
  if (n % 8 == 0 && n > 0) {
#if defined(BBA_DESC_X86)
    if (simdLevel() == SimdLevel::Avx2) {
      return distance2Blocked8Avx2(a.data(), b.data(), n);
    }
#endif
    return distance2Blocked8(a.data(), b.data(), n);
  }
  return distance2Sequential(a.data(), b.data(), n);
}

void descriptorDistance2x4(const float* a, const float* aFlipped,
                           const float* b, std::size_t n, float out[8]) {
  if (n % 8 == 0 && n > 0) {
#if defined(BBA_DESC_X86)
    if (simdLevel() == SimdLevel::Avx2) {
      distance2Rows4Avx2(a, aFlipped, b, n, out);
      return;
    }
#endif
    distance2Rows4(a, aFlipped, b, n, out);
    return;
  }
  for (std::size_t r = 0; r < 4; ++r) {
    out[r] = distance2Sequential(a, b + r * n, n);
    out[4 + r] = distance2Sequential(aFlipped, b + r * n, n);
  }
}

}  // namespace bba
