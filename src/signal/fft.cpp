#include "signal/fft.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <numbers>
#include <unordered_map>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define BBA_FFT_X86 1
#endif

#include "common/assert.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "obs/trace.hpp"

namespace bba {

namespace {

// ---- per-size tables -----------------------------------------------------

/// Tables of one n-point transform. `fwd` and `inv` hold the twiddle
/// factors of every butterfly level, built with the incremental float
/// recurrence w *= wlen (wlen from double cos/sin cast to float, w
/// restarting at 1 per level), so entry k of a level carries the bits of
/// k steps of that recurrence. Level `len` occupies offset len/2 - 1 with
/// len/2 entries (n - 1 entries total). `rev[k]` is k with its log2(n)
/// bits reversed: a gather writes input k to position rev[k], the
/// permutation the classic in-place swap loop performs.
struct LineTables {
  std::vector<Complexf> fwd;
  std::vector<Complexf> inv;
  std::vector<std::uint32_t> rev;
};

std::vector<Complexf> buildTwiddles(std::size_t n, bool inverse) {
  std::vector<Complexf> table(n - 1);
  const double sign = inverse ? 1.0 : -1.0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = sign * 2.0 * std::numbers::pi / static_cast<double>(len);
    const Complexf wlen(static_cast<float>(std::cos(ang)),
                        static_cast<float>(std::sin(ang)));
    Complexf w(1.0f, 0.0f);
    Complexf* out = table.data() + (len / 2 - 1);
    for (std::size_t k = 0; k < len / 2; ++k) {
      out[k] = w;
      w *= wlen;
    }
  }
  return table;
}

std::vector<std::uint32_t> buildBitReversal(std::size_t n) {
  std::vector<std::uint32_t> rev(n, 0);
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    rev[i] = static_cast<std::uint32_t>(j);
  }
  return rev;
}

std::shared_ptr<const LineTables> lineTables(std::size_t n) {
  static std::mutex mu;
  static std::unordered_map<std::size_t, std::shared_ptr<const LineTables>>
      tables;
  std::lock_guard<std::mutex> lock(mu);
  auto& slot = tables[n];
  if (!slot) {
    auto t = std::make_shared<LineTables>();
    t->fwd = buildTwiddles(n, false);
    t->inv = buildTwiddles(n, true);
    t->rev = buildBitReversal(n);
    slot = std::move(t);
  }
  return slot;
}

/// Everything one direction of n-point 1-D transforms needs.
struct LinePass {
  LinePass(std::size_t length, bool inverse)
      : n(length),
        tables(lineTables(length)),
        rev(tables->rev.data()),
        tw((inverse ? tables->inv : tables->fwd).data()),
        scale(inverse ? 1.0f / static_cast<float>(length) : 1.0f) {}

  std::size_t n;
  std::shared_ptr<const LineTables> tables;
  const std::uint32_t* rev;
  const Complexf* tw;
  /// Applied to every output: 1/n after an inverse, 1.0f after a forward
  /// transform, which leaves each value's bits as they are.
  float scale;
};

// ---- strips --------------------------------------------------------------
// A strip is kLanes rows or kLanes columns of an image, one lane each. Its
// lane buffer holds position p's kLanes values at [p * kLanes,
// (p + 1) * kLanes): one 64-byte cache line per position, and one line per
// image row for a column strip. Every lane runs the radix-2 sequence a
// one-line-at-a-time transform runs, so a lane's bytes depend neither on
// its neighbours nor on the SIMD level or thread that ran the strip. A
// strip narrower than kLanes (an image side below 8) fills its unused
// lanes with zeros and never writes them back.

constexpr int kLanes = 8;
constexpr std::size_t kFloatsPerPosition = 2 * kLanes;

using StripBuffer = ComplexImage::Storage;

/// Frees what CacheLineAllocator<Complexf>::allocate returned.
struct CacheLineDelete {
  void operator()(Complexf* p) const {
    CacheLineAllocator<Complexf>().deallocate(p, 0);
  }
};

/// Row strip: lane l is row l of the `count` rows starting at `src`, each
/// pass.n wide; position rev[k] of lane l gets column k, times `gain`'s
/// matching value when `gain` is given (the std::complex * float product).
void gatherRowsScalar(const Complexf* src, const float* gain,
                      const LinePass& pass, int count, Complexf* buf) {
  const std::size_t n = pass.n;
  if (count < kLanes) std::fill(buf, buf + n * kLanes, Complexf());
  for (int l = 0; l < count; ++l) {
    const Complexf* row = src + static_cast<std::size_t>(l) * n;
    Complexf* lane = buf + l;
    if (gain == nullptr) {
      for (std::size_t k = 0; k < n; ++k) lane[pass.rev[k] * kLanes] = row[k];
    } else {
      const float* g = gain + static_cast<std::size_t>(l) * n;
      for (std::size_t k = 0; k < n; ++k)
        lane[pass.rev[k] * kLanes] = row[k] * g[k];
    }
  }
}

void scatterRowsScalar(const Complexf* buf, const LinePass& pass, int count,
                       Complexf* dst) {
  const std::size_t n = pass.n;
  for (int l = 0; l < count; ++l) {
    Complexf* row = dst + static_cast<std::size_t>(l) * n;
    for (std::size_t k = 0; k < n; ++k)
      row[k] = buf[k * kLanes + l] * pass.scale;
  }
}

#if defined(BBA_FFT_X86)

// Whole strips of rows at least 4 wide. Four columns of eight rows are an
// 8 x 4 block of complex values; two 4 x 4 transposes of 64-bit elements
// (one complex value each) turn it into four positions of eight lanes, and
// back.

__attribute__((target("avx2"), always_inline)) inline void transpose4x4(
    __m256d& x0, __m256d& x1, __m256d& x2, __m256d& x3) {
  const __m256d t0 = _mm256_unpacklo_pd(x0, x1);
  const __m256d t1 = _mm256_unpackhi_pd(x0, x1);
  const __m256d t2 = _mm256_unpacklo_pd(x2, x3);
  const __m256d t3 = _mm256_unpackhi_pd(x2, x3);
  x0 = _mm256_permute2f128_pd(t0, t2, 0x20);
  x1 = _mm256_permute2f128_pd(t1, t3, 0x20);
  x2 = _mm256_permute2f128_pd(t0, t2, 0x31);
  x3 = _mm256_permute2f128_pd(t1, t3, 0x31);
}

__attribute__((target("avx2"))) void gatherRowsAvx2(const Complexf* src,
                                                    const float* gain,
                                                    const LinePass& pass,
                                                    Complexf* buf) {
  const std::size_t n = pass.n;
  const float* in = reinterpret_cast<const float*>(src);
  float* out = reinterpret_cast<float*>(buf);
  // Each gain value twice, for the real and imaginary part it scales.
  const __m256i dup = _mm256_setr_epi32(0, 0, 1, 1, 2, 2, 3, 3);
  for (std::size_t k = 0; k < n; k += 4) {
    __m256d x[kLanes];
    for (int l = 0; l < kLanes; ++l) {
      const std::size_t at = static_cast<std::size_t>(l) * n + k;
      __m256 v = _mm256_loadu_ps(in + 2 * at);
      if (gain != nullptr) {
        const __m256 g = _mm256_permutevar8x32_ps(
            _mm256_castps128_ps256(_mm_loadu_ps(gain + at)), dup);
        v = _mm256_mul_ps(v, g);
      }
      x[l] = _mm256_castps_pd(v);
    }
    transpose4x4(x[0], x[1], x[2], x[3]);
    transpose4x4(x[4], x[5], x[6], x[7]);
    for (std::size_t j = 0; j < 4; ++j) {
      float* position = out + kFloatsPerPosition * pass.rev[k + j];
      _mm256_store_ps(position, _mm256_castpd_ps(x[j]));
      _mm256_store_ps(position + 8, _mm256_castpd_ps(x[4 + j]));
    }
  }
}

__attribute__((target("avx2"))) void scatterRowsAvx2(const Complexf* buf,
                                                     const LinePass& pass,
                                                     Complexf* dst) {
  const std::size_t n = pass.n;
  const float* in = reinterpret_cast<const float*>(buf);
  float* out = reinterpret_cast<float*>(dst);
  const __m256 scale = _mm256_set1_ps(pass.scale);
  for (std::size_t k = 0; k < n; k += 4) {
    for (std::size_t h = 0; h < kLanes; h += 4) {
      __m256d x[4];
      for (std::size_t j = 0; j < 4; ++j) {
        x[j] = _mm256_castps_pd(
            _mm256_load_ps(in + kFloatsPerPosition * (k + j) + 2 * h));
      }
      transpose4x4(x[0], x[1], x[2], x[3]);
      for (std::size_t j = 0; j < 4; ++j) {
        _mm256_storeu_ps(out + 2 * ((h + j) * n + k),
                         _mm256_mul_ps(_mm256_castpd_ps(x[j]), scale));
      }
    }
  }
}

#endif  // BBA_FFT_X86

void gatherRows(const Complexf* src, const float* gain, const LinePass& pass,
                int count, Complexf* buf, SimdLevel level) {
#if defined(BBA_FFT_X86)
  if (level == SimdLevel::Avx2 && count == kLanes && pass.n >= 4) {
    gatherRowsAvx2(src, gain, pass, buf);
    return;
  }
#else
  (void)level;
#endif
  gatherRowsScalar(src, gain, pass, count, buf);
}

void scatterRows(const Complexf* buf, const LinePass& pass, int count,
                 Complexf* dst, SimdLevel level) {
#if defined(BBA_FFT_X86)
  if (level == SimdLevel::Avx2 && count == kLanes && pass.n >= 4) {
    scatterRowsAvx2(buf, pass, dst);
    return;
  }
#else
  (void)level;
#endif
  scatterRowsScalar(buf, pass, count, dst);
}

/// Column strip: lane l is column l of the `count` columns starting at
/// `src` in an image of row stride `stride`; position rev[y] gets row y.
void gatherColumns(const Complexf* src, std::size_t stride,
                   const LinePass& pass, int count, Complexf* buf) {
  const std::size_t n = pass.n;
  if (count < kLanes) std::fill(buf, buf + n * kLanes, Complexf());
  for (std::size_t y = 0; y < n; ++y)
    std::copy_n(src + y * stride, count, buf + pass.rev[y] * kLanes);
}

void scatterColumns(const Complexf* buf, const LinePass& pass, int count,
                    Complexf* dst, std::size_t stride) {
  for (std::size_t y = 0; y < pass.n; ++y) {
    for (int l = 0; l < count; ++l)
      dst[y * stride + l] = buf[y * kLanes + l] * pass.scale;
  }
}

// ---- lane kernel: every radix-2 level of a bit-reversed strip ------------
// Level `half` pairs positions (a, b) = (i + k, i + k + half) of each block
// i of 2 * half positions with twiddle k of the level: v = b * t, then
// a = a + v and b = a - v. Both kernels run a transform with an odd level
// count's first level alone, then two levels per sweep over the four
// positions i + k + j * half (j < 4): pairs (0, 1) and (2, 3) of level
// `half`, then (0, 2) and (1, 3) of level 2 * half. Every butterfly sees
// exactly the inputs it sees level by level. The complex product is the
// (re*tr - im*ti, re*ti + im*tr) mul/add sequence the scalar std::complex
// operator* emits for finite values, never fused into an FMA (the scalar
// baseline has none to contract into).

/// One butterfly on every lane of positions a and b; t is (tr, ti).
void butterflyScalar(float* a, float* b, const float* t) {
  const float tr = t[0];
  const float ti = t[1];
  for (std::size_t l = 0; l < kFloatsPerPosition; l += 2) {
    const float vr = b[l] * tr - b[l + 1] * ti;
    const float vi = b[l] * ti + b[l + 1] * tr;
    const float ur = a[l];
    const float ui = a[l + 1];
    a[l] = ur + vr;
    a[l + 1] = ui + vi;
    b[l] = ur - vr;
    b[l + 1] = ui - vi;
  }
}

/// True when a transform of n points has an odd number of levels.
bool oddLevelCount(std::size_t n) { return (std::countr_zero(n) & 1) != 0; }

void butterfliesScalar(Complexf* buf, const LinePass& pass) {
  float* f = reinterpret_cast<float*>(buf);
  const float* t = reinterpret_cast<const float*>(pass.tw);
  const std::size_t n = pass.n;
  constexpr std::size_t kPos = kFloatsPerPosition;
  std::size_t half = 1;
  if (oddLevelCount(n)) {
    for (std::size_t i = 0; i < n; i += 2)
      butterflyScalar(f + kPos * i, f + kPos * (i + 1), t);
    half = 2;
  }
  for (; half < n; half <<= 2) {
    const float* tw1 = t + 2 * (half - 1);
    const float* tw2 = t + 2 * (2 * half - 1);
    for (std::size_t k = 0; k < half; ++k) {
      for (std::size_t i = k; i < n; i += 4 * half) {
        float* p0 = f + kPos * i;
        float* p1 = p0 + kPos * half;
        float* p2 = p1 + kPos * half;
        float* p3 = p2 + kPos * half;
        butterflyScalar(p0, p1, tw1 + 2 * k);
        butterflyScalar(p2, p3, tw1 + 2 * k);
        butterflyScalar(p0, p2, tw2 + 2 * k);
        butterflyScalar(p1, p3, tw2 + 2 * (k + half));
      }
    }
  }
}

#if defined(BBA_FFT_X86)

/// One butterfly on four interleaved (re, im) lanes held in registers.
/// addsub's even lanes subtract and its odd lanes add, giving
/// re*tr - im*ti and im*tr + re*ti (the scalar imaginary sum with its
/// operands swapped, which addition does not notice).
__attribute__((target("avx2"), always_inline)) inline void butterflyAvx2(
    __m256& a, __m256& b, __m256 tr, __m256 ti) {
  const __m256 bs = _mm256_permute_ps(b, _MM_SHUFFLE(2, 3, 0, 1));
  const __m256 v =
      _mm256_addsub_ps(_mm256_mul_ps(b, tr), _mm256_mul_ps(bs, ti));
  b = _mm256_sub_ps(a, v);
  a = _mm256_add_ps(a, v);
}

/// The scalar kernel's sweeps, four lanes per register; a two-level sweep
/// keeps its four positions in registers between its two levels.
__attribute__((target("avx2"))) void butterfliesAvx2(Complexf* buf,
                                                     const LinePass& pass) {
  float* f = reinterpret_cast<float*>(buf);
  const float* t = reinterpret_cast<const float*>(pass.tw);
  const std::size_t n = pass.n;
  constexpr std::size_t kPos = kFloatsPerPosition;
  std::size_t half = 1;
  if (oddLevelCount(n)) {
    const __m256 tr = _mm256_broadcast_ss(t);
    const __m256 ti = _mm256_broadcast_ss(t + 1);
    for (std::size_t i = 0; i < n; i += 2) {
      float* p = f + kPos * i;
      for (std::size_t l = 0; l < kPos; l += 8) {
        __m256 a = _mm256_load_ps(p + l);
        __m256 b = _mm256_load_ps(p + kPos + l);
        butterflyAvx2(a, b, tr, ti);
        _mm256_store_ps(p + l, a);
        _mm256_store_ps(p + kPos + l, b);
      }
    }
    half = 2;
  }
  for (; half < n; half <<= 2) {
    const float* tw1 = t + 2 * (half - 1);
    const float* tw2 = t + 2 * (2 * half - 1);
    for (std::size_t k = 0; k < half; ++k) {
      const __m256 t1r = _mm256_broadcast_ss(tw1 + 2 * k);
      const __m256 t1i = _mm256_broadcast_ss(tw1 + 2 * k + 1);
      const __m256 t2r = _mm256_broadcast_ss(tw2 + 2 * k);
      const __m256 t2i = _mm256_broadcast_ss(tw2 + 2 * k + 1);
      const __m256 t3r = _mm256_broadcast_ss(tw2 + 2 * (k + half));
      const __m256 t3i = _mm256_broadcast_ss(tw2 + 2 * (k + half) + 1);
      for (std::size_t i = k; i < n; i += 4 * half) {
        float* p0 = f + kPos * i;
        float* p1 = p0 + kPos * half;
        float* p2 = p1 + kPos * half;
        float* p3 = p2 + kPos * half;
        for (std::size_t l = 0; l < kPos; l += 8) {
          __m256 x0 = _mm256_load_ps(p0 + l);
          __m256 x1 = _mm256_load_ps(p1 + l);
          __m256 x2 = _mm256_load_ps(p2 + l);
          __m256 x3 = _mm256_load_ps(p3 + l);
          butterflyAvx2(x0, x1, t1r, t1i);
          butterflyAvx2(x2, x3, t1r, t1i);
          butterflyAvx2(x0, x2, t2r, t2i);
          butterflyAvx2(x1, x3, t3r, t3i);
          _mm256_store_ps(p0 + l, x0);
          _mm256_store_ps(p1 + l, x1);
          _mm256_store_ps(p2 + l, x2);
          _mm256_store_ps(p3 + l, x3);
        }
      }
    }
  }
}

#endif  // BBA_FFT_X86

void butterflies(Complexf* buf, const LinePass& pass, SimdLevel level) {
#if defined(BBA_FFT_X86)
  if (level == SimdLevel::Avx2) {
    butterfliesAvx2(buf, pass);
    return;
  }
#else
  (void)level;
#endif
  butterfliesScalar(buf, pass);
}

// ---- column scatter into a modulus sum -----------------------------------
// acc[y * stride + l] += sqrt(re^2 + im^2) of position y, lane l, after the
// pass's scale. Fixed per-element op order (scale, re*re, im*im, add,
// sqrt, accumulate) in both paths; sqrtps and sqrtss are both correctly
// rounded, so the levels agree bit-for-bit.

void accumulateModuliScalar(const Complexf* buf, const LinePass& pass,
                            int count, float* acc, std::size_t stride) {
  for (std::size_t y = 0; y < pass.n; ++y) {
    for (int l = 0; l < count; ++l) {
      const Complexf c = buf[y * kLanes + l] * pass.scale;
      const float re = c.real();
      const float im = c.imag();
      acc[y * stride + l] += std::sqrt(re * re + im * im);
    }
  }
}

#if defined(BBA_FFT_X86)

/// Whole strips only.
__attribute__((target("avx2"))) void accumulateModuliAvx2(
    const Complexf* buf, const LinePass& pass, float* acc,
    std::size_t stride) {
  const float* f = reinterpret_cast<const float*>(buf);
  const __m256 scale = _mm256_set1_ps(pass.scale);
  for (std::size_t y = 0; y < pass.n; ++y) {
    const float* position = f + kFloatsPerPosition * y;
    const __m256 a = _mm256_mul_ps(_mm256_load_ps(position), scale);
    const __m256 b = _mm256_mul_ps(_mm256_load_ps(position + 8), scale);
    // Per-128-lane shuffles produce [r0 r1 r4 r5 | r2 r3 r6 r7]; a 64-bit
    // permute restores natural order before accumulating.
    const __m256 re = _mm256_shuffle_ps(a, b, _MM_SHUFFLE(2, 0, 2, 0));
    const __m256 im = _mm256_shuffle_ps(a, b, _MM_SHUFFLE(3, 1, 3, 1));
    const __m256 magp = _mm256_sqrt_ps(
        _mm256_add_ps(_mm256_mul_ps(re, re), _mm256_mul_ps(im, im)));
    const __m256 mag = _mm256_castpd_ps(_mm256_permute4x64_pd(
        _mm256_castps_pd(magp), _MM_SHUFFLE(3, 1, 2, 0)));
    float* out = acc + y * stride;
    _mm256_storeu_ps(out, _mm256_add_ps(_mm256_loadu_ps(out), mag));
  }
}

#endif  // BBA_FFT_X86

void accumulateModuli(const Complexf* buf, const LinePass& pass, int count,
                      float* acc, std::size_t stride, SimdLevel level) {
#if defined(BBA_FFT_X86)
  if (level == SimdLevel::Avx2 && count == kLanes) {
    accumulateModuliAvx2(buf, pass, acc, stride);
    return;
  }
#else
  (void)level;
#endif
  accumulateModuliScalar(buf, pass, count, acc, stride);
}

/// Strips per parallel chunk: about 4096 pixels, a pure function of the
/// line length.
std::int64_t stripGrain(std::size_t n) {
  return std::max<std::int64_t>(
      1, 4096 / static_cast<std::int64_t>(n * kLanes));
}

std::int64_t stripCount(int lines) { return (lines + kLanes - 1) / kLanes; }

}  // namespace

ComplexImage ComplexImage::fromReal(const ImageF& img) {
  ComplexImage out(img.width(), img.height());
  const auto& src = img.data();
  auto& dst = out.data();
  for (std::size_t i = 0; i < src.size(); ++i) dst[i] = Complexf(src[i], 0.0f);
  return out;
}

void fft2d(ComplexImage& img, bool inverse) {
  BBA_SPAN("fft2d");
  const int w = img.width();
  const int h = img.height();
  BBA_ASSERT_MSG(isPowerOfTwo(w) && isPowerOfTwo(h),
                 "fft2d requires power-of-two dimensions");
  const std::size_t stride = static_cast<std::size_t>(w);
  const LinePass rowPass(stride, inverse);
  const LinePass colPass(static_cast<std::size_t>(h), inverse);
  const SimdLevel level = simdLevel();
  Complexf* data = img.data().data();

  // Each chunk owns its strips' rows (then columns) outright.
  parallelFor(0, stripCount(h), stripGrain(rowPass.n),
              [&](std::int64_t s0, std::int64_t s1) {
                StripBuffer buf(rowPass.n * kLanes);
                for (std::int64_t s = s0; s < s1; ++s) {
                  const int y0 = static_cast<int>(s) * kLanes;
                  const int count = std::min(kLanes, h - y0);
                  Complexf* rows = data + static_cast<std::size_t>(y0) * stride;
                  gatherRows(rows, nullptr, rowPass, count, buf.data(), level);
                  butterflies(buf.data(), rowPass, level);
                  scatterRows(buf.data(), rowPass, count, rows, level);
                }
              });
  parallelFor(0, stripCount(w), stripGrain(colPass.n),
              [&](std::int64_t s0, std::int64_t s1) {
                StripBuffer buf(colPass.n * kLanes);
                for (std::int64_t s = s0; s < s1; ++s) {
                  const int x0 = static_cast<int>(s) * kLanes;
                  const int count = std::min(kLanes, w - x0);
                  Complexf* cols = data + x0;
                  gatherColumns(cols, stride, colPass, count, buf.data());
                  butterflies(buf.data(), colPass, level);
                  scatterColumns(buf.data(), colPass, count, cols, stride);
                }
              });
}

void accumulateFilteredModuli(const ComplexImage& spectrum,
                              std::span<const ImageF* const> filters,
                              ImageF& acc) {
  const int w = spectrum.width();
  const int h = spectrum.height();
  BBA_ASSERT_MSG(isPowerOfTwo(w) && isPowerOfTwo(h),
                 "accumulateFilteredModuli requires power-of-two dimensions");
  BBA_ASSERT_MSG(acc.width() == w && acc.height() == h,
                 "accumulator and spectrum dimensions must match");
  const std::size_t stride = static_cast<std::size_t>(w);
  const LinePass rowPass(stride, /*inverse=*/true);
  const LinePass colPass(static_cast<std::size_t>(h), /*inverse=*/true);
  const SimdLevel level = simdLevel();

  // One filter's row-pass output. Left unconstructed, since Complexf's
  // constructor zero-fills and the row pass writes every pixel before the
  // column pass reads one; Complexf is an implicit-lifetime type, so the
  // allocation itself provides the objects.
  const std::unique_ptr<Complexf[], CacheLineDelete> rows(
      CacheLineAllocator<Complexf>().allocate(
          stride * static_cast<std::size_t>(h)));
  StripBuffer rowBuf(rowPass.n * kLanes);
  StripBuffer colBuf(colPass.n * kLanes);
  for (const ImageF* filter : filters) {
    BBA_ASSERT_MSG(filter->width() == w && filter->height() == h,
                   "spectrum and filter dimensions must match");
    for (int y0 = 0; y0 < h; y0 += kLanes) {
      const int count = std::min(kLanes, h - y0);
      gatherRows(&spectrum(0, y0), &(*filter)(0, y0), rowPass, count,
                 rowBuf.data(), level);
      butterflies(rowBuf.data(), rowPass, level);
      scatterRows(rowBuf.data(), rowPass, count,
                  rows.get() + static_cast<std::size_t>(y0) * stride, level);
    }
    for (int x0 = 0; x0 < w; x0 += kLanes) {
      const int count = std::min(kLanes, w - x0);
      gatherColumns(rows.get() + x0, stride, colPass, count, colBuf.data());
      butterflies(colBuf.data(), colPass, level);
      accumulateModuli(colBuf.data(), colPass, count, &acc(x0, 0), stride,
                       level);
    }
  }
}

}  // namespace bba
