#include "signal/fft.hpp"

#include <algorithm>
#include <cmath>
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

// ---- twiddle tables ------------------------------------------------------

/// Per-size twiddle factors for every butterfly level, built with the
/// exact incremental float recurrence (w *= wlen, wlen from double
/// cos/sin cast to float) the butterflies historically ran inline — each
/// table entry carries the same bits that recurrence produced at the same
/// step, so reading the table changes nothing numerically while breaking
/// the serial multiply chain out of the hot loop. Level `len` occupies
/// offset len/2 - 1 with len/2 entries (n - 1 entries total).
struct TwiddleTables {
  std::vector<Complexf> fwd;
  std::vector<Complexf> inv;
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

std::shared_ptr<const TwiddleTables> twiddleTables(std::size_t n) {
  // One lookup per fft1d call; a thread-local pointer to the last-used
  // size skips the shared map (and its mutex) on the streak of same-size
  // rows every 2-D pass produces.
  thread_local std::size_t cachedN = 0;
  thread_local std::shared_ptr<const TwiddleTables> cached;
  if (cachedN == n && cached) return cached;

  static std::mutex mu;
  static std::unordered_map<std::size_t,
                            std::shared_ptr<const TwiddleTables>>
      tables;
  std::shared_ptr<const TwiddleTables> result;
  {
    std::lock_guard<std::mutex> lock(mu);
    auto& slot = tables[n];
    if (!slot) {
      auto t = std::make_shared<TwiddleTables>();
      t->fwd = buildTwiddles(n, false);
      t->inv = buildTwiddles(n, true);
      slot = std::move(t);
    }
    result = slot;
  }
  cachedN = n;
  cached = result;
  return result;
}

// ---- butterfly kernels ---------------------------------------------------
// One merge block: for k < m, with u = a[k] and v = b[k] * tw[k], write
// a[k] = u + v and b[k] = u - v. The AVX2 path computes the complex
// product with the same (ac - bd, ad + bc) mul/add float sequence the
// scalar std::complex operator* emits for finite values, never FMA (the
// scalar baseline has none to contract into), and every lane carries one
// independent element — so scalar and AVX2 are bit-identical on the
// finite data FFTs produce.

void butterflyScalar(Complexf* a, Complexf* b, const Complexf* tw,
                     std::size_t m) {
  for (std::size_t k = 0; k < m; ++k) {
    const Complexf u = a[k];
    const Complexf v = b[k] * tw[k];
    a[k] = u + v;
    b[k] = u - v;
  }
}

#if defined(BBA_FFT_X86)

/// Merges every whole 4- and 2-element group and returns how many elements
/// it merged; butterfly() finishes the rest in scalar. Inlined here, the
/// scalar complex multiply's __mulsc3 fallback would make GCC realign the
/// stack in this kernel's prologue, a cost each of a 256-point transform's
/// 127 calls would pay.
__attribute__((target("avx2"))) std::size_t butterflyAvx2(
    Complexf* a, Complexf* b, const Complexf* tw, std::size_t m) {
  float* af = reinterpret_cast<float*>(a);
  float* bf = reinterpret_cast<float*>(b);
  const float* tf = reinterpret_cast<const float*>(tw);
  // -0.0f in the even (real-part) lanes: xor negates them, turning the
  // final add into the sub the scalar formula performs (x + (-y) == x - y
  // exactly in IEEE arithmetic).
  const __m256 signEven =
      _mm256_set_ps(0.0f, -0.0f, 0.0f, -0.0f, 0.0f, -0.0f, 0.0f, -0.0f);
  std::size_t k = 0;
  for (; k + 4 <= m; k += 4) {
    const __m256 bv = _mm256_loadu_ps(bf + 2 * k);
    const __m256 tv = _mm256_loadu_ps(tf + 2 * k);
    const __m256 br = _mm256_shuffle_ps(bv, bv, _MM_SHUFFLE(2, 2, 0, 0));
    const __m256 bi = _mm256_shuffle_ps(bv, bv, _MM_SHUFFLE(3, 3, 1, 1));
    const __m256 ts = _mm256_shuffle_ps(tv, tv, _MM_SHUFFLE(2, 3, 0, 1));
    const __m256 p1 = _mm256_mul_ps(br, tv);
    const __m256 p2 = _mm256_mul_ps(bi, ts);
    const __m256 v = _mm256_add_ps(p1, _mm256_xor_ps(p2, signEven));
    const __m256 u = _mm256_loadu_ps(af + 2 * k);
    _mm256_storeu_ps(af + 2 * k, _mm256_add_ps(u, v));
    _mm256_storeu_ps(bf + 2 * k, _mm256_sub_ps(u, v));
  }
  // One 128-bit step for a two-element rest: every transform's len-4
  // level (m == 2) runs here, too narrow for the 256-bit loop.
  if (k + 2 <= m) {
    const __m128 bv = _mm_loadu_ps(bf + 2 * k);
    const __m128 tv = _mm_loadu_ps(tf + 2 * k);
    const __m128 br = _mm_shuffle_ps(bv, bv, _MM_SHUFFLE(2, 2, 0, 0));
    const __m128 bi = _mm_shuffle_ps(bv, bv, _MM_SHUFFLE(3, 3, 1, 1));
    const __m128 ts = _mm_shuffle_ps(tv, tv, _MM_SHUFFLE(2, 3, 0, 1));
    const __m128 p1 = _mm_mul_ps(br, tv);
    const __m128 p2 = _mm_mul_ps(bi, ts);
    const __m128 v =
        _mm_add_ps(p1, _mm_xor_ps(p2, _mm256_castps256_ps128(signEven)));
    const __m128 u = _mm_loadu_ps(af + 2 * k);
    _mm_storeu_ps(af + 2 * k, _mm_add_ps(u, v));
    _mm_storeu_ps(bf + 2 * k, _mm_sub_ps(u, v));
    k += 2;
  }
  return k;
}

#endif  // BBA_FFT_X86

void butterfly(Complexf* a, Complexf* b, const Complexf* tw, std::size_t m,
               SimdLevel level) {
  std::size_t k = 0;
#if defined(BBA_FFT_X86)
  if (level == SimdLevel::Avx2 && m >= 2) k = butterflyAvx2(a, b, tw, m);
#else
  (void)level;
#endif
  butterflyScalar(a + k, b + k, tw + k, m - k);
}

// ---- uniform complex scale (the inverse transform's 1/N) -----------------

void scaleScalar(Complexf* d, std::size_t n, float s) {
  for (std::size_t i = 0; i < n; ++i) d[i] *= s;
}

#if defined(BBA_FFT_X86)

__attribute__((target("avx2"))) void scaleAvx2(Complexf* d, std::size_t n,
                                               float s) {
  float* f = reinterpret_cast<float*>(d);
  const __m256 sv = _mm256_set1_ps(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_ps(f + 2 * i, _mm256_mul_ps(_mm256_loadu_ps(f + 2 * i), sv));
  }
  if (i < n) scaleScalar(d + i, n - i, s);
}

#endif  // BBA_FFT_X86

void scale(Complexf* d, std::size_t n, float s, SimdLevel level) {
#if defined(BBA_FFT_X86)
  if (level == SimdLevel::Avx2 && n >= 4) {
    scaleAvx2(d, n, s);
    return;
  }
#else
  (void)level;
#endif
  scaleScalar(d, n, s);
}

// ---- fused spectrum * real-filter multiply -------------------------------
// out[i] = s[i] * f[i]: both components scaled by the same float, exactly
// the products std::complex operator*=(float) performs.

void mulSpectrumScalar(const Complexf* s, const float* f, Complexf* out,
                       std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = s[i] * f[i];
}

#if defined(BBA_FFT_X86)

__attribute__((target("avx2"))) void mulSpectrumAvx2(const Complexf* s,
                                                     const float* f,
                                                     Complexf* out,
                                                     std::size_t n) {
  const float* sf = reinterpret_cast<const float*>(s);
  float* of = reinterpret_cast<float*>(out);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 fv = _mm256_loadu_ps(f + i);
    // unpack duplicates within each 128-bit lane; permute2f128 re-orders
    // the lanes so the duplicated filter values line up with the
    // interleaved complex pairs.
    const __m256 flo = _mm256_unpacklo_ps(fv, fv);  // [f0011 | f4455]
    const __m256 fhi = _mm256_unpackhi_ps(fv, fv);  // [f2233 | f6677]
    const __m256 fa = _mm256_permute2f128_ps(flo, fhi, 0x20);  // [f0011|f2233]
    const __m256 fb = _mm256_permute2f128_ps(flo, fhi, 0x31);  // [f4455|f6677]
    _mm256_storeu_ps(of + 2 * i,
                     _mm256_mul_ps(_mm256_loadu_ps(sf + 2 * i), fa));
    _mm256_storeu_ps(of + 2 * i + 8,
                     _mm256_mul_ps(_mm256_loadu_ps(sf + 2 * i + 8), fb));
  }
  if (i < n) mulSpectrumScalar(s + i, f + i, out + i, n - i);
}

#endif  // BBA_FFT_X86

void mulSpectrum(const Complexf* s, const float* f, Complexf* out,
                 std::size_t n, SimdLevel level) {
#if defined(BBA_FFT_X86)
  if (level == SimdLevel::Avx2 && n >= 8) {
    mulSpectrumAvx2(s, f, out, n);
    return;
  }
#else
  (void)level;
#endif
  mulSpectrumScalar(s, f, out, n);
}

// ---- modulus accumulation ------------------------------------------------
// acc[i] += sqrt(re^2 + im^2). Fixed per-element op order (re*re, im*im,
// add, sqrt, accumulate) in both paths; sqrtps and sqrtss are both
// correctly rounded, so the levels agree bit-for-bit.

void absAccumulateScalar(const Complexf* src, float* acc, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const float re = src[i].real();
    const float im = src[i].imag();
    acc[i] += std::sqrt(re * re + im * im);
  }
}

#if defined(BBA_FFT_X86)

__attribute__((target("avx2"))) void absAccumulateAvx2(const Complexf* src,
                                                       float* acc,
                                                       std::size_t n) {
  const float* sf = reinterpret_cast<const float*>(src);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 a = _mm256_loadu_ps(sf + 2 * i);
    const __m256 b = _mm256_loadu_ps(sf + 2 * i + 8);
    // Per-128-lane shuffles produce [r0 r1 r4 r5 | r2 r3 r6 r7]; a 64-bit
    // permute restores natural order before accumulating.
    const __m256 rep = _mm256_shuffle_ps(a, b, _MM_SHUFFLE(2, 0, 2, 0));
    const __m256 imp = _mm256_shuffle_ps(a, b, _MM_SHUFFLE(3, 1, 3, 1));
    const __m256 magp = _mm256_sqrt_ps(
        _mm256_add_ps(_mm256_mul_ps(rep, rep), _mm256_mul_ps(imp, imp)));
    const __m256 mag = _mm256_castpd_ps(_mm256_permute4x64_pd(
        _mm256_castps_pd(magp), _MM_SHUFFLE(3, 1, 2, 0)));
    _mm256_storeu_ps(acc + i, _mm256_add_ps(_mm256_loadu_ps(acc + i), mag));
  }
  if (i < n) absAccumulateScalar(src + i, acc + i, n - i);
}

#endif  // BBA_FFT_X86

}  // namespace

void absAccumulate(const Complexf* src, float* acc, std::size_t n) {
#if defined(BBA_FFT_X86)
  if (simdLevel() == SimdLevel::Avx2 && n >= 8) {
    absAccumulateAvx2(src, acc, n);
    return;
  }
#endif
  absAccumulateScalar(src, acc, n);
}

void fft1d(std::span<Complexf> data, bool inverse) {
  const std::size_t n = data.size();
  BBA_ASSERT_MSG(isPowerOfTwo(static_cast<int>(n)),
                 "fft1d requires power-of-two length");
  if (n == 1) return;

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }

  const std::shared_ptr<const TwiddleTables> tables = twiddleTables(n);
  const std::vector<Complexf>& tw = inverse ? tables->inv : tables->fwd;
  const SimdLevel level = simdLevel();
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const Complexf* twl = tw.data() + (half - 1);
    for (std::size_t i = 0; i < n; i += len) {
      butterfly(data.data() + i, data.data() + i + half, twl, half, level);
    }
  }

  if (inverse) scale(data.data(), n, 1.0f / static_cast<float>(n), level);
}

ComplexImage ComplexImage::fromReal(const ImageF& img) {
  ComplexImage out(img.width(), img.height());
  const auto& src = img.data();
  auto& dst = out.data();
  for (std::size_t i = 0; i < src.size(); ++i) dst[i] = Complexf(src[i], 0.0f);
  return out;
}

ImageF ComplexImage::magnitude() const {
  ImageF out(w_, h_);
  auto& dst = out.data();
  for (std::size_t i = 0; i < data_.size(); ++i) dst[i] = std::abs(data_[i]);
  return out;
}

namespace {

/// Blocked out-of-place full transpose: dst(y, x) = src(x, y). Parallel
/// over block rows; every destination element is written by exactly one
/// chunk.
void transpose(const ComplexImage& src, ComplexImage& dst) {
  const int w = src.width();
  const int h = src.height();
  constexpr int kBlock = 32;
  const std::int64_t blockRows = (w + kBlock - 1) / kBlock;
  parallelFor(0, blockRows, 1, [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t br = b0; br < b1; ++br) {
      const int x0 = static_cast<int>(br) * kBlock;
      const int x1 = std::min(w, x0 + kBlock);
      for (int y0 = 0; y0 < h; y0 += kBlock) {
        const int y1 = std::min(h, y0 + kBlock);
        for (int x = x0; x < x1; ++x) {
          for (int y = y0; y < y1; ++y) dst(y, x) = src(x, y);
        }
      }
    }
  });
}

/// Independent per-row FFTs over a contiguous-row image, in parallel.
void fftRows(ComplexImage& img, bool inverse) {
  const int w = img.width();
  const int h = img.height();
  const std::int64_t grain = std::max<std::int64_t>(1, 4096 / std::max(w, 1));
  parallelFor(0, h, grain, [&](std::int64_t y0, std::int64_t y1) {
    for (std::int64_t y = y0; y < y1; ++y) {
      fft1d(std::span<Complexf>(&img(0, static_cast<int>(y)),
                                static_cast<std::size_t>(w)),
            inverse);
    }
  });
}

}  // namespace

void fft2d(ComplexImage& img, bool inverse) {
  BBA_SPAN("fft2d");
  const int w = img.width();
  const int h = img.height();
  BBA_ASSERT_MSG(isPowerOfTwo(w) && isPowerOfTwo(h),
                 "fft2d requires power-of-two dimensions");

  // Row pass in place, then the column pass as transpose -> row FFTs ->
  // transpose: the strided column walk of the naive scheme misses cache on
  // every element, the transposed walk is sequential.
  fftRows(img, inverse);
  ComplexImage t(h, w);
  transpose(img, t);
  fftRows(t, inverse);
  transpose(t, img);
}

void multiplySpectrumInto(const ComplexImage& spectrum, const ImageF& filter,
                          ComplexImage& out) {
  BBA_ASSERT_MSG(spectrum.width() == filter.width() &&
                     spectrum.height() == filter.height(),
                 "spectrum and filter dimensions must match");
  if (out.width() != spectrum.width() || out.height() != spectrum.height()) {
    out = ComplexImage(spectrum.width(), spectrum.height());
  }
  mulSpectrum(spectrum.data().data(), filter.data().data(), out.data().data(),
              spectrum.data().size(), simdLevel());
}

}  // namespace bba
