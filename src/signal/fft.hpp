#pragma once

#include <complex>
#include <span>
#include <vector>

#include "signal/image.hpp"

namespace bba {

using Complexf = std::complex<float>;

/// In-place iterative radix-2 Cooley-Tukey FFT. `data.size()` must be a
/// power of two. `inverse` applies the conjugate transform *and* the 1/N
/// normalization, so ifft(fft(x)) == x.
///
/// Twiddle factors come from a per-size cached table built with the exact
/// float recurrence the butterflies would otherwise run inline, and the
/// butterfly kernels are SIMD-dispatched with per-element-independent
/// arithmetic only — results are bit-identical across table/no-table,
/// scalar/AVX2 and any thread count (see DESIGN.md).
void fft1d(std::span<Complexf> data, bool inverse);

/// Dense complex 2-D spectrum/raster for FFT-based filtering.
class ComplexImage {
 public:
  ComplexImage() = default;
  ComplexImage(int width, int height)
      : w_(width), h_(height),
        data_(static_cast<std::size_t>(width) * static_cast<std::size_t>(height)) {}

  [[nodiscard]] int width() const { return w_; }
  [[nodiscard]] int height() const { return h_; }

  Complexf& operator()(int x, int y) {
    return data_[static_cast<std::size_t>(y) * static_cast<std::size_t>(w_) + static_cast<std::size_t>(x)];
  }
  const Complexf& operator()(int x, int y) const {
    return data_[static_cast<std::size_t>(y) * static_cast<std::size_t>(w_) + static_cast<std::size_t>(x)];
  }

  std::vector<Complexf>& data() { return data_; }
  [[nodiscard]] const std::vector<Complexf>& data() const { return data_; }

  /// Build a complex image from a real one (imaginary part zero).
  static ComplexImage fromReal(const ImageF& img);

  /// Modulus of every pixel.
  [[nodiscard]] ImageF magnitude() const;

 private:
  int w_ = 0;
  int h_ = 0;
  std::vector<Complexf> data_;
};

/// In-place 2-D FFT (rows then columns). Width and height must each be a
/// power of two. The column pass runs as transpose -> row FFTs ->
/// transpose for cache locality; rows are processed in parallel (see
/// common/parallel.hpp) with bit-identical results at any thread count.
void fft2d(ComplexImage& img, bool inverse);

/// Element-wise multiply of a complex spectrum by a real filter response
/// into `out`: out[i] = spectrum[i] * filter[i], leaving the spectrum
/// intact for the next filter. `out` is resized to match. The Log-Gabor
/// bank's 48 per-filter passes use this.
void multiplySpectrumInto(const ComplexImage& spectrum, const ImageF& filter,
                          ComplexImage& out);

/// acc[i] += |src[i]| with the modulus computed as sqrt(re*re + im*im)
/// (one correctly-rounded sqrt per element, no libm hypot call).
/// SIMD-dispatched; every lane carries one independent element, so scalar
/// and AVX2 results are bit-identical.
void absAccumulate(const Complexf* src, float* acc, std::size_t n);

/// True if n is a power of two (and > 0).
[[nodiscard]] constexpr bool isPowerOfTwo(int n) {
  return n > 0 && (n & (n - 1)) == 0;
}

}  // namespace bba
