#pragma once

#include <complex>
#include <cstddef>
#include <new>
#include <span>
#include <vector>

#include "signal/image.hpp"

namespace bba {

using Complexf = std::complex<float>;

/// Allocator whose blocks start on a 64-byte cache line. A ComplexImage
/// at least 8 pixels wide then starts every row on a line, so the 8-pixel
/// column strips fft2d hands to different threads never share one.
template <typename T>
struct CacheLineAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlign{64};

  CacheLineAllocator() = default;
  template <typename U>
  CacheLineAllocator(const CacheLineAllocator<U>& /*other*/) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, std::size_t /*n*/) noexcept {
    ::operator delete(p, kAlign);
  }
  friend bool operator==(const CacheLineAllocator&,
                         const CacheLineAllocator&) {
    return true;
  }
};

/// Dense complex 2-D spectrum/raster for FFT-based filtering.
class ComplexImage {
 public:
  using Storage = std::vector<Complexf, CacheLineAllocator<Complexf>>;

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

  Storage& data() { return data_; }
  [[nodiscard]] const Storage& data() const { return data_; }

  /// Build a complex image from a real one (imaginary part zero).
  static ComplexImage fromReal(const ImageF& img);

 private:
  int w_ = 0;
  int h_ = 0;
  Storage data_;
};

/// In-place 2-D radix-2 FFT: every row, then every column. Width and
/// height must each be a power of two; an n x 1 image is the 1-D
/// transform. `inverse` applies the conjugate transform and 1/n after
/// each 1-D transform, so the inverse of the forward is the input up to
/// rounding.
///
/// Each pass runs on strips of 8 rows or 8 columns: a strip is gathered
/// into a lane buffer in bit-reversed order, every radix-2 level runs on
/// the 8 lanes in lockstep, and the strip is written back. Twiddles come
/// from a per-size table built with the float recurrence w *= wlen. Each
/// lane computes exactly what a one-line-at-a-time transform computes, in
/// the same order, so results are bit-identical at either SIMD level and
/// any thread count (strips run in parallel; see DESIGN.md).
void fft2d(ComplexImage& img, bool inverse);

/// acc(x, y) += |ifft2d(spectrum * filter)(x, y)| for each filter in
/// turn, the modulus being sqrt(re*re + im*im): one call is the
/// Log-Gabor bank's amplitude for one orientation (Eqs. 8-9). The bytes
/// are those of multiplying the spectrum by the real filter into a
/// ComplexImage, running fft2d(..., true) on it and accumulating the
/// moduli, but the multiply happens in the row pass's gather and the
/// modulus in the column pass's scatter: the only image stored per filter
/// is the row pass's output. Runs on the calling thread.
void accumulateFilteredModuli(const ComplexImage& spectrum,
                              std::span<const ImageF* const> filters,
                              ImageF& acc);

/// True if n is a power of two (and > 0).
[[nodiscard]] constexpr bool isPowerOfTwo(int n) {
  return n > 0 && (n & (n - 1)) == 0;
}

}  // namespace bba
