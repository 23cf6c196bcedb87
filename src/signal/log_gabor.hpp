#pragma once

#include <memory>
#include <vector>

#include "signal/fft.hpp"
#include "signal/image.hpp"

namespace bba {

/// Precomputed frequency-domain Log-Gabor filter bank for a fixed image
/// size (Eqs. 6–9 of the paper; radial profile per Kovesi's log-Gabor
/// formulation referenced by the paper's footnote 2 / ref. [32]). Building
/// the bank is O(N_s * N_o * W * H) and done once; applying it to an image
/// costs one forward FFT plus one inverse FFT per filter.
class LogGaborBank {
 public:
  static constexpr int kNumScales = 4;         ///< N_s in the paper
  static constexpr int kNumOrientations = 12;  ///< N_o in the paper

  /// Build the bank for images of the given power-of-two dimensions.
  LogGaborBank(int width, int height);

  [[nodiscard]] int width() const { return w_; }
  [[nodiscard]] int height() const { return h_; }

  /// Real-valued frequency response of filter (scale s, orientation o).
  [[nodiscard]] const ImageF& filter(int s, int o) const;

  /// Per-orientation amplitude maps of `img`: result[o](x, y) is
  /// A(x, y, o) = sum_s |(img * L_{s,o})(x, y)|   (Eqs. 8–9).
  ///
  /// Filters are one-sided in the frequency domain, so each spatial
  /// response is complex (even + i*odd) and its modulus is the local
  /// energy — robust to the sparse, spiky structure of BV images.
  [[nodiscard]] std::vector<ImageF> orientationAmplitudes(
      const ImageF& img) const;

 private:
  int w_ = 0;
  int h_ = 0;
  std::vector<ImageF> filters_;  // kNumScales * kNumOrientations, s-major
};

/// Process-wide bank cache keyed on (width, height). Building a bank costs hundreds of milliseconds (48 filters of
/// per-pixel transcendentals) and banks are immutable once built, so every
/// BBAlign / PoseTracker / CooperationService session for the same image
/// geometry shares one instance. Thread-safe; a bank under construction is
/// built outside the lock so concurrent misses on *different* keys do not
/// serialize (concurrent misses on the same key may build twice — the
/// first insert wins, which is benign because construction is
/// deterministic). Emits cache.bank_hit / cache.bank_miss counters.
[[nodiscard]] std::shared_ptr<const LogGaborBank> sharedLogGaborBank(
    int width, int height);

}  // namespace bba
