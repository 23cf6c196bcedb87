#pragma once

#include <cstdint>
#include <random>

namespace bba {

/// Deterministic random number generator used throughout the library.
///
/// Every stochastic component (world generation, sensor noise, detector
/// noise, RANSAC sampling) takes an explicit Rng so experiments are
/// reproducible from a single seed. Wraps std::mt19937_64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0xB0A11CEULL) : engine_(seed) {}

  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  int uniformInt(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }

  /// Gaussian with the given mean and standard deviation.
  double normal(double mean, double stddev) {
    if (stddev <= 0.0) return mean;
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Uniform angle in [-pi, pi).
  double angle();

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// Stateless counter-based RNG substream (SplitMix64 over a hashed
/// (seed, counter) pair).
///
/// Iteration `i` of a parallel loop constructs `CounterRng(seed, i)` and
/// draws from its own stream, so the values it sees are a pure function of
/// (seed, i) — independent of execution order, chunking, and thread count.
/// This is what makes parallel RANSAC select the same model at any
/// `BBA_THREADS` (see DESIGN.md, "Determinism contract").
class CounterRng {
 public:
  CounterRng(std::uint64_t seed, std::uint64_t counter) {
    // Scramble (seed, counter) through the SplitMix64 finalizer so the
    // starting states of adjacent counters land far apart. Seeding
    // affinely (state = seed + counter * gamma) would make stream `it`
    // and stream `it+1` overlap shifted by one draw — correlated
    // minimal samples, weaker RANSAC coverage.
    std::uint64_t z = seed + counter * 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    state_ = z ^ (z >> 31);
  }

  /// Next 64 pseudo-random bits (SplitMix64 step).
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Uniform integer in [lo, hi] (inclusive). The modulo bias is
  /// negligible for the small ranges RANSAC draws (indices of a few
  /// thousand correspondences against a 64-bit stream).
  int uniformInt(int lo, int hi) {
    const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<int>(next() % range);
  }

 private:
  std::uint64_t state_;
};

}  // namespace bba
