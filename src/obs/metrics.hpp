#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace bba::obs {

/// Named counters / gauges / histograms with JSON export.
///
/// Same cost model as tracing (see trace.hpp): the BBA_COUNTER_ADD /
/// BBA_GAUGE_SET / BBA_HISTOGRAM_OBSERVE macros cost a relaxed atomic load
/// plus branch when no registry is installed, and metric arguments are
/// evaluated only when one is — never put side effects in them.
///
/// Determinism: counters are integer atomics, so their final value is
/// independent of thread interleaving. Histograms guard their state with a
/// mutex; counts, min, max and bucket tallies are interleaving-independent,
/// while the floating-point `sum` may differ in the last ulp across runs
/// when observations race (BB-Align only observes from serial code).

/// Monotonic integer counter.
class Counter {
 public:
  void add(std::int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  void increment() { add(1); }
  [[nodiscard]] std::int64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Last-written double value.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0.0};
};

/// Summary histogram: count / sum / min / max plus power-of-two buckets.
/// Bucket i counts observations v with upperBound(i-1) < v <= upperBound(i)
/// where the bounds run 2^-10 … 2^20 (bucket 0 additionally absorbs
/// everything <= 2^-10, the last bucket everything larger).
class Histogram {
 public:
  static constexpr int kBuckets = 31;
  /// Inclusive upper bound of bucket i: 2^(i-10).
  [[nodiscard]] static double upperBound(int i);
  [[nodiscard]] static int bucketIndex(double v);

  void observe(double v);

  [[nodiscard]] std::int64_t count() const;
  [[nodiscard]] double sum() const;
  [[nodiscard]] double min() const;  ///< 0 when empty
  [[nodiscard]] double max() const;  ///< 0 when empty
  [[nodiscard]] std::int64_t bucketCount(int i) const;

 private:
  friend class MetricsRegistry;
  mutable std::mutex m_;
  std::int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::array<std::int64_t, kBuckets> buckets_{};
};

/// Registry of named metrics. Lookup interns the name on first use and
/// returns a reference that stays valid for the registry's lifetime, so
/// hot paths may cache it. Thread safe.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// {"counters":{...},"gauges":{...},"histograms":{...}} with keys in
  /// lexicographic order (the export is deterministic given deterministic
  /// metric values).
  void writeJson(std::ostream& os) const;
  [[nodiscard]] std::string toJson() const;
  void writeJsonFile(const std::string& path) const;

 private:
  mutable std::mutex m_;
  // node-based maps: references handed out never move.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Install `r` as the process-wide registry (nullptr uninstalls). Same
/// lifetime contract as installTraceRecorder.
void installMetricsRegistry(MetricsRegistry* r);

/// The installed registry, or nullptr. One relaxed atomic load.
[[nodiscard]] MetricsRegistry* metricsRegistry();

}  // namespace bba::obs

#define BBA_COUNTER_ADD(name, n)                                    \
  do {                                                              \
    if (::bba::obs::MetricsRegistry* bbaReg =                       \
            ::bba::obs::metricsRegistry())                          \
      bbaReg->counter(name).add(n);                                 \
  } while (false)
#define BBA_GAUGE_SET(name, v)                                      \
  do {                                                              \
    if (::bba::obs::MetricsRegistry* bbaReg =                       \
            ::bba::obs::metricsRegistry())                          \
      bbaReg->gauge(name).set(v);                                   \
  } while (false)
#define BBA_HISTOGRAM_OBSERVE(name, v)                              \
  do {                                                              \
    if (::bba::obs::MetricsRegistry* bbaReg =                       \
            ::bba::obs::metricsRegistry())                          \
      bbaReg->histogram(name).observe(v);                           \
  } while (false)
