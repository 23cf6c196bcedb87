#pragma once

#include <memory>
#include <string>

#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace bba::obs {

/// Environment-driven observability for tools and benches: when
/// `BBA_TRACE_OUT` / `BBA_METRICS_OUT` name output paths, the constructor
/// installs a TraceRecorder / MetricsRegistry, and the destructor writes
/// the Chrome-trace / metrics JSON there and uninstalls. With neither
/// variable set this is inert.
///
///   BBA_TRACE_OUT=trace.json BBA_METRICS_OUT=metrics.json
///     ./build/examples/example_cooperative_detection 3
class EnvObservability {
 public:
  EnvObservability();
  ~EnvObservability();
  EnvObservability(const EnvObservability&) = delete;
  EnvObservability& operator=(const EnvObservability&) = delete;

  [[nodiscard]] TraceRecorder* trace() { return trace_.get(); }
  [[nodiscard]] MetricsRegistry* metrics() { return metrics_.get(); }

 private:
  std::unique_ptr<TraceRecorder> trace_;
  std::unique_ptr<MetricsRegistry> metrics_;
  std::string tracePath_;
  std::string metricsPath_;
};

}  // namespace bba::obs
