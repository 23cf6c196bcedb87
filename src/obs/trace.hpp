#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace bba::obs {

/// Stage-level tracing: RAII spans exported as Chrome `chrome://tracing`
/// JSON (load the file via the chrome://tracing "Load" button or
/// https://ui.perfetto.dev).
///
/// Cost model (see DESIGN.md):
///  - no recorder installed: one relaxed atomic load and a branch per span;
///  - recorder installed: a steady_clock read on entry/exit plus an append
///    to a per-thread buffer (no locking on the hot path after the first
///    span a thread records).
/// Recording is strictly read-only with respect to the computation: no Rng
/// draws, no data dependence — recovered poses are byte-identical with
/// tracing on or off.

/// One completed span, as exported. `tid` is a small dense index (0 is the
/// first thread that recorded into this recorder). `workerAdopted` marks
/// the synthetic span a pool worker opens to nest its chunks under the
/// parallel region launched on another thread (exported with a " [worker]"
/// name suffix).
struct TraceEvent {
  const char* name = nullptr;  ///< static-storage string (span literal)
  std::int64_t startNs = 0;
  std::int64_t durNs = 0;
  bool workerAdopted = false;
};

/// A resolved copy of one event for programmatic consumers (tests).
struct ExportedEvent {
  std::string name;  ///< includes the " [worker]" suffix where applicable
  int tid = 0;
  std::int64_t startNs = 0;
  std::int64_t durNs = 0;
};

class TraceRecorder {
 public:
  TraceRecorder();
  ~TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Chrome trace JSON: {"traceEvents": [...]} with "X" (complete) events,
  /// one track per recording thread, timestamps in microseconds relative
  /// to the first recorded span.
  void writeJson(std::ostream& os) const;
  [[nodiscard]] std::string toJson() const;
  void writeJsonFile(const std::string& path) const;

  /// All events recorded so far, with resolved names and thread indices.
  [[nodiscard]] std::vector<ExportedEvent> events() const;
  [[nodiscard]] std::size_t eventCount() const;

 private:
  friend class Span;
  friend class WorkerScope;

  struct ThreadBuf;
  struct Impl;

  /// The calling thread's buffer (created on first use; thread-cached).
  ThreadBuf& localBuf();

  Impl* impl_;
};

/// Install `r` as the process-wide recorder (nullptr uninstalls). Not
/// reference counted: keep the recorder alive while installed, and
/// uninstall before destroying it. Spans already open keep recording into
/// the recorder they started with.
void installTraceRecorder(TraceRecorder* r);

/// The installed recorder, or nullptr. One relaxed atomic load.
[[nodiscard]] TraceRecorder* traceRecorder();

/// RAII span. Prefer the BBA_SPAN macro, which compiles out with the
/// observability layer. `name` must have static storage duration.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  TraceRecorder* rec_;
  const char* name_ = nullptr;
  const char* prevActive_ = nullptr;
  std::int64_t start_ = 0;
};

/// Span context captured on the thread that launches a parallel region and
/// adopted by the pool workers that execute its chunks: each worker opens
/// a synthetic span named after the launching thread's innermost active
/// span for the duration of its participation, so spans opened inside
/// chunks nest under the region on every track of the exported trace.
struct ParallelContext {
  TraceRecorder* recorder = nullptr;
  const char* parentSpan = nullptr;
};

/// Capture the calling thread's context (null members when no recorder is
/// installed or no span is active — adoption then degrades to a no-op).
[[nodiscard]] ParallelContext captureParallelContext();

/// RAII adoption of a ParallelContext on a pool worker (see
/// common/parallel.cpp). No-op on a default-constructed context.
class WorkerScope {
 public:
  explicit WorkerScope(const ParallelContext& ctx);
  ~WorkerScope();
  WorkerScope(const WorkerScope&) = delete;
  WorkerScope& operator=(const WorkerScope&) = delete;

 private:
  TraceRecorder* rec_;
  const char* name_ = nullptr;
  const char* prevActive_ = nullptr;
  std::int64_t start_ = 0;
};

}  // namespace bba::obs

#define BBA_OBS_CONCAT2(a, b) a##b
#define BBA_OBS_CONCAT(a, b) BBA_OBS_CONCAT2(a, b)
/// Open a trace span for the rest of the enclosing scope. `name` must be a
/// string literal (or otherwise have static storage duration).
#define BBA_SPAN(name) \
  ::bba::obs::Span BBA_OBS_CONCAT(bbaSpan_, __LINE__)(name)
