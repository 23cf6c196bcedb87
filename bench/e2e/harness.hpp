#pragma once

// Shared pieces of the end-to-end benchmark harness: the in-memory span
// recorder, the output digest, the per-frame record a workload fills, the
// run-wide tally it is evaluated into, and the workload interface.

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "map/keyframe_store.hpp"
#include "service/cooperation_service.hpp"
#include "stream/pose_tracker.hpp"

namespace bba::e2e {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Harness-side trace: one span per public call the ego loop makes, kept in
/// memory and written as Chrome-trace JSON when the run ends. A null
/// Tracer* means "untraced": Scope then reads no clock at all.
class Tracer {
 public:
  struct Span {
    const char* name = nullptr;
    double startMs = 0.0;
    double durMs = 0.0;
    int frame = -1;  ///< frame index within its segment (-1: set-up)
    int segment = 0;
    std::string args;  ///< JSON object body (no braces), may be empty
  };

  class Scope {
   public:
    Scope(Tracer* t, const char* name) : t_(t), name_(name) {
      if (t_ != nullptr) start_ = Clock::now();
    }
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// End the span now; returns its duration (0 when untraced).
    double close();

   private:
    Tracer* t_;
    const char* name_;
    Clock::time_point start_{};
    bool closed_ = false;
    double dur_ = 0.0;
  };

  explicit Tracer(Clock::time_point origin);
  void setPosition(int segment, int frame) {
    segment_ = segment;
    frame_ = frame;
  }
  void add(const char* name, Clock::time_point start, Clock::time_point end,
           std::string args = {});
  /// Time the Scopes have spent on their own bookkeeping so far (clock
  /// reads and span records): what tracing adds to the spans it encloses.
  [[nodiscard]] double selfMs() const { return selfMs_; }
  /// Chrome trace ("X" complete events, one track) plus `otherData`.
  [[nodiscard]] std::string toJson(const std::string& otherData) const;

 private:
  Clock::time_point origin_;
  double clockReadMs_ = 0.0;  ///< cost of one Clock::now(), calibrated
  double selfMs_ = 0.0;
  int segment_ = 0;
  int frame_ = -1;
  std::vector<Span> spans_;
};

/// FNV-1a over the deterministic outputs of a run: byte-identical at any
/// BBA_THREADS, traced or not.
class Digest {
 public:
  void bytes(const void* data, std::size_t n);
  void i64(std::int64_t v) { bytes(&v, sizeof v); }
  void str(const std::string& s) { bytes(s.data(), s.size()); }
  /// Pose quantized to 1 mm / 1 µrad.
  void pose(const Pose2& p);
  [[nodiscard]] std::uint64_t value() const { return h_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Ground truth and role of one service input, set by the workload.
struct InputTruth {
  bool inRange = false;  ///< a peer the ego can actually align with
  Pose2 gt;              ///< delivered payload -> ego (inRange only)
};

/// Raw outputs of one closed-loop frame (filled while the clock runs,
/// evaluated after it stops).
struct FrameOut {
  std::vector<service::SessionFrameResult> results;
  /// Parallel to `results`; null when no input is in range.
  const std::vector<InputTruth>* truth = nullptr;
  bool recorded = false;          ///< recordEgoKeyframe was called
  map::InsertResult insert;
  bool coasted = false;  ///< coastWithEgo was called (reloc)
  TrackerResult coast;
  TrackerReport coastReport;
  Pose2 egoGt;  ///< ego global pose (reloc truth)
  // Harness spans (ms; 0 when untraced).
  double makeCarDataMs = 0.0;
  double recordMs = 0.0;
  double processMs = 0.0;
  double coastMs = 0.0;
};

/// recover() stages of a PoseRecoveryReport, in the order main.cpp lists
/// them.
inline constexpr int kStageCount = 7;

/// Everything a run accumulates over its timed frames. Every segment is
/// replayed in several passes; outputs are identical in each, so counts
/// cover all passes and a frame's time is its fastest pass.
struct Tally {
  /// Wall time of each timed frame, one sample per pass.
  std::vector<std::vector<double>> frameSamples;
  std::vector<double> frameMs;  ///< per timed frame: fastest pass
  double wallMs = 0.0;          ///< Σ frameMs
  double sampledWallMs = 0.0;   ///< Σ of every sample (all passes)
  std::vector<double> setupS;
  std::vector<double> memMb;
  int passes = 0;
  std::int64_t segmentFrames = 0;  ///< every frame stepped, warm-up included
  // ---- ops -------------------------------------------------------------
  std::int64_t ops = 0;
  std::int64_t failed = 0;  ///< refused, or granted w/o a good fresh pose
  std::int64_t malfunctions = 0;  ///< duplicate id/decode/mismatch/replay
  std::int64_t refused = 0;
  std::int64_t inRangeOffered = 0;  ///< in-range ops with a payload
  std::int64_t fresh = 0;           ///< ...of which ended with a fresh pose
  std::int64_t wrong = 0;           ///< fresh poses > 2 m from truth
  std::vector<double> poseErrM;
  std::vector<double> poseAge;
  // ---- layers ------------------------------------------------------------
  double makeCarDataMs = 0.0, recordMs = 0.0, processMs = 0.0, coastMs = 0.0;
  std::array<double, kStageCount> stageMs{};
  double recoverMs = 0.0;
  double cpuMs = 0.0;
  double traceSelfMs = 0.0;  ///< tracer bookkeeping inside timed frames
  std::int64_t ransacBvIterations = 0;
  std::int64_t recoverCalls = 0, recoverSuccess = 0;
  std::int64_t updates = 0, relaxedRetries = 0, relaxedAccepted = 0;
  std::int64_t trackOutcomes = 0, extrapolated = 0, trackLost = 0;
  std::int64_t granted = 0, pregateSkipped = 0, shed = 0;
  std::int64_t evicted = 0, readmitted = 0, reaped = 0;
  std::int64_t bytesIn = 0, decodeErrors = 0;
  std::int64_t mapInserts = 0, mapDedupSkips = 0;
  std::vector<double> mapSize;
  std::int64_t relocAttempted = 0, relocAccepted = 0, relocCandidates = 0;
  std::int64_t frames = 0;  ///< timed frame samples (all passes)
  // ---- structural checks (every frame, warm-up included) ----------------
  std::int64_t maxGrantsPerFrame = 0;
  std::int64_t farNotHeld = 0;  ///< far-claim inputs that were not held
};

/// A pose within this distance of ground truth is a good pose; beyond it,
/// a wrong one (the `map_reloc` bench's false-lock threshold).
inline constexpr double kWrongPoseM = 2.0;

/// One benchmark workload: inputs are generated in the constructor (before
/// any timing); each segment runs a fresh system under test over its own
/// frames, the first kWarmupFrames of which belong to set-up.
class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual int segments() const = 0;
  [[nodiscard]] virtual int framesPerSegment() const = 0;
  /// Construct the system under test for `segment` (and, for reloc, build
  /// its keyframe map).
  virtual void setUp(int segment, Tracer* tracer) = 0;
  /// One closed-loop ego frame: the timed unit.
  virtual void step(int segment, int frame, Tracer* tracer, FrameOut& out) = 0;
  /// Untimed end of a segment: final reports into tally and digest, then
  /// release the system under test.
  virtual void tearDown(Tally& tally, Digest& digest) = 0;
  /// Service self time is only defined when at most one session steps.
  [[nodiscard]] virtual bool serialService() const { return false; }
};

inline constexpr int kWarmupFrames = 2;

struct WorkloadOptions {
  std::uint64_t seed = 7;
  int segments = 3;
  bool smoke = false;
};

/// Factory: "pair", "fleet", "churn" or "reloc"; nullptr for other names.
std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       const WorkloadOptions& opt);

/// How a run of a workload spends its time: every segment is replayed in
/// `passes` interleaved passes, and `segmentSeconds` is the nominal wall
/// time of one segment at 4 threads, which turns --seconds into a fixed
/// amount of work (see README: fixed work per run).
struct RunShape {
  double segmentSeconds = 1.0;
  int passes = 4;
};
RunShape runShape(const std::string& name);

}  // namespace bba::e2e
