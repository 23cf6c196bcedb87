// Tests for the stage-level observability layer (src/obs): trace span
// recording and cross-thread nesting under parallelFor, deterministic
// metric aggregation, JSON export validity, and the contract that
// observability never perturbs recovered poses.
#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "core/bb_align.hpp"
#include "dataset/generator.hpp"
#include "stream/pose_tracker.hpp"

namespace bba {
namespace {

// ---- minimal JSON syntax checker -----------------------------------------
// Enough of RFC 8259 to reject malformed output (unbalanced braces, bad
// escapes, trailing commas); value semantics are checked by the dedicated
// assertions below.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool valid() {
    skipWs();
    if (!value()) return false;
    skipWs();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skipWs();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skipWs();
      if (!string()) return false;
      skipWs();
      if (peek() != ':') return false;
      ++pos_;
      skipWs();
      if (!value()) return false;
      skipWs();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skipWs();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      skipWs();
      if (!value()) return false;
      skipWs();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(static_cast<unsigned char>(
                                         s_[pos_])))
              return false;
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  void skipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  [[nodiscard]] char peek() const {
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

/// RAII install/uninstall so a failing assertion can't leak an installed
/// recorder into later tests.
struct ScopedTrace {
  explicit ScopedTrace(obs::TraceRecorder& r) {
    obs::installTraceRecorder(&r);
  }
  ~ScopedTrace() { obs::installTraceRecorder(nullptr); }
};

struct ScopedMetrics {
  explicit ScopedMetrics(obs::MetricsRegistry& r) {
    obs::installMetricsRegistry(&r);
  }
  ~ScopedMetrics() { obs::installMetricsRegistry(nullptr); }
};

/// A frame pair BB-Align is known to recover successfully with Rng(3)
/// (pair 0 of the cooperative_detection example's dataset).
const FramePair& fixturePair() {
  static const FramePair pair = [] {
    DatasetConfig cfg;
    cfg.seed = 4242;
    return *DatasetGenerator(cfg).generatePair(0);
  }();
  return pair;
}

// ---- tracing --------------------------------------------------------------

TEST(Trace, SpanIsNoopWithoutRecorder) {
  {
    obs::Span span("orphan");
  }
  obs::TraceRecorder rec;
  EXPECT_EQ(rec.eventCount(), 0u);
}

TEST(Trace, RecordsNamedSpansWithDurations) {
  obs::TraceRecorder rec;
  {
    ScopedTrace install(rec);
    obs::Span outer("outer");
    { obs::Span inner("inner"); }
  }
  const std::vector<obs::ExportedEvent> events = rec.events();
  ASSERT_EQ(events.size(), 2u);
  // Same thread, and the inner interval is enclosed by the outer one.
  obs::ExportedEvent inner, outer;
  for (const auto& e : events) {
    if (e.name == "inner") inner = e;
    if (e.name == "outer") outer = e;
  }
  EXPECT_EQ(inner.tid, outer.tid);
  EXPECT_GE(inner.startNs, outer.startNs);
  EXPECT_LE(inner.startNs + inner.durNs, outer.startNs + outer.durNs);
  EXPECT_GE(inner.durNs, 0);
}

TEST(Trace, JsonIsSyntacticallyValid) {
  obs::TraceRecorder rec;
  {
    ScopedTrace install(rec);
    obs::Span span("quote\"backslash\\newline\n");
    obs::Span other("plain");
  }
  const std::string json = rec.toJson();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(Trace, EmptyRecorderStillExportsValidJson) {
  obs::TraceRecorder rec;
  const std::string json = rec.toJson();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
}

#if defined(BBA_OBSERVABILITY_ENABLED)
TEST(Trace, ChunkSpansNestUnderParallelRegionOnEveryThread) {
  obs::TraceRecorder rec;
  {
    ScopedTrace install(rec);
    ThreadLimit limit(4);  // force the pool even on 1-CPU hosts
    BBA_SPAN("region");
    parallelFor(0, 64, 1, [&](std::int64_t b, std::int64_t e) {
      BBA_SPAN("chunk");
      volatile double sink = 0.0;
      for (std::int64_t i = b * 1000; i < e * 1000; ++i) {
        sink = sink + static_cast<double>(i);
      }
    });
  }
  const std::vector<obs::ExportedEvent> events = rec.events();
  int chunkCountSeen = 0;
  for (const auto& chunk : events) {
    if (chunk.name != "chunk") continue;
    ++chunkCountSeen;
    // Every chunk span must be enclosed by the launching thread's "region"
    // span or by the synthetic "region [worker]" span of an adopted pool
    // worker, on the chunk's own thread track.
    bool enclosed = false;
    for (const auto& parent : events) {
      if (parent.name != "region" && parent.name != "region [worker]")
        continue;
      if (parent.tid != chunk.tid) continue;
      if (parent.startNs <= chunk.startNs &&
          parent.startNs + parent.durNs >= chunk.startNs + chunk.durNs) {
        enclosed = true;
        break;
      }
    }
    EXPECT_TRUE(enclosed) << "chunk on tid " << chunk.tid
                          << " not nested under the parallel region";
  }
  EXPECT_EQ(chunkCountSeen, 64);
}
#endif  // BBA_OBSERVABILITY_ENABLED

// ---- metrics --------------------------------------------------------------

TEST(Metrics, CounterAggregationIsThreadCountInvariant) {
  constexpr std::int64_t kN = 10000;
  for (const int threads : {1, 8}) {
    obs::MetricsRegistry reg;
    {
      ScopedMetrics install(reg);
      ThreadLimit limit(threads);
      parallelFor(0, kN, 7, [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) {
          BBA_COUNTER_ADD("test.increments", 1);
        }
      });
    }
#if defined(BBA_OBSERVABILITY_ENABLED)
    EXPECT_EQ(reg.counter("test.increments").value(), kN)
        << "at " << threads << " threads";
#else
    EXPECT_EQ(reg.counter("test.increments").value(), 0);
#endif
  }
}

TEST(Metrics, HistogramBucketsAndSummary) {
  obs::Histogram h;
  h.observe(0.5);
  h.observe(2.0);
  h.observe(2.0);
  h.observe(1e9);  // beyond the last bound: clamps into the last bucket
  EXPECT_EQ(h.count(), 4);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
  EXPECT_EQ(h.bucketCount(obs::Histogram::bucketIndex(0.5)), 1);
  EXPECT_EQ(h.bucketCount(obs::Histogram::bucketIndex(2.0)), 2);
  EXPECT_EQ(h.bucketCount(obs::Histogram::kBuckets - 1), 1);
  // Bound of bucket i is 2^(i-10).
  EXPECT_DOUBLE_EQ(obs::Histogram::upperBound(10), 1.0);
  EXPECT_DOUBLE_EQ(obs::Histogram::upperBound(11), 2.0);
}

TEST(Metrics, JsonIsSyntacticallyValidAndSorted) {
  obs::MetricsRegistry reg;
  reg.counter("b.second").add(2);
  reg.counter("a.first").increment();
  reg.gauge("some.gauge").set(2.5);
  reg.histogram("h").observe(3.0);
  const std::string json = reg.toJson();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_LT(json.find("a.first"), json.find("b.second"));
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

// ---- report ---------------------------------------------------------------

TEST(Report, FailureCauseNames) {
  EXPECT_STREQ(toString(RecoveryFailure::None), "none");
  EXPECT_STREQ(toString(RecoveryFailure::Stage1NoConsensus),
               "stage1_no_consensus");
  EXPECT_STREQ(toString(RecoveryFailure::InlierThreshold),
               "inlier_threshold");
}

TEST(Report, JsonIsSyntacticallyValid) {
  PoseRecoveryReport rep;
  rep.msTotal = 12.5;
  rep.inliersBv = 31;
  rep.success = true;
  const std::string json = rep.toJson();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"inliers_bv\""), std::string::npos);
  EXPECT_NE(json.find("\"failure\""), std::string::npos);
}

// ---- end-to-end contract ---------------------------------------------------

TEST(ObservabilityContract, PosesByteIdenticalWithAndWithoutObservers) {
  const FramePair& pair = fixturePair();
  const BBAlign aligner;
  const CarPerceptionData ego =
      aligner.makeCarData(pair.egoCloud, pair.egoDets);
  const CarPerceptionData other =
      aligner.makeCarData(pair.otherCloud, pair.otherDets);

  Rng rngPlain(3);
  const PoseRecoveryResult plain = aligner.recover(other, ego, rngPlain);

  obs::TraceRecorder rec;
  obs::MetricsRegistry reg;
  PoseRecoveryReport report;
  PoseRecoveryResult observed;
  {
    ScopedTrace installT(rec);
    ScopedMetrics installM(reg);
    Rng rngObs(3);
    observed = aligner.recover(other, ego, rngObs, &report);
  }

  EXPECT_EQ(plain.estimate.t.x, observed.estimate.t.x);
  EXPECT_EQ(plain.estimate.t.y, observed.estimate.t.y);
  EXPECT_EQ(plain.estimate.theta, observed.estimate.theta);
  EXPECT_EQ(plain.stage1.t.x, observed.stage1.t.x);
  EXPECT_EQ(plain.stage1.t.y, observed.stage1.t.y);
  EXPECT_EQ(plain.stage1.theta, observed.stage1.theta);
  EXPECT_EQ(plain.inliersBv, observed.inliersBv);
  EXPECT_EQ(plain.inliersBox, observed.inliersBox);
  EXPECT_EQ(plain.success, observed.success);

  // The report mirrors the result regardless of compile mode.
  EXPECT_EQ(report.inliersBv, observed.inliersBv);
  EXPECT_EQ(report.inliersBox, observed.inliersBox);
  EXPECT_EQ(report.success, observed.success);
  if (report.success) {
    EXPECT_EQ(report.failure, RecoveryFailure::None);
  }
}

#if defined(BBA_OBSERVABILITY_ENABLED)
TEST(ObservabilityContract, RecoverEmitsStageSpansAndInlierMetrics) {
  const FramePair& pair = fixturePair();
  const BBAlign aligner;
  obs::TraceRecorder rec;
  obs::MetricsRegistry reg;
  {
    ScopedTrace installT(rec);
    ScopedMetrics installM(reg);
    const CarPerceptionData ego =
        aligner.makeCarData(pair.egoCloud, pair.egoDets);
    const CarPerceptionData other =
        aligner.makeCarData(pair.otherCloud, pair.otherDets);
    Rng rng(3);
    const PoseRecoveryResult r = aligner.recover(other, ego, rng);
    ASSERT_TRUE(r.success);  // the perf_micro fixture pair recovers
  }

  const std::vector<obs::ExportedEvent> events = rec.events();
  const auto hasSpan = [&](const char* name) {
    return std::any_of(events.begin(), events.end(),
                       [&](const obs::ExportedEvent& e) {
                         return e.name == name ||
                                e.name == std::string(name) + " [worker]";
                       });
  };
  EXPECT_TRUE(hasSpan("bev"));
  EXPECT_TRUE(hasSpan("mim"));
  EXPECT_TRUE(hasSpan("keypoints"));
  EXPECT_TRUE(hasSpan("descriptor"));
  EXPECT_TRUE(hasSpan("match"));
  EXPECT_TRUE(hasSpan("ransac-bv"));
  EXPECT_TRUE(hasSpan("ransac-box"));
  EXPECT_TRUE(hasSpan("recover"));

  // The "recover" span encloses the hot-path spans recorded on its thread.
  obs::ExportedEvent recover;
  for (const auto& e : events) {
    if (e.name == "recover") recover = e;
  }
  for (const auto& e : events) {
    if (e.name != "ransac-bv" || e.tid != recover.tid) continue;
    EXPECT_GE(e.startNs, recover.startNs);
    EXPECT_LE(e.startNs + e.durNs, recover.startNs + recover.durNs);
  }

  EXPECT_EQ(reg.counter("recover.calls").value(), 1);
  EXPECT_EQ(reg.counter("recover.success").value(), 1);
  EXPECT_GT(reg.counter("stage1.keypoints_detected").value(), 0);
  EXPECT_GT(reg.counter("stage1.ransac_iterations").value(), 0);
  EXPECT_EQ(reg.histogram("stage1.inliers_bv").count(), 1);
  EXPECT_GT(reg.histogram("stage1.inliers_bv").max(), 15.0);
  EXPECT_EQ(reg.histogram("stage2.inliers_box").count(), 1);
  EXPECT_GT(reg.histogram("stage2.inliers_box").max(), 6.0);

  const std::string traceJson = rec.toJson();
  const std::string metricsJson = reg.toJson();
  EXPECT_TRUE(JsonChecker(traceJson).valid());
  EXPECT_TRUE(JsonChecker(metricsJson).valid());
  EXPECT_NE(metricsJson.find("\"stage1.inliers_bv\""), std::string::npos);
  EXPECT_NE(metricsJson.find("\"stage2.inliers_box\""), std::string::npos);
}

TEST(ObservabilityContract, KeypointsDetectedCountsEachDetectionOnce) {
  const FramePair& pair = fixturePair();
  const BBAlign aligner;
  const CarPerceptionData ego =
      aligner.makeCarData(pair.egoCloud, pair.egoDets);
  const CarPerceptionData other =
      aligner.makeCarData(pair.otherCloud, pair.otherDets);
  // Detected before the registry is installed: the recover() below reads
  // these ego keypoints and detects only the other image's.
  const auto egoFeatures = aligner.computeEgoFeatures(ego);
  obs::MetricsRegistry reg;
  PoseRecoveryReport rep;
  {
    ScopedMetrics installM(reg);
    Rng rng(3);
    (void)aligner.recover(other, ego, rng, &rep, nullptr, egoFeatures.get());
  }
  ASSERT_GT(rep.keypointsOther, 0);
  EXPECT_EQ(reg.counter("stage1.keypoints_detected").value(),
            rep.keypointsOther);
}

TEST(ObservabilityContract, TrackerStepComputesEachImageMimOnce) {
  const FramePair& pair = fixturePair();
  PoseTracker tracker;
  const BBAlign aligner(tracker.config().aligner);
  const CarPerceptionData ego =
      aligner.makeCarData(pair.egoCloud, pair.egoDets);
  const CarPerceptionData other =
      aligner.makeCarData(pair.otherCloud, pair.otherDets);
  // A prediction far from the true pose: rung 0 cannot pass the
  // innovation gate, so the relaxed rung runs on the same images.
  tracker.acceptExternalPose(Pose2{Vec2{40.0, -40.0}, 1.0});

  obs::TraceRecorder rec;
  TrackerReport rep;
  {
    ScopedTrace installT(rec);
    Rng rng(3);
    (void)tracker.update(other, ego, rng, &rep);
  }
  ASSERT_TRUE(rep.relaxedAttempted);

  const std::vector<obs::ExportedEvent> events = rec.events();
  const auto mimSpans = std::count_if(
      events.begin(), events.end(),
      [](const obs::ExportedEvent& e) { return e.name == "mim"; });
  EXPECT_EQ(mimSpans, 2);  // ego + peer; the relaxed rung reuses both
}
#endif  // BBA_OBSERVABILITY_ENABLED

}  // namespace
}  // namespace bba
