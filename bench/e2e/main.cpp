// End-to-end benchmark of the BB-Align cooperation loop.
//
//   bba_e2e --workload pair|fleet|churn|reloc --seed N --seconds S
//           --trace 0|1 [--smoke] [--trace-out FILE]
//
// Generates the workload's inputs from the seed, then plays them through a
// closed loop (one frame in flight) over the public API. The work per run
// is fixed by --seconds through each workload's nominal segment cost, so two
// builds compare the same frames. Prints every metric as
// `workload metric value unit`, a `workload digest HEX` line, and, last, one
// JSON object {"correct", "attempted", "failed", "metrics"}: end-to-end
// metrics with --trace 0, per-layer metrics with --trace 1. Exits 1 when a
// correctness check fails, 2 on bad arguments.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "harness.hpp"

#ifndef BBA_E2E_BUILD_TYPE
#define BBA_E2E_BUILD_TYPE ""
#endif

namespace bba::e2e {

// ---- Tracer / Digest -----------------------------------------------------

Tracer::Tracer(Clock::time_point origin) : origin_(origin) {
  constexpr int kReads = 4096;
  const Clock::time_point a = Clock::now();
  for (int i = 0; i < kReads; ++i) (void)Clock::now();
  clockReadMs_ = msBetween(a, Clock::now()) / kReads;
}

double Tracer::Scope::close() {
  if (t_ == nullptr || closed_) return dur_;
  const Clock::time_point end = Clock::now();
  closed_ = true;
  dur_ = msBetween(start_, end);
  t_->add(name_, start_, end);
  // The span record, the read that times it, and the opening read.
  t_->selfMs_ += msBetween(end, Clock::now()) + 2.0 * t_->clockReadMs_;
  return dur_;
}

void Tracer::add(const char* name, Clock::time_point start,
                 Clock::time_point end, std::string args) {
  spans_.push_back({name, msBetween(origin_, start), msBetween(start, end),
                    frame_, segment_, std::move(args)});
}

std::string Tracer::toJson(const std::string& otherData) const {
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"segment\":%d,"
                  "\"frame\":%d",
                  i == 0 ? "" : ",\n", s.name, s.startMs * 1e3,
                  s.durMs * 1e3, s.segment, s.frame);
    out += buf;
    if (!s.args.empty()) out += "," + s.args;
    out += "}}";
  }
  out += "],\"displayTimeUnit\":\"ms\",\"otherData\":{" + otherData + "}}\n";
  return out;
}

void Digest::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::pose(const Pose2& p) {
  i64(std::llround(p.t.x * 1e3));
  i64(std::llround(p.t.y * 1e3));
  i64(std::llround(p.theta * 1e6));
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

namespace {

// ---- process probes ------------------------------------------------------

/// Heap bytes in use across every malloc arena, in MB. Unlike RSS it does
/// not depend on which freed pages the allocator happened to keep.
double heapMb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

double cpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---- evaluation ----------------------------------------------------------

/// One recover() stage: its field in PoseRecoveryReport, its key in a
/// trace's frame args, and its per-layer metric.
struct Stage {
  double PoseRecoveryReport::*ms;
  const char* arg;
  const char* metric;
};

constexpr std::array<Stage, kStageCount> kStages = {{
    {&PoseRecoveryReport::msMim, "mim_ms", "features.mim_time_frac"},
    {&PoseRecoveryReport::msKeypoints, "keypoints_ms",
     "features.keypoints_time_frac"},
    {&PoseRecoveryReport::msDescriptors, "descriptors_ms",
     "features.descriptors_time_frac"},
    {&PoseRecoveryReport::msMatching, "matching_ms",
     "match.matching_time_frac"},
    {&PoseRecoveryReport::msRansacBv, "ransac_bv_ms",
     "match.ransac_bv_time_frac"},
    {&PoseRecoveryReport::msIcpPolish, "icp_polish_ms",
     "core.icp_polish_time_frac"},
    {&PoseRecoveryReport::msStage2, "stage2_ms", "core.stage2_time_frac"},
}};

/// Busy time of the recover() calls behind one frame, summed over sessions
/// (the frame span's args in a trace).
struct FrameLayers {
  int recoverCalls = 0;
  double recoverMs = 0.0;
  std::array<double, kStageCount> stageMs{};
};

void addReport(const PoseRecoveryReport& r, Tally& t, FrameLayers& fl) {
  for (std::size_t i = 0; i < kStages.size(); ++i) {
    t.stageMs[i] += r.*kStages[i].ms;
    fl.stageMs[i] += r.*kStages[i].ms;
  }
  t.recoverMs += r.msTotal;
  t.ransacBvIterations += r.ransacBvIterations;
  t.recoverSuccess += r.success ? 1 : 0;
  fl.recoverMs += r.msTotal;
}

bool freshOutcome(TrackerOutcome o) {
  return o == TrackerOutcome::Recovered ||
         o == TrackerOutcome::RecoveredRelaxed ||
         o == TrackerOutcome::Relocalized;
}

/// Per-segment state of the evaluation: when each in-range session last
/// produced a fresh pose (for the pose-age metric).
using LastFresh = std::map<std::uint64_t, int>;

void countPose(bool fresh, const Pose2& pose, const Pose2& gt,
               std::uint64_t key, int frame, LastFresh& lastFresh, Tally& t,
               bool* good) {
  t.inRangeOffered += 1;
  *good = false;
  if (fresh) {
    const double err = poseError(pose, gt).translation;
    t.fresh += 1;
    t.poseErrM.push_back(err);
    if (err > kWrongPoseM)
      t.wrong += 1;
    else
      *good = true;
    lastFresh[key] = frame;
  }
  const auto it = lastFresh.find(key);
  t.poseAge.push_back(
      static_cast<double>(frame - (it == lastFresh.end() ? 0 : it->second)));
}

/// Fold one frame's outputs into the digest (always) and, for timed
/// frames, into the tally. Structural tallies cover every frame.
FrameLayers evaluate(const FrameOut& out, int frame, bool timed,
                     LastFresh& lastFresh, Tally& t, Digest& d) {
  FrameLayers fl;
  Tally scratch;  // sink for the warm-up frames' metric tallies
  Tally& m = timed ? t : scratch;
  if (out.recorded) {
    d.i64(out.insert.inserted ? 1 : 0);
    d.i64(static_cast<std::int64_t>(out.insert.id));
    m.mapInserts += out.insert.inserted ? 1 : 0;
    m.mapDedupSkips += out.insert.dedupSkipped ? 1 : 0;
  }
  if (out.coasted) {
    const TrackerResult& r = out.coast;
    const TrackerReport& rep = out.coastReport;
    d.i64(static_cast<std::int64_t>(r.outcome));
    d.i64(r.poseValid ? 1 : 0);
    if (r.poseValid) d.pose(r.pose);
    m.ops += 1;
    m.trackOutcomes += 1;
    m.extrapolated += r.outcome == TrackerOutcome::Extrapolated ? 1 : 0;
    m.trackLost += rep.trackLostThisFrame ? 1 : 0;
    if (rep.relocalizationAttempted) {
      m.relocAttempted += 1;
      m.relocCandidates += rep.relocalizationCandidates;
      // The tracker reports only the last relocalization recover(); an
      // accepted frame is counted as one call, a rejected one as one per
      // candidate it could try.
      const int calls =
          rep.relocalizationAccepted
              ? 1
              : std::min(rep.relocalizationCandidates,
                         PoseTrackerConfig{}.mapRelocalizationAttempts);
      m.recoverCalls += calls;
      fl.recoverCalls += calls;
      if (calls > 0) addReport(rep.relocalization, m, fl);
    }
    m.relocAccepted += rep.relocalizationAccepted ? 1 : 0;
    bool good = false;
    countPose(r.outcome == TrackerOutcome::Relocalized, r.pose, out.egoGt, 0,
              frame, lastFresh, m, &good);
    m.failed += good ? 0 : 1;
  }
  std::int64_t grants = 0;
  for (std::size_t i = 0; i < out.results.size(); ++i) {
    const service::SessionFrameResult& r = out.results[i];
    const InputTruth truth =
        out.truth != nullptr ? (*out.truth)[i] : InputTruth{};
    d.i64(static_cast<std::int64_t>(r.peerId));
    d.i64(static_cast<std::int64_t>(r.admission));
    d.i64(static_cast<std::int64_t>(r.track.outcome));
    d.i64(r.track.poseValid ? 1 : 0);
    if (r.track.poseValid) d.pose(r.track.pose);

    const bool refused =
        r.admission == service::SessionAdmission::RejectedFull ||
        r.admission == service::SessionAdmission::RejectedDuplicate;
    const bool granted = !refused && r.received && !r.pregateSkipped &&
                         !r.shed;
    const bool decodeError = r.decodeError != wire::DecodeError::None;
    const bool stepped = granted && !decodeError && !r.payloadMismatch &&
                         !r.replayRejected;
    const bool fresh = !r.quarantined && r.track.poseValid &&
                       freshOutcome(r.track.outcome);
    grants += granted ? 1 : 0;
    // Lifecycle and structure are tallied on every frame.
    t.evicted +=
        r.admission == service::SessionAdmission::AdmittedEvicting ? 1 : 0;
    t.readmitted += r.readmission ? 1 : 0;
    if (!truth.inRange && !refused && r.received && !r.pregateSkipped)
      t.farNotHeld += 1;
    t.decodeErrors += decodeError ? 1 : 0;

    m.ops += 1;
    m.refused += refused ? 1 : 0;
    m.malfunctions +=
        (r.admission == service::SessionAdmission::RejectedDuplicate ||
         decodeError || r.payloadMismatch || r.replayRejected)
            ? 1
            : 0;
    m.granted += granted ? 1 : 0;
    m.pregateSkipped += r.pregateSkipped ? 1 : 0;
    m.shed += r.shed ? 1 : 0;
    m.bytesIn += static_cast<std::int64_t>(r.payloadBytes);
    if (!refused && !r.quarantined) {
      m.trackOutcomes += 1;
      m.extrapolated +=
          r.track.outcome == TrackerOutcome::Extrapolated ? 1 : 0;
      m.trackLost += r.report.trackLostThisFrame ? 1 : 0;
    }
    if (stepped) {
      m.updates += 1;
      m.recoverCalls += 1;
      fl.recoverCalls += 1;
      addReport(r.report.recovery, m, fl);
      if (r.report.relaxedAttempted) {
        m.relaxedRetries += 1;
        m.relaxedAccepted +=
            r.track.outcome == TrackerOutcome::RecoveredRelaxed ? 1 : 0;
        m.recoverCalls += 1;
        fl.recoverCalls += 1;
        addReport(r.report.relaxedRecovery, m, fl);
      }
    }
    bool good = false;
    if (truth.inRange && r.received)
      countPose(fresh, r.track.pose, truth.gt, r.peerId, frame, lastFresh, m,
                &good);
    m.failed += (refused || (granted && !good)) ? 1 : 0;
  }
  t.maxGrantsPerFrame = std::max(t.maxGrantsPerFrame, grants);
  return fl;
}

// ---- metrics -------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::vector<Metric> endToEnd(const Tally& t) {
  const double opsPerPass =
      ratio(static_cast<double>(t.ops), static_cast<double>(t.passes));
  return {
      {"frame_p50_ms", quantile(t.frameMs, 0.50), "ms"},
      {"inputs_per_s", ratio(opsPerPass, t.wallMs / 1e3), "1/s"},
      {"setup_s", quantile(t.setupS, 0.5), "s"},
      {"mem_mb", quantile(t.memMb, 1.0), "MB"},
  };
}

/// Pose quality: not gated by a bound (their spread across seeds is
/// workload content, not speed). The run's `failed` count carries
/// failed_frac; compare.py voids a speed gain that costs fresh or right
/// poses.
std::vector<Metric> quality(const Tally& t) {
  const auto n = [](std::int64_t v) { return static_cast<double>(v); };
  const double goodPerPass = ratio(n(t.fresh - t.wrong), t.passes);
  return {
      {"quality.poses_per_s", ratio(goodPerPass, t.wallMs / 1e3), "1/s"},
      {"quality.fresh_pose_frac", ratio(n(t.fresh), n(t.inRangeOffered)),
       "ratio"},
      {"quality.pose_err_p50_m", quantile(t.poseErrM, 0.5), "m"},
      {"quality.wrong_pose_frac", ratio(n(t.wrong), n(t.fresh)), "ratio"},
      {"quality.failed_frac", ratio(n(t.failed), n(t.ops)), "ratio"},
  };
}

/// Per-layer metrics of a traced run. Times are shares of the frame wall
/// time (busy time summed over sessions, so parallel work can exceed 1);
/// counts are per timed frame unless the unit says otherwise.
std::vector<Metric> perLayer(const Tally& t, int threads, bool serialService) {
  const auto n = [](std::int64_t v) { return static_cast<double>(v); };
  const double frames = n(t.frames);
  const double wall = t.sampledWallMs;
  const auto share = [&](double ms) { return ratio(ms, wall); };
  const auto perPass = [&](std::int64_t v) { return ratio(n(v), t.passes); };
  std::vector<Metric> m = {
      {"bev.make_car_data_ms", ratio(t.makeCarDataMs, frames), "ms"}};
  double stages = 0.0;
  for (std::size_t i = 0; i < kStages.size(); ++i) {
    m.push_back({kStages[i].metric, share(t.stageMs[i]), "ratio"});
    stages += t.stageMs[i];
  }
  m.insert(m.end(), {
      {"match.ransac_bv_iterations_per_call",
       ratio(n(t.ransacBvIterations), n(t.recoverCalls)), "count"},
      {"core.residual_time_frac", share(t.recoverMs - stages), "ratio"},
      {"core.recover_time_frac", share(t.recoverMs), "ratio"},
      {"core.recover_calls_per_frame", ratio(n(t.recoverCalls), frames),
       "count"},
      {"core.recover_success_frac",
       ratio(n(t.recoverSuccess), n(t.recoverCalls)), "ratio"},
      {"stream.relaxed_retry_frac", ratio(n(t.relaxedRetries), n(t.updates)),
       "ratio"},
      {"stream.relaxed_accept_frac",
       ratio(n(t.relaxedAccepted), n(t.relaxedRetries)), "ratio"},
      {"stream.extrapolated_frac",
       ratio(n(t.extrapolated), n(t.trackOutcomes)), "ratio"},
      {"stream.track_lost", perPass(t.trackLost), "count"},
      {"service.process_frame_time_frac", share(t.processMs), "ratio"},
      {"service.self_time_frac",
       serialService ? share(t.processMs - t.recoverMs) : 0.0, "ratio"},
      {"service.granted_per_frame", ratio(n(t.granted), frames), "count"},
      {"service.pregate_skipped_per_frame",
       ratio(n(t.pregateSkipped), frames), "count"},
      {"service.shed_per_frame", ratio(n(t.shed), frames), "count"},
      {"service.refused_frac", ratio(n(t.refused), n(t.ops)), "ratio"},
      {"service.pose_age_p90_frames", quantile(t.poseAge, 0.9), "frames"},
      {"session.evicted_per_frame", ratio(n(t.evicted), n(t.segmentFrames)),
       "count"},
      {"session.readmitted_per_frame",
       ratio(n(t.readmitted), n(t.segmentFrames)), "count"},
      {"session.reaped_per_frame", ratio(n(t.reaped), n(t.segmentFrames)),
       "count"},
      {"wire.bytes_in_per_frame", ratio(n(t.bytesIn), frames), "B"},
      {"wire.decode_errors", perPass(t.decodeErrors), "count"},
      {"map.record_keyframe_time_frac", share(t.recordMs), "ratio"},
      {"map.inserts_per_frame", ratio(n(t.mapInserts), frames), "count"},
      {"map.dedup_skips_per_frame", ratio(n(t.mapDedupSkips), frames),
       "count"},
      {"map.size", quantile(t.mapSize, 0.5), "count"},
      {"map.coast_with_ego_time_frac", share(t.coastMs), "ratio"},
      {"map.reloc_candidates_per_frame", ratio(n(t.relocCandidates), frames),
       "count"},
      {"map.reloc_accept_frac",
       ratio(n(t.relocAccepted), n(t.relocAttempted)), "ratio"},
      {"parallel.cpu_ms_per_frame", ratio(t.cpuMs, frames), "ms"},
      {"parallel.busy_frac", ratio(t.cpuMs, wall * threads), "ratio"},
      {"harness.residual_time_frac",
       share(wall - t.makeCarDataMs - t.recordMs - t.processMs - t.coastMs),
       "ratio"},
      {"trace.overhead_frac", share(t.traceSelfMs), "ratio"},
  });
  for (Metric& q : quality(t)) m.push_back(q);
  return m;
}

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

// ---- the run -------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 7;
  double seconds = 25.0;
  bool trace = false;
  bool smoke = false;
  std::string traceOut;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "bba_e2e: %s\nusage: bba_e2e --workload pair|fleet|churn|reloc"
               " --seed N --seconds S --trace 0|1 [--smoke]"
               " [--trace-out FILE]\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atof(value().c_str());
    } else if (a == "--trace") {
      o.trace = value() == "1";
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--trace-out") {
      o.traceOut = value();
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

/// One pass over one segment: fresh system under test, set-up
/// (construction, map build, warm-up frames) timed as a whole, then the
/// timed frames. `baseHeapMb` is the heap in use once the inputs existed,
/// before any system under test was built.
void runSegment(Workload& w, int seg, Tracer* tracer, double baseHeapMb,
                Tally& t, Digest& d) {
  if (tracer != nullptr) tracer->setPosition(seg, -1);
  Clock::time_point s0 = Clock::now();
  w.setUp(seg, tracer);
  double setupMs = msBetween(s0, Clock::now());
  LastFresh lastFresh;
  const int timedPerSegment = w.framesPerSegment() - kWarmupFrames;
  for (int f = 0; f < w.framesPerSegment(); ++f) {
    const bool timed = f >= kWarmupFrames;
    if (tracer != nullptr) tracer->setPosition(seg, f);
    FrameOut out;
    const double c0 = tracer != nullptr ? cpuMs() : 0.0;
    const double self0 = tracer != nullptr ? tracer->selfMs() : 0.0;
    const Clock::time_point f0 = Clock::now();
    w.step(seg, f, tracer, out);
    const Clock::time_point f1 = Clock::now();
    const double self1 = tracer != nullptr ? tracer->selfMs() : 0.0;
    const double c1 = tracer != nullptr ? cpuMs() : 0.0;
    const double wall = msBetween(f0, f1);
    t.segmentFrames += 1;
    const FrameLayers fl = evaluate(out, f, timed, lastFresh, t, d);
    if (!timed) {
      setupMs += wall;
      continue;
    }
    t.frameSamples[static_cast<std::size_t>(seg * timedPerSegment + f -
                                            kWarmupFrames)]
        .push_back(wall);
    t.sampledWallMs += wall;
    t.frames += 1;
    t.cpuMs += c1 - c0;
    t.traceSelfMs += self1 - self0;
    t.makeCarDataMs += out.makeCarDataMs;
    t.recordMs += out.recordMs;
    t.processMs += out.processMs;
    t.coastMs += out.coastMs;
    if (tracer != nullptr) {
      char buf[96];
      std::snprintf(buf, sizeof buf,
                    "\"recover_busy_ms\":%.3f,\"recover_calls\":%d,"
                    "\"cpu_ms\":%.3f,\"serial_service\":%d",
                    fl.recoverMs, fl.recoverCalls, c1 - c0,
                    w.serialService() ? 1 : 0);
      std::string args = buf;
      for (std::size_t i = 0; i < kStages.size(); ++i) {
        std::snprintf(buf, sizeof buf, ",\"%s\":%.3f", kStages[i].arg,
                      fl.stageMs[i]);
        args += buf;
      }
      tracer->add("frame", f0, f1, std::move(args));
    }
  }
  t.setupS.push_back(setupMs / 1e3);
  // Heap growth since the inputs existed: the live system under test plus
  // whatever process-wide state (filter banks, FFT plans, thread scratch)
  // it has grown so far.
  t.memMb.push_back(heapMb() - baseHeapMb);
  w.tearDown(t, d);
}

/// Per-frame best time over the passes.
void finishTiming(Tally& t) {
  for (const std::vector<double>& samples : t.frameSamples) {
    if (samples.empty()) continue;  // the side a run did not measure
    t.frameMs.push_back(*std::min_element(samples.begin(), samples.end()));
    t.wallMs += t.frameMs.back();
  }
}

int run(const Options& o) {
  const int threads = maxThreads();
  // Every segment is replayed in interleaved passes (outputs identical, as
  // the digests check) and a frame's time is its fastest replay: contention
  // from other tenants of the host only ever slows a frame down, so the
  // minimum is the least-disturbed measurement, and each extra pass makes it
  // likelier that every frame gets one quiet replay. A traced run alternates
  // traced and untraced segments, so it needs an even number of passes.
  const RunShape shape = runShape(o.workload);
  const int basePasses = o.smoke ? 1 : shape.passes;
  const int passes = o.trace ? basePasses + basePasses % 2 : basePasses;
  WorkloadOptions wo;
  wo.seed = o.seed;
  wo.smoke = o.smoke;
  wo.segments = o.smoke ? 1
                        : std::max(1, static_cast<int>(std::lround(
                                          o.seconds / basePasses /
                                          shape.segmentSeconds)));
  const Clock::time_point g0 = Clock::now();
  std::unique_ptr<Workload> w = makeWorkload(o.workload, wo);
  if (!w) usage(("unknown workload " + o.workload).c_str());
  const double genS = msBetween(g0, Clock::now()) / 1e3;

  Tally untraced, traced;
  untraced.passes = o.trace ? passes / 2 : passes;
  traced.passes = passes - untraced.passes;
  for (Tally* t : {&untraced, &traced})
    t->frameSamples.resize(static_cast<std::size_t>(
        w->segments() * (w->framesPerSegment() - kWarmupFrames)));
  std::vector<Digest> digests;  // one per pass
  digests.reserve(static_cast<std::size_t>(passes));
  Tracer tracer(Clock::now());
  const double baseHeapMb = heapMb();
  for (int pass = 0; pass < passes; ++pass) {
    Digest d;
    for (int seg = 0; seg < w->segments(); ++seg) {
      const bool traceThis = o.trace && (pass + seg) % 2 == 1;
      runSegment(*w, seg, traceThis ? &tracer : nullptr, baseHeapMb,
                 traceThis ? traced : untraced, d);
    }
    digests.push_back(d);
  }
  finishTiming(untraced);
  finishTiming(traced);
  const std::string digestHex = digests.front().hex();

  // ---- correctness -------------------------------------------------------
  std::vector<std::string> failures;
  const auto check = [&](bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  };
  const Tally& t = untraced;
  check(std::all_of(digests.begin(), digests.end(),
                    [&](const Digest& d) {
                      return d.value() == digests.front().value();
                    }),
        "every replay (traced or not) must produce the same outputs");
  check(t.malfunctions == 0,
        "no duplicate-id rejection, decode error, payload mismatch or replay "
        "rejection");
  if (o.workload == "fleet") {
    check(t.farNotHeld == 0, "far-claim peers must be held on every frame");
    check(t.maxGrantsPerFrame <= 4, "at most 4 recover grants per frame");
    check(t.decodeErrors == 0, "no decode errors");
  }
  if (o.workload == "churn") {
    check(t.recoverCalls == 0, "churn must run no recover()");
    check(t.evicted > 0, "churn must evict");
    check(t.readmitted > 0, "churn must readmit");
  } else {
    check(t.fresh > 0, "fresh_pose_frac must be > 0");
    check(quantile(t.poseErrM, 0.5) < 1.0, "pose_err_p50_m must be < 1 m");
  }
  if (o.trace)
    check(ratio(traced.traceSelfMs, traced.sampledWallMs) < 0.02,
          "tracer bookkeeping must stay under 2% of traced frame time");
  const bool correct = failures.empty();

  // ---- output ------------------------------------------------------------
  const char* wl = o.workload.c_str();
  std::printf("%s threads %d count\n", wl, threads);
  std::printf("%s segments %d count\n", wl, w->segments());
  std::printf("%s passes %d count\n", wl, passes);
  std::printf("%s timed_frames %zu count\n", wl, t.frameMs.size());
  std::printf("%s input_gen_s %.6g s\n", wl, genS);
  std::vector<Metric> e2e = endToEnd(t);
  for (const Metric& m : e2e)
    std::printf("%s %s %.6g %s\n", wl, m.name.c_str(), m.value, m.unit);
  // Informational: only churn times enough frames for ten to lie beyond it.
  std::printf("%s frame_p90_ms %.6g ms\n", wl, quantile(t.frameMs, 0.9));
  std::vector<Metric> layers;
  if (o.trace) {
    layers = perLayer(traced, threads, w->serialService());
    for (const Metric& m : layers)
      std::printf("%s %s %.6g %s\n", wl, m.name.c_str(), m.value, m.unit);
  } else {
    for (const Metric& m : quality(t))
      std::printf("%s %s %.6g %s\n", wl, m.name.c_str(), m.value, m.unit);
  }
  std::printf("%s digest %s\n", wl, digestHex.c_str());
  for (const std::string& f : failures) {
    std::printf("%s check FAILED: %s\n", wl, f.c_str());
    std::fprintf(stderr, "%s check FAILED: %s\n", wl, f.c_str());
  }

  if (o.trace && !o.traceOut.empty()) {
    char other[512];
    std::snprintf(other, sizeof other,
                  "\"workload\":\"%s\",\"seed\":%llu,\"threads\":%d,"
                  "\"passes\":%d,\"build_type\":\"%s\",\"digest\":\"%s\","
                  "\"trace_self_ms\":%s,\"traced_wall_ms\":%s",
                  wl, static_cast<unsigned long long>(o.seed), threads,
                  passes, BBA_E2E_BUILD_TYPE, digestHex.c_str(),
                  number(traced.traceSelfMs).c_str(),
                  number(traced.sampledWallMs).c_str());
    std::ofstream(o.traceOut) << tracer.toJson(other);
  }

  const std::vector<Metric>& reported = o.trace ? layers : e2e;
  std::string json = "{\"correct\":";
  json += correct ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(t.ops);
  json += ",\"failed\":" + std::to_string(t.failed);
  json += ",\"metrics\":{";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    if (i > 0) json += ',';
    json += "\"" + reported[i].name + "\":{\"value\":" +
            number(reported[i].value) + ",\"unit\":\"" + reported[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace bba::e2e

int main(int argc, char** argv) {
  return bba::e2e::run(bba::e2e::parse(argc, argv));
}
