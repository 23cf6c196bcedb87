// The four workloads of the end-to-end benchmark. Each one is a load
// generator (inputs built from the seed before any timing, in parallel
// across frames) plus the ego vehicle's closed perception loop over the
// public API: BBAlign::makeCarData on its own sweep, optionally
// CooperationService::recordEgoKeyframe, then CooperationService::
// processFrame — or PoseTracker::coastWithEgo when no peer is in range.
// Why each workload exists is recorded in README.md.

#include "common/parallel.hpp"
#include "dataset/fault.hpp"
#include "dataset/sequence.hpp"
#include "harness.hpp"

namespace bba::e2e {
namespace {

constexpr double kFramePeriodS = 0.1;

// Each segment replays a short fixed drive — world, link faults, odometry
// drift — and the seed picks where in the drive the segment starts. The
// work of a frame depends on its outcome (a failed lock buys a relaxed
// retry or a second relocalization candidate) and outcomes are chaotic in
// the starting frame, so a run averages several short drives rather than
// following one long one.
constexpr int kMaxStart = 2;

std::uint64_t driveSeed(int segment) {
  return 4242 + static_cast<std::uint64_t>(segment);
}

/// The run seed's stream for one segment.
std::uint64_t segmentSeed(std::uint64_t seed, int segment) {
  return seed * 1000 + static_cast<std::uint64_t>(segment);
}

int windowStart(std::uint64_t seed, int segment) {
  Rng rng(segmentSeed(seed, segment));
  return rng.uniformInt(0, kMaxStart);
}

/// Encoder side of the protocol (the peers' own cost, paid while the
/// inputs are generated): rasterize + wire-encode one remote sweep.
struct Sender {
  BBAlign aligner;
  service::CooperationService wire;

  std::vector<std::uint8_t> encode(const PointCloud& cloud,
                                   const Detections& dets,
                                   std::uint64_t senderId,
                                   std::uint32_t frameIndex,
                                   const Pose2* claim = nullptr,
                                   std::int64_t captureMicros = 0) const {
    return wire.sendFrame(aligner.makeCarData(cloud, dets), senderId,
                          frameIndex, nullptr, claim, captureMicros);
  }
};

struct EgoSweep {
  PointCloud cloud;
  Detections dets;
};

/// Run fn(i) for i in [0, n) across the library's parallel runtime.
template <typename Fn>
void forEachParallel(int n, Fn&& fn) {
  parallelFor(0, n, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) fn(static_cast<int>(i));
  });
}

// ---------------------------------------------------------------------------
// pair — the paper's setting: one peer per suburban drive, no pose claims,
// default ServiceConfig, a lossy link.
class PairWorkload final : public Workload {
 public:
  explicit PairWorkload(const WorkloadOptions& opt)
      : segments_(opt.segments), frames_(8) {
    // Link faults: 10% frame drops, 30% 120-degree sector drops, 10% stale
    // payloads, drawn per drive by the dataset's fault channel.
    std::vector<SequenceGenerator> gens;
    std::vector<int> start;
    for (int s = 0; s < segments_; ++s) {
      SequenceConfig sc;
      sc.seed = driveSeed(s);
      sc.frames = frames_ + kMaxStart;
      sc.faults.seed = driveSeed(s);
      sc.faults.frameDropProb = 0.1;
      sc.faults.sectorDropProb = 0.3;
      sc.faults.sectorWidthDeg = 120.0;
      sc.faults.latencyProb = 0.1;
      gens.emplace_back(sc);
      start.push_back(windowStart(opt.seed, s));
    }
    frames_data_.resize(static_cast<std::size_t>(segments_ * frames_));
    const Sender sender;
    forEachParallel(segments_ * frames_, [&](int i) {
      const int s = i / frames_, k = i % frames_;
      const auto seg = static_cast<std::size_t>(s);
      const StreamFrame f = gens[seg].frame(start[seg] + k);
      Frame& out = frames_data_[static_cast<std::size_t>(i)];
      out.ego = {f.egoCloud, f.egoDets};
      out.truth = {{true, f.gtDeliveredOtherToEgo}};
      // The sender's transmit counter advances every frame; stale
      // (latency-faulted) sweeps carry no capture stamp, so the replay
      // guard judges them by the counter alone.
      if (f.remoteReceived)
        out.payload = sender.encode(f.otherCloud, f.otherDets, peerId(s),
                                    static_cast<std::uint32_t>(k));
      out.inputs = {{peerId(s), f.remoteReceived ? &out.payload : nullptr}};
    });
  }

  int segments() const override { return segments_; }
  int framesPerSegment() const override { return frames_; }
  bool serialService() const override { return true; }

  void setUp(int, Tracer* tracer) override {
    Tracer::Scope span(tracer, "sut.construct");
    aligner_ = std::make_unique<BBAlign>();
    svc_ = std::make_unique<service::CooperationService>();
  }

  void step(int segment, int frame, Tracer* tracer, FrameOut& out) override {
    const Frame& f = frames_data_[static_cast<std::size_t>(
        segment * frames_ + frame)];
    Tracer::Scope mcd(tracer, "bev.make_car_data");
    const CarPerceptionData ego =
        aligner_->makeCarData(f.ego.cloud, f.ego.dets);
    out.makeCarDataMs = mcd.close();
    Tracer::Scope pf(tracer, "service.process_frame");
    out.results = svc_->processFrame(ego, f.inputs);
    out.processMs = pf.close();
    out.truth = &f.truth;
  }

  void tearDown(Tally&, Digest& digest) override {
    digest.str(svc_->report().toJson());
    svc_.reset();
    aligner_.reset();
  }

 private:
  struct Frame {
    EgoSweep ego;
    std::vector<std::uint8_t> payload;  ///< empty when the link drops it
    std::vector<service::PeerFrameInput> inputs;
    std::vector<InputTruth> truth;  ///< the one peer's delivered pose
  };
  /// A new vehicle per drive.
  static std::uint64_t peerId(int segment) {
    return static_cast<std::uint64_t>(segment) + 1;
  }

  int segments_;
  int frames_;
  std::vector<Frame> frames_data_;
  std::unique_ptr<BBAlign> aligner_;
  std::unique_ptr<service::CooperationService> svc_;
};

// ---------------------------------------------------------------------------
// fleet — 64 peers under default health, consistency, replay guard and
// pose priors: 8 in range (the lead car's real sweeps, captured 0..7 frames
// ago), 56 claiming positions >= 300 m away; a 4-slot frame budget; the
// ego records a map keyframe before every frame.
class FleetWorkload final : public Workload {
 public:
  static constexpr int kNear = 8;
  static constexpr int kFar = 56;
  /// In-range peer p sends the lead car's sweep captured p frames ago.
  static constexpr int kMaxLag = kNear - 1;

  explicit FleetWorkload(const WorkloadOptions& opt)
      : segments_(opt.segments), frames_(opt.smoke ? 8 : 9) {
    // World frames a segment needs: kMaxLag of history, then its frames.
    const int span = kMaxLag + frames_;
    segs_.resize(static_cast<std::size_t>(segments_));
    std::vector<SequenceGenerator> gens;
    for (int s = 0; s < segments_; ++s) {
      Segment& seg = segs_[static_cast<std::size_t>(s)];
      seg.start = windowStart(opt.seed, s);
      SequenceConfig sc;
      sc.seed = driveSeed(s);
      sc.frames = kMaxStart + span;
      gens.emplace_back(sc);
      seg.ego.resize(static_cast<std::size_t>(frames_));
      seg.egoGlobal.resize(static_cast<std::size_t>(frames_));
      seg.near.resize(static_cast<std::size_t>(frames_ * kNear));
      seg.inputs.resize(static_cast<std::size_t>(frames_));
      seg.truth.resize(static_cast<std::size_t>(frames_));
      seg.far.resize(kFar);
    }
    // Pass 1: sweeps; local index i is world frame start + i.
    std::vector<std::vector<StreamFrame>> frames(
        static_cast<std::size_t>(segments_),
        std::vector<StreamFrame>(static_cast<std::size_t>(span)));
    forEachParallel(segments_ * span, [&](int i) {
      const int s = i / span, j = i % span;
      frames[static_cast<std::size_t>(s)][static_cast<std::size_t>(j)] =
          gens[static_cast<std::size_t>(s)].frame(
              segs_[static_cast<std::size_t>(s)].start + j);
    });
    // Pass 2: encode what the in-range peers send; ego frame k is local
    // index kMaxLag + k.
    const Sender sender;
    forEachParallel(segments_ * frames_, [&](int i) {
      const int s = i / frames_, k = i % frames_;
      const SequenceGenerator& gen = gens[static_cast<std::size_t>(s)];
      const auto& fr = frames[static_cast<std::size_t>(s)];
      Segment& seg = segs_[static_cast<std::size_t>(s)];
      const int j = seg.start + kMaxLag + k;  // world frame of the ego
      const StreamFrame& now = fr[static_cast<std::size_t>(kMaxLag + k)];
      seg.ego[static_cast<std::size_t>(k)] = {now.egoCloud, now.egoDets};
      const World& world = gen.world();
      seg.egoGlobal[static_cast<std::size_t>(k)] =
          world.vehicleById(world.egoVehicleId)
              .trajectory.pose(j * kFramePeriodS);
      auto& truth = seg.truth[static_cast<std::size_t>(k)];
      truth.assign(kNear + kFar, InputTruth{});
      for (int p = 0; p < kNear; ++p) {
        const int src = j - p;
        const StreamFrame& then = fr[static_cast<std::size_t>(kMaxLag + k - p)];
        const Pose2 gt =
            gen.gtOtherToEgoAt(j * kFramePeriodS, src * kFramePeriodS);
        truth[static_cast<std::size_t>(p)] = {true, gt};
        seg.near[static_cast<std::size_t>(k * kNear + p)] = sender.encode(
            then.otherCloud, then.otherDets, static_cast<std::uint64_t>(p + 1),
            static_cast<std::uint32_t>(src), &gt,
            1'000'000 + static_cast<std::int64_t>(src) * 100'000);
      }
    });
    // Far peers: never decoded (held after a wire::peek), so one payload
    // each, sized like a real one, with a distinct far-away claim.
    forEachParallel(segments_ * kFar, [&](int i) {
      const int s = i / kFar, q = i % kFar;
      const StreamFrame& src = frames[static_cast<std::size_t>(s)]
                                     [static_cast<std::size_t>(q % span)];
      const Pose2 claim{300.0 + 10.0 * q, (q % 2 == 0 ? 1.0 : -1.0) * 25.0,
                        0.1 * (q % 7)};
      segs_[static_cast<std::size_t>(s)].far[static_cast<std::size_t>(q)] =
          sender.encode(src.otherCloud, src.otherDets,
                        static_cast<std::uint64_t>(kNear + q + 1), 1, &claim,
                        1'000'000);
    });
    for (Segment& seg : segs_) {
      for (int k = 0; k < frames_; ++k) {
        auto& inputs = seg.inputs[static_cast<std::size_t>(k)];
        for (int p = 0; p < kNear; ++p)
          inputs.push_back({static_cast<std::uint64_t>(p + 1),
                            &seg.near[static_cast<std::size_t>(k * kNear + p)]});
        for (int q = 0; q < kFar; ++q)
          inputs.push_back({static_cast<std::uint64_t>(kNear + q + 1),
                            &seg.far[static_cast<std::size_t>(q)]});
      }
    }
  }

  int segments() const override { return segments_; }
  int framesPerSegment() const override { return frames_; }

  void setUp(int, Tracer* tracer) override {
    Tracer::Scope span(tracer, "sut.construct");
    aligner_ = std::make_unique<BBAlign>();
    service::ServiceConfig cfg;
    cfg.budget.frameDeadlineMs = 800.0;
    svc_ = std::make_unique<service::CooperationService>(cfg);
    store_ = std::make_unique<map::KeyframeStore>();
    svc_->attachMapStore(store_.get());
  }

  void step(int segment, int frame, Tracer* tracer, FrameOut& out) override {
    const Segment& seg = segs_[static_cast<std::size_t>(segment)];
    const auto k = static_cast<std::size_t>(frame);
    Tracer::Scope mcd(tracer, "bev.make_car_data");
    const CarPerceptionData ego =
        aligner_->makeCarData(seg.ego[k].cloud, seg.ego[k].dets);
    out.makeCarDataMs = mcd.close();
    Tracer::Scope rec(tracer, "map.record_keyframe");
    out.insert = svc_->recordEgoKeyframe(ego, seg.egoGlobal[k]);
    out.recorded = true;
    out.recordMs = rec.close();
    Tracer::Scope pf(tracer, "service.process_frame");
    out.results = svc_->processFrame(ego, seg.inputs[k]);
    out.processMs = pf.close();
    out.truth = &seg.truth[k];
  }

  void tearDown(Tally& tally, Digest& digest) override {
    digest.str(svc_->report().toJson());
    digest.i64(static_cast<std::int64_t>(store_->size()));
    tally.mapSize.push_back(static_cast<double>(store_->size()));
    svc_.reset();
    store_.reset();
    aligner_.reset();
  }

 private:
  struct Segment {
    int start = 0;
    std::vector<EgoSweep> ego;
    std::vector<Pose2> egoGlobal;
    std::vector<std::vector<std::uint8_t>> near;  ///< [frame * kNear + p]
    std::vector<std::vector<std::uint8_t>> far;   ///< [q]
    std::vector<std::vector<service::PeerFrameInput>> inputs;  ///< [frame]
    std::vector<std::vector<InputTruth>> truth;                ///< [frame]
  };

  int segments_;
  int frames_;
  std::vector<Segment> segs_;
  std::unique_ptr<BBAlign> aligner_;
  std::unique_ptr<service::CooperationService> svc_;
  std::unique_ptr<map::KeyframeStore> store_;
};

// ---------------------------------------------------------------------------
// churn — 1024 out-of-range peers rotating through a 256-slot table under
// the dataset churn channel: no recover() runs, the frame is pure service
// work (admission, eviction, peek, skip, merge, reaper) plus pool dispatch.
// A churn schedule over hundreds of frames and peers is statistically the
// same for every seed, so here the seed draws the schedule itself.
class ChurnWorkload final : public Workload {
 public:
  static constexpr int kPeers = 1024;
  static constexpr int kSlots = 256;
  static constexpr int kEgoRing = 16;

  explicit ChurnWorkload(const WorkloadOptions& opt)
      : segments_(opt.segments), frames_(opt.smoke ? 200 : 400) {
    SequenceConfig sc;
    sc.seed = driveSeed(0);
    sc.frames = kEgoRing;
    const SequenceGenerator gen(sc);
    std::vector<StreamFrame> frames(kEgoRing);
    forEachParallel(kEgoRing, [&](int k) {
      frames[static_cast<std::size_t>(k)] = gen.frame(k);
    });
    for (const StreamFrame& f : frames)
      egoRing_.push_back({f.egoCloud, f.egoDets});
    // Each peer's payload is encoded once: real sweep content, its own far
    // claim (so no two peers' bytes match).
    const Sender sender;
    payloads_.resize(kPeers);
    forEachParallel(kPeers, [&](int p) {
      const StreamFrame& src = frames[static_cast<std::size_t>(p % kEgoRing)];
      const Pose2 claim{300.0 + 5.0 * (p % 64), 3.0 * (p / 64) - 24.0, 0.0};
      payloads_[static_cast<std::size_t>(p)] = sender.encode(
          src.otherCloud, src.otherDets, static_cast<std::uint64_t>(p + 1), 1,
          &claim, 1'000'000);
    });
    // The churn schedule (bench/fleet_churn's channel), pure in (segment
    // seed, frame, peer), materialized so the timed loop only hands inputs
    // over.
    schedule_.resize(static_cast<std::size_t>(segments_ * frames_));
    forEachParallel(segments_ * frames_, [&](int i) {
      const int s = i / frames_, k = i % frames_;
      FaultConfig churn;
      churn.seed = segmentSeed(opt.seed, s);
      churn.churn.enable = true;
      churn.churn.dwellMinFrames = 4;
      churn.churn.dwellMaxFrames = 12;
      churn.churn.gapMinFrames = 2;
      churn.churn.gapMaxFrames = 8;
      churn.churn.silenceProb = 0.05;
      auto& inputs = schedule_[static_cast<std::size_t>(i)];
      for (int p = 0; p < kPeers; ++p) {
        const auto id = static_cast<std::uint64_t>(p + 1);
        const ChurnState st = churnState(churn, k, id);
        if (st == ChurnState::Absent) continue;
        inputs.push_back({id, st == ChurnState::Silent
                                  ? nullptr
                                  : &payloads_[static_cast<std::size_t>(p)]});
      }
    });
  }

  int segments() const override { return segments_; }
  int framesPerSegment() const override { return frames_; }
  bool serialService() const override { return true; }

  void setUp(int, Tracer* tracer) override {
    Tracer::Scope span(tracer, "sut.construct");
    aligner_ = std::make_unique<BBAlign>();
    service::ServiceConfig cfg;
    cfg.maxSessions = kSlots;
    cfg.lifecycle.maxSilentFrames = 1;
    svc_ = std::make_unique<service::CooperationService>(cfg);
  }

  void step(int segment, int frame, Tracer* tracer, FrameOut& out) override {
    const EgoSweep& e = egoRing_[static_cast<std::size_t>(frame % kEgoRing)];
    Tracer::Scope mcd(tracer, "bev.make_car_data");
    const CarPerceptionData ego = aligner_->makeCarData(e.cloud, e.dets);
    out.makeCarDataMs = mcd.close();
    Tracer::Scope pf(tracer, "service.process_frame");
    out.results = svc_->processFrame(
        ego, schedule_[static_cast<std::size_t>(segment * frames_ + frame)]);
    out.processMs = pf.close();
  }

  void tearDown(Tally& tally, Digest& digest) override {
    const service::ServiceReport rep = svc_->report();
    tally.reaped += rep.aggregate.reaps;
    digest.str(rep.toJson());
    svc_.reset();
    aligner_.reset();
  }

 private:
  int segments_;
  int frames_;
  std::vector<EgoSweep> egoRing_;
  std::vector<std::vector<std::uint8_t>> payloads_;
  std::vector<std::vector<service::PeerFrameInput>> schedule_;
  std::unique_ptr<BBAlign> aligner_;
  std::unique_ptr<service::CooperationService> svc_;
};

// ---------------------------------------------------------------------------
// reloc — no peer in range: the ego relocalizes against a keyframe map of
// the road around it, built from the lead car's sweeps of the same stretch
// of time (VLP-16, at its own global poses, 4 m apart), with its odometry
// prior drifted by (1.2 m, -0.9 m, 0.05 rad). Moving traffic sits where the
// map saw it, so stage 2's box pairing can confirm a lock.
class RelocWorkload final : public Workload {
 public:
  explicit RelocWorkload(const WorkloadOptions& opt)
      : segments_(opt.segments), frames_(8) {
    // The map spans a few frames beyond the ego's last position.
    const int mapFrames = frames_ + 6;
    segs_.resize(static_cast<std::size_t>(segments_));
    std::vector<SequenceGenerator> gens;
    for (int s = 0; s < segments_; ++s) {
      Segment& seg = segs_[static_cast<std::size_t>(s)];
      seg.start = windowStart(opt.seed, s);
      SequenceConfig sc;
      sc.seed = driveSeed(s);
      sc.frames = kMaxStart + mapFrames;
      gens.emplace_back(sc);
      // Keyframe selection by the same 4 m gap the store dedups with, so
      // set-up never rasterizes a sweep the store would skip.
      const World& w = gens.back().world();
      const double gap = map::KeyframeStoreConfig{}.keyframeGapM;
      for (int j = seg.start; j < seg.start + mapFrames; ++j) {
        const Pose2 p =
            w.vehicleById(w.otherVehicleId).trajectory.pose(j * kFramePeriodS);
        if (seg.mapFrames.empty() ||
            (p.t - seg.mapPoses.back().t).norm() >= gap) {
          seg.mapFrames.push_back(j);
          seg.mapPoses.push_back(p);
        }
      }
      seg.mapSweeps.resize(seg.mapFrames.size());
      seg.ego.resize(static_cast<std::size_t>(frames_));
      seg.egoGt.resize(static_cast<std::size_t>(frames_));
    }
    struct Job {
      int segment, index;
      bool map;
    };
    std::vector<Job> jobs;
    for (int s = 0; s < segments_; ++s) {
      const Segment& seg = segs_[static_cast<std::size_t>(s)];
      for (std::size_t m = 0; m < seg.mapFrames.size(); ++m)
        jobs.push_back({s, static_cast<int>(m), true});
      for (int k = 0; k < frames_; ++k) jobs.push_back({s, k, false});
    }
    forEachParallel(static_cast<int>(jobs.size()), [&](int i) {
      const Job& job = jobs[static_cast<std::size_t>(i)];
      const SequenceGenerator& gen = gens[static_cast<std::size_t>(job.segment)];
      Segment& seg = segs_[static_cast<std::size_t>(job.segment)];
      const auto idx = static_cast<std::size_t>(job.index);
      if (job.map) {
        PeerObservation o = gen.peerObservation(seg.mapFrames[idx], 0);
        seg.mapSweeps[idx] = {std::move(o.cloud), std::move(o.dets)};
      } else {
        const int j = seg.start + job.index;
        StreamFrame f = gen.frame(j);
        seg.ego[idx] = {std::move(f.egoCloud), std::move(f.egoDets)};
        const World& w = gen.world();
        seg.egoGt[idx] =
            w.vehicleById(w.egoVehicleId).trajectory.pose(j * kFramePeriodS);
      }
    });
  }

  int segments() const override { return segments_; }
  int framesPerSegment() const override { return frames_; }

  void setUp(int segment, Tracer* tracer) override {
    const Segment& seg = segs_[static_cast<std::size_t>(segment)];
    {
      Tracer::Scope span(tracer, "sut.construct");
      aligner_ = std::make_unique<BBAlign>();
      store_ = std::make_unique<map::KeyframeStore>();
      tracker_ = std::make_unique<PoseTracker>();
      tracker_->attachMapStore(store_.get());
      rng_ = std::make_unique<Rng>(driveSeed(segment));
    }
    Tracer::Scope span(tracer, "map.build");
    for (std::size_t m = 0; m < seg.mapSweeps.size(); ++m) {
      CarPerceptionData data = aligner_->makeCarData(seg.mapSweeps[m].cloud,
                                                     seg.mapSweeps[m].dets);
      const auto feats = aligner_->computeEgoFeatures(data);
      store_->insert(seg.mapPoses[m], feats->descriptors, std::move(data));
    }
  }

  void step(int segment, int frame, Tracer* tracer, FrameOut& out) override {
    const Segment& seg = segs_[static_cast<std::size_t>(segment)];
    const auto k = static_cast<std::size_t>(frame);
    Tracer::Scope mcd(tracer, "bev.make_car_data");
    const CarPerceptionData ego =
        aligner_->makeCarData(seg.ego[k].cloud, seg.ego[k].dets);
    out.makeCarDataMs = mcd.close();
    tracker_->setEgoPosePrior(seg.egoGt[k].compose(Pose2{1.2, -0.9, 0.05}));
    Tracer::Scope cw(tracer, "map.coast_with_ego");
    out.coast = tracker_->coastWithEgo(ego, *rng_, &out.coastReport);
    out.coasted = true;
    out.coastMs = cw.close();
    out.egoGt = seg.egoGt[k];
  }

  void tearDown(Tally& tally, Digest& digest) override {
    digest.i64(static_cast<std::int64_t>(store_->size()));
    digest.i64(tracker_->framesProcessed());
    tally.mapSize.push_back(static_cast<double>(store_->size()));
    tracker_.reset();
    store_.reset();
    aligner_.reset();
    rng_.reset();
  }

 private:
  struct Segment {
    int start = 0;
    std::vector<int> mapFrames;
    std::vector<Pose2> mapPoses;
    std::vector<EgoSweep> mapSweeps;
    std::vector<EgoSweep> ego;
    std::vector<Pose2> egoGt;
  };

  int segments_;
  int frames_;
  std::vector<Segment> segs_;
  std::unique_ptr<BBAlign> aligner_;
  std::unique_ptr<map::KeyframeStore> store_;
  std::unique_ptr<PoseTracker> tracker_;
  std::unique_ptr<Rng> rng_;
};

}  // namespace

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       const WorkloadOptions& opt) {
  if (name == "pair") return std::make_unique<PairWorkload>(opt);
  if (name == "fleet") return std::make_unique<FleetWorkload>(opt);
  if (name == "churn") return std::make_unique<ChurnWorkload>(opt);
  if (name == "reloc") return std::make_unique<RelocWorkload>(opt);
  return nullptr;
}

RunShape runShape(const std::string& name) {
  if (name == "pair") return {1.7, 4};
  // fleet's frames cost 2.5x the others': a fourth replay would stretch its
  // run past the others' by a third without steadying it measurably.
  if (name == "fleet") return {3.6, 3};
  if (name == "churn") return {1.4, 4};
  if (name == "reloc") return {1.65, 4};
  return {};
}

}  // namespace bba::e2e
