// Fleet-scale CooperationService benchmark: frames/sec, p50/p99 frame
// latency, coverage and shed counts as the peer count grows from a pair to
// a 256-vehicle fleet, with and without a per-frame recover budget.
//
// The fleet world comes from the procedural scenario with
// cooperativePeers = P: extra transmitting vehicles strung along the road,
// so the claimed poses naturally span in-range peers (admitted by the
// spatial pre-gate) and far-away ones (held at zero recover cost). Every
// peer transmits the same known-good template payload (the perf_micro
// fixture pair) with its OWN claimed pose prior embedded, so payload
// content is constant across peers while the admission decisions are
// realistic. Pose priors / consistency / health are off: the claims exist
// purely for the admission stage, not to warm-start or vote on tracks.
//
// Timing is manual (UseManualTime): each benchmark iteration is exactly
// one processFrame() call, so google-benchmark's real_time is the mean
// frame latency and the p50_ms / p99_ms counters are computed over the
// per-frame samples (frame 0 — session creation — excluded).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/bb_align.hpp"
#include "common/parallel.hpp"
#include "dataset/generator.hpp"
#include "dataset/sequence.hpp"
#include "obs/obs.hpp"
#include "service/admission.hpp"
#include "service/cooperation_service.hpp"

#ifndef BBA_BUILD_TYPE
#define BBA_BUILD_TYPE ""
#endif

namespace bba {
namespace {

/// Same known-success template pair as bench/perf_micro.cpp.
const FramePair& fixturePair() {
  static const FramePair pair = [] {
    DatasetConfig cfg;
    cfg.seed = 4242;
    return *DatasetGenerator(cfg).generatePair(0);
  }();
  return pair;
}

/// Percentile over a sorted sample set (nearest-rank).
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const std::size_t n = sorted.size();
  std::size_t idx = static_cast<std::size_t>(p * static_cast<double>(n));
  if (idx >= n) idx = n - 1;
  return sorted[idx];
}

/// One fleet configuration: peers sessions, each streaming the template
/// payload with its own claimed pose, budget recover slots per frame.
void BM_FleetFrame(benchmark::State& state) {
  const int peers = static_cast<int>(state.range(0));
  const int budget = static_cast<int>(state.range(1));
  ThreadLimit limit(static_cast<int>(state.range(2)));

  // Fleet world: only the trajectories are consumed (claims), never the
  // per-peer scans, so construction is cheap even at 256 peers.
  SequenceConfig seqCfg;
  seqCfg.seed = 4242;
  seqCfg.scenario.cooperativePeers = peers;
  const SequenceGenerator gen(seqCfg);

  service::ServiceConfig cfg;
  cfg.maxSessions = std::max(64, peers);
  cfg.enableReplayGuard = false;   // one payload per peer, replayed per frame
  cfg.usePosePriors = false;       // claims gate admission, not tracks
  cfg.enableHealth = false;        // template payload != claimed geometry
  cfg.budget.maxRecoversPerFrame = budget;
  service::CooperationService svc(cfg);

  const BBAlign aligner;
  const FramePair& pair = fixturePair();
  const CarPerceptionData ego =
      aligner.makeCarData(pair.egoCloud, pair.egoDets);
  const CarPerceptionData other =
      aligner.makeCarData(pair.otherCloud, pair.otherDets);

  // Per-peer payload: template content + that peer's claimed pose at t=0.
  const double bvRange = cfg.tracker.aligner.bev.range;
  std::vector<std::vector<std::uint8_t>> payloads;
  std::vector<service::PeerFrameInput> inputs;
  int admittable = 0;
  payloads.reserve(static_cast<std::size_t>(peers));
  for (int p = 0; p < peers; ++p) {
    const Pose2 claim = gen.gtPeerToEgoAt(p, 0.0, 0.0);
    if (service::preGateAdmits(claim, bvRange, cfg.pregate)) ++admittable;
    payloads.push_back(svc.sendFrame(other, static_cast<std::uint64_t>(p + 1),
                                     1, nullptr, &claim));
  }
  for (int p = 0; p < peers; ++p)
    inputs.push_back({static_cast<std::uint64_t>(p + 1), &payloads[
                          static_cast<std::size_t>(p)]});

  std::vector<double> frameMs;
  std::int64_t shed = 0;
  std::int64_t pregateSkipped = 0;
  std::vector<service::SessionFrameResult> last;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    last = svc.processFrame(ego, inputs);
    const auto t1 = std::chrono::steady_clock::now();
    const double seconds =
        std::chrono::duration<double>(t1 - t0).count();
    state.SetIterationTime(seconds);
    frameMs.push_back(seconds * 1e3);
    for (const service::SessionFrameResult& r : last) {
      if (r.shed) ++shed;
      if (r.pregateSkipped) ++pregateSkipped;
    }
  }

  // p50/p99 over steady-state frames (frame 0 pays session creation).
  std::vector<double> steady(frameMs.begin() + (frameMs.size() > 1 ? 1 : 0),
                             frameMs.end());
  std::sort(steady.begin(), steady.end());
  const double meanMs =
      steady.empty()
          ? 0.0
          : std::accumulate(steady.begin(), steady.end(), 0.0) /
                static_cast<double>(steady.size());
  // Coverage: fraction of pre-gate-admittable peers holding a valid pose
  // after the run — shedding must delay locks, never prevent them.
  int covered = 0;
  for (const service::SessionFrameResult& r : last)
    if (r.track.poseValid) ++covered;
  state.counters["p50_ms"] = percentile(steady, 0.50);
  state.counters["p99_ms"] = percentile(steady, 0.99);
  state.counters["fps"] = meanMs > 0.0 ? 1e3 / meanMs : 0.0;
  state.counters["coverage"] =
      admittable > 0 ? static_cast<double>(covered) /
                           static_cast<double>(admittable)
                     : 0.0;
  state.counters["admittable"] = static_cast<double>(admittable);
  state.counters["shed"] = static_cast<double>(shed);
  state.counters["pregate_skipped"] = static_cast<double>(pregateSkipped);
}
BENCHMARK(BM_FleetFrame)
    ->ArgNames({"peers", "budget", "threads"})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(12)
    ->Args({4, 0, 1})
    ->Args({4, 4, 1})
    ->Args({4, 8, 1})
    ->Args({16, 0, 1})
    ->Args({16, 4, 1})
    ->Args({16, 8, 1})
    ->Args({64, 0, 1})
    ->Args({64, 4, 1})
    ->Args({64, 8, 1})
    ->Args({256, 0, 1})
    ->Args({256, 4, 1})
    ->Args({256, 8, 1});

}  // namespace
}  // namespace bba

int main(int argc, char** argv) {
  bba::obs::EnvObservability obs;
  const char* buildType = BBA_BUILD_TYPE;
  benchmark::AddCustomContext("bba_build_type",
                              buildType[0] != '\0' ? buildType : "unknown");
  benchmark::AddCustomContext(
      "bba_host_cpus",
      std::to_string(std::thread::hardware_concurrency()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
