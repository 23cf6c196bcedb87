// Fleet-churn CooperationService benchmark (PR 10): 256 rotating peers
// pushed through a 64-slot session table under the dataset churn channel —
// the session-lifecycle stress case. Where bench/fleet_scale measures the
// steady-state fleet frame, this bench measures the frame cost WITH the
// admission/eviction/reaper/readmission machinery constantly turning the
// table over, and publishes the lifecycle tallies (evictions, reaps,
// readmissions, rejected-full, warm starts) as counters so BENCH_PR10.json
// records that the churn actually happened.
//
// Every present peer transmits the same known-good template payload (the
// perf_micro fixture pair) with its OWN claimed pose embedded, exactly as
// in fleet_scale: payload content is constant, admission decisions are
// realistic, and far-away peers are pre-gate-held at zero recover cost.
// Silent churn phases deliver a nullptr payload (the peer is on the link
// but mute); absent phases omit the peer entirely, which is what the
// reaper and the eviction scorer feed on.
//
// Timing is manual (UseManualTime): one iteration == one processFrame()
// call at a rolling frame index, so real_time is the mean frame latency
// under churn and p50_ms/p99_ms come from the per-frame samples.
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
#include "dataset/fault.hpp"
#include "dataset/generator.hpp"
#include "dataset/sequence.hpp"
#include "obs/obs.hpp"
#include "service/cooperation_service.hpp"
#include "service/session_lifecycle.hpp"

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

/// peers rotating vehicles contending for a slots-sized session table.
void BM_FleetChurn(benchmark::State& state) {
  const int peers = static_cast<int>(state.range(0));
  const int slots = static_cast<int>(state.range(1));
  ThreadLimit limit(static_cast<int>(state.range(2)));

  // Fleet world: only the trajectories are consumed (claims), never the
  // per-peer scans, so construction is cheap even at 256 peers.
  SequenceConfig seqCfg;
  seqCfg.seed = 4242;
  seqCfg.scenario.cooperativePeers = peers;
  const SequenceGenerator gen(seqCfg);

  // The churn schedule is the dataset fault channel, pure in
  // (seed, frame, peerId): short dwells, short gaps, a dash of silence.
  FaultConfig churnCfg;
  churnCfg.seed = 4242;
  churnCfg.churn.enable = true;
  churnCfg.churn.dwellMinFrames = 4;
  churnCfg.churn.dwellMaxFrames = 12;
  churnCfg.churn.gapMinFrames = 2;
  churnCfg.churn.gapMaxFrames = 8;
  churnCfg.churn.silenceProb = 0.05;

  service::ServiceConfig cfg;
  cfg.maxSessions = slots;
  // Tight silence budget: under full-table pressure the eviction scorer
  // usually claims a dark incumbent the moment a newcomer arrives, so a
  // higher budget would let eviction win every race and the reaper would
  // never fire. One tolerated silent frame keeps both paths exercised.
  cfg.lifecycle.maxSilentFrames = 1;
  cfg.enableReplayGuard = false;   // one payload per peer, replayed per frame
  cfg.usePosePriors = false;       // claims gate admission, not tracks
  cfg.enableHealth = false;        // template payload != claimed geometry
  cfg.budget.maxRecoversPerFrame = 8;
  service::CooperationService svc(cfg);

  const BBAlign aligner;
  const FramePair& pair = fixturePair();
  const CarPerceptionData ego =
      aligner.makeCarData(pair.egoCloud, pair.egoDets);
  const CarPerceptionData other =
      aligner.makeCarData(pair.otherCloud, pair.otherDets);

  // Per-peer payload: template content + that peer's claimed pose at t=0.
  std::vector<std::vector<std::uint8_t>> payloads;
  payloads.reserve(static_cast<std::size_t>(peers));
  for (int p = 0; p < peers; ++p) {
    const Pose2 claim = gen.gtPeerToEgoAt(p, 0.0, 0.0);
    payloads.push_back(svc.sendFrame(other, static_cast<std::uint64_t>(p + 1),
                                     1, nullptr, &claim));
  }

  std::vector<double> frameMs;
  int frame = 0;
  std::int64_t presentPeers = 0;
  for (auto _ : state) {
    std::vector<service::PeerFrameInput> inputs;
    for (int p = 0; p < peers; ++p) {
      const ChurnState s =
          churnState(churnCfg, frame, static_cast<std::uint64_t>(p + 1));
      if (s == ChurnState::Absent) continue;
      inputs.push_back({static_cast<std::uint64_t>(p + 1),
                        s == ChurnState::Silent
                            ? nullptr
                            : &payloads[static_cast<std::size_t>(p)]});
    }
    presentPeers += static_cast<std::int64_t>(inputs.size());
    const auto t0 = std::chrono::steady_clock::now();
    const auto results = svc.processFrame(ego, inputs);
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(results.data());
    const double seconds = std::chrono::duration<double>(t1 - t0).count();
    state.SetIterationTime(seconds);
    frameMs.push_back(seconds * 1e3);
    frame += 1;
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

  // Lifecycle tallies over live + retired rows: proof the table actually
  // turned over (the CI smoke asserts evictions >= 1 and readmissions >= 1).
  const service::ServiceReport rep = svc.report();
  std::int64_t evictions = 0, reaps = 0, readmissions = 0;
  for (const service::SessionStats& st : rep.sessions) {
    evictions += st.evictions;
    reaps += st.reaps;
    readmissions += st.readmissions;
  }
  state.counters["p50_ms"] = percentile(steady, 0.50);
  state.counters["p99_ms"] = percentile(steady, 0.99);
  state.counters["fps"] = meanMs > 0.0 ? 1e3 / meanMs : 0.0;
  state.counters["present_mean"] =
      frame > 0 ? static_cast<double>(presentPeers) / frame : 0.0;
  state.counters["live_sessions"] = static_cast<double>(svc.sessionCount());
  state.counters["retired"] = static_cast<double>(svc.retiredCount());
  state.counters["evictions"] = static_cast<double>(evictions);
  state.counters["reaps"] = static_cast<double>(reaps);
  state.counters["readmissions"] = static_cast<double>(readmissions);
  state.counters["rejected_full"] = static_cast<double>(rep.rejectedFull);
}
// The slots == peers row is the unpressured control: the table never
// fills, so no newcomer ever evicts and every churn gap must be closed
// by the silent-peer reaper instead — retirement there is reaper-only,
// while the oversubscribed rows are eviction-dominated (a dark incumbent
// becomes evictable one frame after going silent, and under constant
// admission pressure a newcomer claims it before the reap threshold).
BENCHMARK(BM_FleetChurn)
    ->ArgNames({"peers", "slots", "threads"})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(48)
    ->Args({64, 16, 1})
    ->Args({64, 64, 1})
    ->Args({256, 64, 1});

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
