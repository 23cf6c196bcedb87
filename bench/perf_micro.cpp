// Runtime microbenchmarks (google-benchmark): the cost of each BB-Align
// stage. The paper's future work targets BV-matching time efficiency; this
// bench quantifies where the time goes.
//
// Every stage benchmark takes a `threads` argument: /1 is the serial
// baseline (ThreadLimit(1), fully inline execution), /N exercises the
// work-sharing pool of common/parallel.hpp. Run the binary directly with
// --benchmark_format=json --benchmark_out=raw.json; tools/check_bench.py
// raw.json checks the pinned stages against bench/baseline.json.
//
// Setting BBA_TRACE_OUT / BBA_METRICS_OUT additionally writes a Chrome
// trace / metrics-registry JSON covering the whole run (see src/obs).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <thread>

#include "bev/bev_image.hpp"
#include "common/parallel.hpp"
#include "core/bb_align.hpp"
#include "dataset/generator.hpp"
#include "features/mim.hpp"
#include "match/ransac.hpp"
#include "obs/obs.hpp"
#include "service/cooperation_service.hpp"

// Build type of the *bba library* under test, injected by bench/
// targets.cmake from the CMake configuration. The system libbenchmark
// package hardcodes its own "library_build_type" (its build, not ours)
// into the JSON context, so we publish the truth under a separate key, and
// tools/check_bench.py fails any run whose bba_build_type is not release.
#ifndef BBA_BUILD_TYPE
#define BBA_BUILD_TYPE ""
#endif

namespace bba {
namespace {

/// Thread count for the "threaded" variant: all hardware threads, but at
/// least 4 so the pool is exercised even on small CI hosts.
int threadedArg() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(4, static_cast<int>(hw));
}

void threadArgs(benchmark::internal::Benchmark* b) {
  b->ArgName("threads")->Arg(1)->Arg(threadedArg());
}

/// A frame pair BB-Align is known to recover successfully with Rng(3)
/// (pair 0 of the cooperative_detection example's dataset; same fixture
/// as tests/obs_test.cpp). The previous fixture (seed=77, sep 30-40)
/// always failed stage 2 (inliersBox=4 < 6), so BM_RecoverPose was
/// timing the failure path.
const FramePair& fixturePair() {
  static const FramePair pair = [] {
    DatasetConfig cfg;
    cfg.seed = 4242;
    return *DatasetGenerator(cfg).generatePair(0);
  }();
  return pair;
}

const BBAlign& fixtureAligner() {
  static const BBAlign aligner;
  return aligner;
}

void BM_Fft2d256(benchmark::State& state) {
  ThreadLimit limit(static_cast<int>(state.range(0)));
  ComplexImage img(256, 256);
  for (int i = 0; i < 256 * 256; ++i)
    img.data()[static_cast<std::size_t>(i)] =
        Complexf(static_cast<float>(i % 13), 0.0f);
  for (auto _ : state) {
    fft2d(img, false);
    fft2d(img, true);
    benchmark::DoNotOptimize(img.data());
  }
}
BENCHMARK(BM_Fft2d256)->Apply(threadArgs);

void BM_BvImage(benchmark::State& state) {
  ThreadLimit limit(static_cast<int>(state.range(0)));
  const FramePair& pair = fixturePair();
  const BevParams bev;
  for (auto _ : state) {
    benchmark::DoNotOptimize(makeHeightBV(pair.egoCloud, bev));
  }
}
BENCHMARK(BM_BvImage)->Apply(threadArgs);

void BM_MimComputation(benchmark::State& state) {
  ThreadLimit limit(static_cast<int>(state.range(0)));
  const FramePair& pair = fixturePair();
  const BevParams bev;
  const ImageF bv = makeHeightBV(pair.egoCloud, bev);
  const LogGaborBank bank(bv.width(), bv.height());
  for (auto _ : state) {
    benchmark::DoNotOptimize(computeMim(bv, bank));
  }
}
BENCHMARK(BM_MimComputation)->Apply(threadArgs);

void BM_DescribeBvImage(benchmark::State& state) {
  ThreadLimit limit(static_cast<int>(state.range(0)));
  const FramePair& pair = fixturePair();
  const BBAlign& aligner = fixtureAligner();
  const CarPerceptionData data =
      aligner.makeCarData(pair.egoCloud, pair.egoDets);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aligner.describe(data.bvImage));
  }
}
BENCHMARK(BM_DescribeBvImage)->Apply(threadArgs);

void BM_RecoverPose(benchmark::State& state) {
  ThreadLimit limit(static_cast<int>(state.range(0)));
  const FramePair& pair = fixturePair();
  const BBAlign& aligner = fixtureAligner();
  const CarPerceptionData ego =
      aligner.makeCarData(pair.egoCloud, pair.egoDets);
  const CarPerceptionData other =
      aligner.makeCarData(pair.otherCloud, pair.otherDets);
  for (auto _ : state) {
    // Fresh Rng(3) per iteration: every measured recover() walks the
    // known-success path, not whatever a drifted RANSAC stream finds.
    Rng rng(3);
    benchmark::DoNotOptimize(aligner.recover(other, ego, rng));
  }
}
BENCHMARK(BM_RecoverPose)->Apply(threadArgs);

void BM_RansacRigid2D(benchmark::State& state) {
  ThreadLimit limit(static_cast<int>(state.range(0)));
  Rng rng(5);
  const Pose2 truth{Vec2{3.0, -2.0}, 0.3};
  std::vector<Vec2> src, dst;
  for (int i = 0; i < 200; ++i) {
    const Vec2 p{rng.uniform(-50, 50), rng.uniform(-50, 50)};
    src.push_back(p);
    if (i % 3 == 0) {
      dst.push_back(Vec2{rng.uniform(-50, 50), rng.uniform(-50, 50)});
    } else {
      dst.push_back(truth.apply(p) +
                    Vec2{rng.normal(0, 0.1), rng.normal(0, 0.1)});
    }
  }
  const RansacParams prm;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ransacRigid2D(src, dst, prm, rng));
  }
}
BENCHMARK(BM_RansacRigid2D)->Apply(threadArgs);

/// One CooperationService frame with `peers` sessions all streaming the
/// fixture payload. With the frame-scoped ego-feature cache the ego
/// pipeline runs once per frame regardless of peer count, so ns/frame
/// grows sub-linearly in `peers` (the per-peer residual is decode +
/// other-image features + match + RANSAC). The replay guard is off so one
/// pre-encoded payload can be replayed every iteration.
void BM_ServiceProcessFrame(benchmark::State& state) {
  ThreadLimit limit(static_cast<int>(state.range(1)));
  const FramePair& pair = fixturePair();
  service::ServiceConfig cfg;
  cfg.enableReplayGuard = false;
  service::CooperationService svc(cfg);
  const BBAlign& aligner = fixtureAligner();
  const CarPerceptionData ego =
      aligner.makeCarData(pair.egoCloud, pair.egoDets);
  const CarPerceptionData other =
      aligner.makeCarData(pair.otherCloud, pair.otherDets);
  const std::vector<std::uint8_t> payload = svc.sendFrame(other, 1, 1);

  const int peers = static_cast<int>(state.range(0));
  std::vector<service::PeerFrameInput> inputs;
  for (int p = 0; p < peers; ++p)
    inputs.push_back({static_cast<std::uint64_t>(p + 1), &payload});
  for (auto _ : state) {
    benchmark::DoNotOptimize(svc.processFrame(ego, inputs));
  }
}
BENCHMARK(BM_ServiceProcessFrame)
    ->ArgNames({"peers", "threads"})
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({4, 1})
    ->Args({4, 4});

}  // namespace
}  // namespace bba

// Custom main (instead of benchmark_main) so the env-driven observability
// sinks are installed before any benchmark runs and flushed after the last.
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
