// Tests for the deterministic parallel runtime (common/parallel.hpp) and
// the thread-count-invariance contract of the BV-matching pipeline: every
// result must be byte-identical at BBA_THREADS=1 and BBA_THREADS=8.
#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/bb_align.hpp"
#include "dataset/generator.hpp"
#include "features/mim.hpp"

namespace bba {
namespace {

TEST(ParallelFor, EmptyRangeNeverInvokes) {
  std::atomic<int> calls{0};
  parallelFor(0, 0, 4, [&](std::int64_t, std::int64_t) { ++calls; });
  parallelFor(5, 5, 1, [&](std::int64_t, std::int64_t) { ++calls; });
  parallelFor(7, 3, 2, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, RangeSmallerThanGrainIsOneChunk) {
  std::atomic<int> calls{0};
  std::int64_t seenBegin = -1, seenEnd = -1;
  parallelFor(2, 5, 100, [&](std::int64_t b, std::int64_t e) {
    ++calls;
    seenBegin = b;
    seenEnd = e;
  });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(seenBegin, 2);
  EXPECT_EQ(seenEnd, 5);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  constexpr int kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  ThreadLimit limit(8);
  parallelFor(0, kN, 7, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) hits[static_cast<std::size_t>(i)]++;
  });
  for (int i = 0; i < kN; ++i) EXPECT_EQ(hits[static_cast<std::size_t>(i)], 1);
}

TEST(ParallelFor, ChunkBoundariesIndependentOfThreadCount) {
  const auto boundaries = [](int threads) {
    std::vector<std::pair<std::int64_t, std::int64_t>> out;
    std::mutex m;
    ThreadLimit limit(threads);
    parallelFor(3, 250, 16, [&](std::int64_t b, std::int64_t e) {
      std::lock_guard<std::mutex> lk(m);
      out.emplace_back(b, e);
    });
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(boundaries(1), boundaries(8));
  EXPECT_EQ(chunkCount(3, 250, 16), static_cast<std::int64_t>(boundaries(1).size()));
}

TEST(ParallelFor, ExceptionPropagatesFromWorkerChunk) {
  for (int threads : {1, 8}) {
    ThreadLimit limit(threads);
    EXPECT_THROW(
        parallelFor(0, 100, 1,
                    [&](std::int64_t b, std::int64_t) {
                      if (b == 42) throw std::runtime_error("chunk 42");
                    }),
        std::runtime_error);
  }
}

TEST(ParallelFor, NestedCallsRunInlineWithoutDeadlock) {
  ThreadLimit limit(8);
  std::atomic<long> total{0};
  parallelFor(0, 16, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      // Nested region: must complete inline on this thread.
      parallelFor(0, 100, 10, [&](std::int64_t nb, std::int64_t ne) {
        for (std::int64_t j = nb; j < ne; ++j) total += 1;
      });
    }
  });
  EXPECT_EQ(total.load(), 16 * 100);
}

TEST(ParallelFor, LoneChunkNestedRegionFansOut) {
  // A one-chunk region claims no pool, so a 2-chunk region nested inside
  // it gets a worker. Its chunks meet at a rendezvous that only two
  // threads running at once can pass; run one after the other on a single
  // thread, the first chunk times out alone.
  ThreadLimit limit(4);
  std::atomic<int> arrived{0};
  std::atomic<int> met{0};
  parallelFor(0, 1, 1, [&](std::int64_t, std::int64_t) {
    parallelFor(0, 2, 1, [&](std::int64_t, std::int64_t) {
      ++arrived;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(2);
      while (arrived.load() < 2 && std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
      if (arrived.load() == 2) ++met;
    });
  });
  EXPECT_EQ(met.load(), 2);
}

TEST(ParallelFor, LoneChunkNestedRegionStaysOnCallerAtThreadLimitOne) {
  ThreadLimit limit(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::int64_t> order;
  parallelFor(0, 1, 1, [&](std::int64_t, std::int64_t) {
    parallelFor(0, 40, 8, [&](std::int64_t b, std::int64_t) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(b);
    });
  });
  std::vector<std::int64_t> expected{0, 8, 16, 24, 32};
  EXPECT_EQ(order, expected);
}

TEST(ParallelFor, LoneChunkInsideRegionKeepsNestedCallsInline) {
  // The lone chunk does not reopen the pool to calls nested in a
  // multi-chunk region: they stay on the thread running the outer chunk.
  ThreadLimit limit(4);
  std::atomic<int> offThread{0};
  std::atomic<int> calls{0};
  parallelFor(0, 4, 1, [&](std::int64_t, std::int64_t) {
    const std::thread::id outer = std::this_thread::get_id();
    parallelFor(0, 1, 1, [&](std::int64_t, std::int64_t) {
      parallelFor(0, 8, 1, [&](std::int64_t, std::int64_t) {
        ++calls;
        if (std::this_thread::get_id() != outer) ++offThread;
      });
    });
  });
  EXPECT_EQ(calls.load(), 4 * 8);
  EXPECT_EQ(offThread.load(), 0);
}

TEST(ParallelFor, ThreadLimitCapsConcurrency) {
  ThreadLimit limit(2);
  std::atomic<int> active{0};
  std::atomic<int> highWater{0};
  parallelFor(0, 64, 1, [&](std::int64_t, std::int64_t) {
    const int now = ++active;
    int hw = highWater.load();
    while (now > hw && !highWater.compare_exchange_weak(hw, now)) {
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    --active;
  });
  EXPECT_LE(highWater.load(), 2);
  EXPECT_GE(highWater.load(), 1);
}

TEST(ParallelFor, ThreadLimitOneRunsOnCallerInOrder) {
  ThreadLimit limit(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::int64_t> order;
  parallelFor(0, 40, 8, [&](std::int64_t b, std::int64_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(b);
  });
  std::vector<std::int64_t> expected{0, 8, 16, 24, 32};
  EXPECT_EQ(order, expected);
}

TEST(MaxThreads, HonorsBbaThreadsEnvAndThreadLimit) {
  ASSERT_EQ(setenv("BBA_THREADS", "3", 1), 0);
  EXPECT_EQ(maxThreads(), 3);
  {
    ThreadLimit limit(5);
    EXPECT_EQ(maxThreads(), 5);  // innermost override wins over env
    {
      ThreadLimit inner(2);
      EXPECT_EQ(maxThreads(), 2);
    }
    EXPECT_EQ(maxThreads(), 5);
  }
  EXPECT_EQ(maxThreads(), 3);

  ASSERT_EQ(setenv("BBA_THREADS", "garbage", 1), 0);
  EXPECT_GE(maxThreads(), 1);  // invalid values fall back to hardware
  ASSERT_EQ(unsetenv("BBA_THREADS"), 0);
  EXPECT_GE(maxThreads(), 1);
}

// ---------------------------------------------------------------------------
// Thread-count invariance: the determinism contract of the tentpole. The
// recovered T_2D, the MIM rasters, and the keypoint/descriptor lists must
// be byte-identical at 1 and 8 threads on several generated frame pairs.

template <typename T>
void expectImageBytesEqual(const Image<T>& a, const Image<T>& b) {
  ASSERT_EQ(a.width(), b.width());
  ASSERT_EQ(a.height(), b.height());
  ASSERT_EQ(a.data().size(), b.data().size());
  EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                        a.data().size() * sizeof(T)),
            0);
}

struct PipelineOutputs {
  MimResult mim;
  DescriptorSet descriptors;
  PoseRecoveryResult pose;
};

PipelineOutputs runPipeline(const BBAlign& aligner, const FramePair& pair,
                            int threads) {
  ThreadLimit limit(threads);
  const CarPerceptionData ego =
      aligner.makeCarData(pair.egoCloud, pair.egoDets);
  const CarPerceptionData other =
      aligner.makeCarData(pair.otherCloud, pair.otherDets);
  Rng rng(1234);
  return PipelineOutputs{aligner.computeImageMim(ego.bvImage),
                         aligner.computeEgoFeatures(ego)->descriptors,
                         aligner.recover(other, ego, rng)};
}

TEST(ThreadCountInvariance, PipelineIsByteIdenticalAt1And8Threads) {
  DatasetConfig cfg;
  cfg.seed = 2026;
  cfg.minSeparation = 20.0;
  cfg.maxSeparation = 35.0;
  DatasetGenerator gen(cfg);
  const BBAlign aligner;

  for (int frame = 0; frame < 3; ++frame) {
    const auto pair = gen.generatePair(frame);
    ASSERT_TRUE(pair);
    const PipelineOutputs serial = runPipeline(aligner, *pair, 1);
    const PipelineOutputs threaded = runPipeline(aligner, *pair, 8);

    // MIM rasters, byte for byte.
    expectImageBytesEqual(serial.mim.mim, threaded.mim.mim);
    expectImageBytesEqual(serial.mim.peakAmplitude, threaded.mim.peakAmplitude);
    expectImageBytesEqual(serial.mim.totalAmplitude,
                          threaded.mim.totalAmplitude);
    expectImageBytesEqual(serial.mim.orientation, threaded.mim.orientation);

    // Keypoints and descriptors, element for element.
    ASSERT_EQ(serial.descriptors.size(), threaded.descriptors.size());
    for (std::size_t i = 0; i < serial.descriptors.size(); ++i) {
      const Keypoint& ka = serial.descriptors.keypoint(i);
      const Keypoint& kb = threaded.descriptors.keypoint(i);
      EXPECT_EQ(std::memcmp(&ka.px, &kb.px, sizeof(ka.px)), 0);
      EXPECT_EQ(ka.orientation, kb.orientation);
      EXPECT_TRUE(std::ranges::equal(serial.descriptors.descriptor(i),
                                     threaded.descriptors.descriptor(i)));
    }

    // Recovered poses: both stages, bit for bit.
    EXPECT_EQ(serial.pose.estimate.t.x, threaded.pose.estimate.t.x);
    EXPECT_EQ(serial.pose.estimate.t.y, threaded.pose.estimate.t.y);
    EXPECT_EQ(serial.pose.estimate.theta, threaded.pose.estimate.theta);
    EXPECT_EQ(serial.pose.stage1.t.x, threaded.pose.stage1.t.x);
    EXPECT_EQ(serial.pose.stage1.t.y, threaded.pose.stage1.t.y);
    EXPECT_EQ(serial.pose.stage1.theta, threaded.pose.stage1.theta);
    EXPECT_EQ(serial.pose.inliersBv, threaded.pose.inliersBv);
    EXPECT_EQ(serial.pose.inliersBox, threaded.pose.inliersBox);
    EXPECT_EQ(serial.pose.success, threaded.pose.success);
  }
}

}  // namespace
}  // namespace bba
