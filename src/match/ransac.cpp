#include "match/ransac.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/assert.hpp"
#include "common/parallel.hpp"
#include "geom/kabsch.hpp"
#include "obs/metrics.hpp"

namespace bba {

namespace {

/// Iteration grain for the parallel hypothesis sweeps. Fixed (never a
/// function of the thread count) so chunk boundaries — and therefore all
/// per-chunk partial results — are reproducible at any BBA_THREADS.
constexpr std::int64_t kIterGrain = 256;

/// Angular distance modulo pi, in [0, pi/2]. Orientations from the MIM are
/// pi-periodic (a line has no front/back).
double angDistPi(double a) {
  a = std::fmod(a, std::numbers::pi);
  if (a < 0.0) a += std::numbers::pi;
  return std::min(a, std::numbers::pi - a);
}

struct Gate {
  std::span<const double> srcOrient;
  std::span<const double> dstOrient;
  double tolerance = 0.0;

  [[nodiscard]] bool enabled() const { return !srcOrient.empty(); }
  [[nodiscard]] bool pass(std::size_t i, double theta) const {
    if (!enabled()) return true;
    return angDistPi(dstOrient[i] - srcOrient[i] - theta) <= tolerance;
  }
};

int countInliers(const Pose2& T, std::span<const Vec2> src,
                 std::span<const Vec2> dst, double threshold,
                 const Gate& gate, std::vector<int>* indices) {
  const double t2 = threshold * threshold;
  int count = 0;
  if (indices) indices->clear();
  for (std::size_t i = 0; i < src.size(); ++i) {
    if ((dst[i] - T.apply(src[i])).squaredNorm() > t2) continue;
    if (!gate.pass(i, T.theta)) continue;
    ++count;
    if (indices) indices->push_back(static_cast<int>(i));
  }
  return count;
}

Pose2 fitFromIndices(std::span<const Vec2> src, std::span<const Vec2> dst,
                     const std::vector<int>& idx) {
  std::vector<Vec2> s, d;
  s.reserve(idx.size());
  d.reserve(idx.size());
  for (int i : idx) {
    s.push_back(src[static_cast<std::size_t>(i)]);
    d.push_back(dst[static_cast<std::size_t>(i)]);
  }
  return estimateRigid2D(s, d);
}

bool similarTransforms(const Pose2& a, const Pose2& b) {
  return (a.t - b.t).norm() < 2.0 &&
         angularDistance(a.theta, b.theta) < 6.0 * kDegToRad;
}

/// The cheap part of one RANSAC iteration: draw a 2-point minimal sample
/// from the iteration's counter-based substream and run every filter that
/// doesn't need the full correspondence set (degeneracy, length
/// preservation, theta prior, orientation gate on the sample, translation
/// bound). Returns true with the hypothesis in `out` if it survives.
///
/// Everything here is a pure function of (base, it, inputs), so iterations
/// can run in any order on any number of threads and produce the same
/// hypothesis stream.
bool sampleHypothesis(std::uint64_t base, std::int64_t it,
                      std::span<const Vec2> src, std::span<const Vec2> dst,
                      const RansacParams& prm, const Gate& gate, Pose2* out) {
  const int n = static_cast<int>(src.size());
  CounterRng cr(base, static_cast<std::uint64_t>(it));
  const int i = cr.uniformInt(0, n - 1);
  const int j = cr.uniformInt(0, n - 1);
  if (i == j) return false;

  const Vec2 sv =
      src[static_cast<std::size_t>(j)] - src[static_cast<std::size_t>(i)];
  const Vec2 dv =
      dst[static_cast<std::size_t>(j)] - dst[static_cast<std::size_t>(i)];
  const double sn = sv.norm();
  if (sn < prm.minPairSeparation) return false;
  // A rigid transform preserves lengths: prune grossly inconsistent pairs
  // before the (more expensive) inlier count.
  if (std::abs(sn - dv.norm()) > 2.0 * prm.inlierThreshold) return false;

  const double theta = std::atan2(dv.y, dv.x) - std::atan2(sv.y, sv.x);
  if (prm.thetaPriorModPi >= 0.0 &&
      angDistPi(theta - prm.thetaPriorModPi) > prm.thetaPriorTolerance)
    return false;
  // The minimal sample must itself pass the orientation gate.
  if (!gate.pass(static_cast<std::size_t>(i), theta) ||
      !gate.pass(static_cast<std::size_t>(j), theta))
    return false;

  const Vec2 t = dst[static_cast<std::size_t>(i)] -
                 src[static_cast<std::size_t>(i)].rotated(theta);
  if (prm.maxTranslationNorm >= 0.0 && t.norm() > prm.maxTranslationNorm)
    return false;
  *out = Pose2{t, wrapAngle(theta)};
  return true;
}

RansacResult refineWithGate(const Pose2& initial, std::span<const Vec2> src,
                            std::span<const Vec2> dst,
                            const RansacParams& prm, const Gate& gate) {
  RansacResult best;
  best.transform = initial;
  best.inlierCount = countInliers(initial, src, dst, prm.inlierThreshold,
                                  gate, &best.inlierIndices);
  for (int round = 0; round < prm.refineRounds; ++round) {
    if (best.inlierIndices.size() < 2) break;
    const Pose2 refined = fitFromIndices(src, dst, best.inlierIndices);
    std::vector<int> refinedIdx;
    const int refinedCount = countInliers(refined, src, dst,
                                          prm.inlierThreshold, gate,
                                          &refinedIdx);
    if (refinedCount >= best.inlierCount) {
      best.transform = refined;
      best.inlierCount = refinedCount;
      best.inlierIndices = std::move(refinedIdx);
    } else {
      break;
    }
  }
  best.ok = best.inlierCount >= prm.minInliers;
  return best;
}

}  // namespace

RansacResult ransacTranslation2D(std::span<const Vec2> src,
                                 std::span<const Vec2> dst,
                                 const RansacParams& prm, Rng& rng) {
  BBA_ASSERT(src.size() == dst.size());
  RansacResult best;
  const int n = static_cast<int>(src.size());
  if (n < 1) return best;

  const double t2 = prm.inlierThreshold * prm.inlierThreshold;
  const auto count = [&](const Vec2& t, std::vector<int>* idx) {
    int c = 0;
    if (idx) idx->clear();
    for (std::size_t k = 0; k < src.size(); ++k) {
      if ((dst[k] - (src[k] + t)).squaredNorm() > t2) continue;
      ++c;
      if (idx) idx->push_back(static_cast<int>(k));
    }
    return c;
  };

  // Parallel sweep with per-chunk winners, combined in chunk order with a
  // strict `>` — exactly the first-best-in-iteration-order rule of a
  // serial scan, at any thread count.
  const std::uint64_t base = rng.engine()();
  const std::int64_t iters = prm.iterations;
  struct ChunkBest {
    int inliers = 0;
    Vec2 t;
  };
  std::vector<ChunkBest> chunkBest(
      static_cast<std::size_t>(chunkCount(0, iters, kIterGrain)));
  parallelFor(0, iters, kIterGrain, [&](std::int64_t it0, std::int64_t it1) {
    ChunkBest& local = chunkBest[static_cast<std::size_t>(it0 / kIterGrain)];
    for (std::int64_t it = it0; it < it1; ++it) {
      CounterRng cr(base, static_cast<std::uint64_t>(it));
      const int i = cr.uniformInt(0, n - 1);
      const Vec2 t = dst[static_cast<std::size_t>(i)] -
                     src[static_cast<std::size_t>(i)];
      if (prm.maxTranslationNorm >= 0.0 && t.norm() > prm.maxTranslationNorm)
        continue;
      const int inliers = count(t, nullptr);
      if (inliers > local.inliers) {
        local.inliers = inliers;
        local.t = t;
      }
    }
  });
  Vec2 bestT;
  for (const ChunkBest& cb : chunkBest) {
    if (cb.inliers > best.inlierCount) {
      best.inlierCount = cb.inliers;
      bestT = cb.t;
    }
  }
  if (best.inlierCount < 1) return best;

  // Refine: mean residual over the inlier set, iterated.
  count(bestT, &best.inlierIndices);
  for (int round = 0; round < prm.refineRounds; ++round) {
    if (best.inlierIndices.empty()) break;
    Vec2 mean{};
    for (int k : best.inlierIndices) {
      mean += dst[static_cast<std::size_t>(k)] -
              src[static_cast<std::size_t>(k)];
    }
    mean = mean / static_cast<double>(best.inlierIndices.size());
    std::vector<int> idx;
    const int c = count(mean, &idx);
    if (c >= best.inlierCount) {
      bestT = mean;
      best.inlierCount = c;
      best.inlierIndices = std::move(idx);
    } else {
      break;
    }
  }
  best.transform = Pose2{bestT, 0.0};
  best.ok = best.inlierCount >= prm.minInliers;
  return best;
}

VerifiedRansacResult ransacRigid2DVerified(
    std::span<const Vec2> src, std::span<const Vec2> dst,
    const RansacParams& prm, Rng& rng, const PoseVerifier& verifier,
    std::span<const double> srcOrientations,
    std::span<const double> dstOrientations) {
  BBA_ASSERT(src.size() == dst.size());
  BBA_ASSERT(srcOrientations.size() == dstOrientations.size());
  BBA_ASSERT(srcOrientations.empty() || srcOrientations.size() == src.size());
  BBA_ASSERT(static_cast<bool>(verifier));

  const Gate gate{srcOrientations, dstOrientations,
                  prm.orientationToleranceRad};
  VerifiedRansacResult best;
  const int n = static_cast<int>(src.size());
  if (n < 2) return best;

  // Phase 1 (parallel): sample + cheap filters + inlier count for every
  // admissible hypothesis, in per-chunk buckets. Counts are independent of
  // the dedup order, so computing them eagerly (including for hypotheses a
  // serial loop would have skipped as near-duplicates) changes wall-clock
  // cost but not any result.
  const std::uint64_t base = rng.engine()();
  const std::int64_t iters = prm.iterations;
  std::vector<std::vector<RansacCandidate>> buckets(
      static_cast<std::size_t>(chunkCount(0, iters, kIterGrain)));
  parallelFor(0, iters, kIterGrain, [&](std::int64_t it0, std::int64_t it1) {
    auto& bucket = buckets[static_cast<std::size_t>(it0 / kIterGrain)];
    for (std::int64_t it = it0; it < it1; ++it) {
      Pose2 hyp;
      if (!sampleHypothesis(base, it, src, dst, prm, gate, &hyp)) continue;
      const int inliers =
          countInliers(hyp, src, dst, prm.inlierThreshold, gate, nullptr);
      if (inliers < std::max(2, prm.minInliers)) continue;
      bucket.push_back(RansacCandidate{hyp, inliers});
    }
  });

  // Phase 2 (serial, iteration order): dedup against already-verified
  // transforms and score the survivors. The verifier is a caller-supplied
  // closure with no thread-safety contract, and the dedup list it gates on
  // is order-dependent, so this stays on one thread.
  std::int64_t admissible = 0;
  for (const auto& bucket : buckets) {
    admissible += static_cast<std::int64_t>(bucket.size());
  }
  BBA_COUNTER_ADD("ransac.bv.admissible_hypotheses", admissible);
  std::vector<Pose2> verified;
  for (const auto& bucket : buckets) {
    for (const RansacCandidate& cand : bucket) {
      bool seen = false;
      for (const Pose2& v : verified) {
        if (similarTransforms(v, cand.transform)) {
          seen = true;
          break;
        }
      }
      if (seen) continue;

      verified.push_back(cand.transform);
      const double score = verifier(cand.transform);
      if (score > best.verifierScore) {
        best.verifierScore = score;
        best.ransac.transform = cand.transform;
        best.ransac.inlierCount = cand.inlierCount;
      }
    }
  }
  BBA_COUNTER_ADD("ransac.bv.verifier_evaluations",
                  static_cast<std::int64_t>(verified.size()));

  if (best.verifierScore < 0.0) return best;
  best.ransac = refineWithGate(best.ransac.transform, src, dst, prm, gate);
  return best;
}

RansacResult refineRigid2D(const Pose2& initial, std::span<const Vec2> src,
                           std::span<const Vec2> dst,
                           const RansacParams& prm,
                           std::span<const double> srcOrientations,
                           std::span<const double> dstOrientations) {
  BBA_ASSERT(src.size() == dst.size());
  const Gate gate{srcOrientations, dstOrientations,
                  prm.orientationToleranceRad};
  return refineWithGate(initial, src, dst, prm, gate);
}

RansacResult ransacRigid2D(std::span<const Vec2> src,
                           std::span<const Vec2> dst,
                           const RansacParams& prm, Rng& rng,
                           std::span<const double> srcOrientations,
                           std::span<const double> dstOrientations) {
  BBA_ASSERT(src.size() == dst.size());
  BBA_ASSERT(srcOrientations.size() == dstOrientations.size());
  BBA_ASSERT(srcOrientations.empty() || srcOrientations.size() == src.size());

  const Gate gate{srcOrientations, dstOrientations,
                  prm.orientationToleranceRad};
  const int n = static_cast<int>(src.size());
  if (n < 2) return RansacResult{};

  // One draw off the caller's generator seeds every per-iteration
  // substream: call-site reproducibility is preserved (the parent stream
  // advances exactly once), and iteration `it` sees values that depend
  // only on (base, it).
  const std::uint64_t base = rng.engine()();

  // Parallel sweep with per-chunk winners, combined in chunk order with a
  // strict `>` — the first hypothesis in iteration order with the most
  // inliers (at least 2) wins, at any thread count.
  const std::int64_t iters = prm.iterations;
  std::vector<RansacCandidate> chunkBest(
      static_cast<std::size_t>(chunkCount(0, iters, kIterGrain)));
  parallelFor(0, iters, kIterGrain, [&](std::int64_t it0, std::int64_t it1) {
    RansacCandidate& local =
        chunkBest[static_cast<std::size_t>(it0 / kIterGrain)];
    for (std::int64_t it = it0; it < it1; ++it) {
      Pose2 hyp;
      if (!sampleHypothesis(base, it, src, dst, prm, gate, &hyp)) continue;
      const int inliers =
          countInliers(hyp, src, dst, prm.inlierThreshold, gate, nullptr);
      if (inliers >= 2 && inliers > local.inlierCount) {
        local = RansacCandidate{hyp, inliers};
      }
    }
  });
  RansacCandidate winner;
  for (const RansacCandidate& cb : chunkBest) {
    if (cb.inlierCount > winner.inlierCount) winner = cb;
  }
  if (winner.inlierCount == 0) return RansacResult{};
  return refineWithGate(winner.transform, src, dst, prm, gate);
}

}  // namespace bba
