#include "baselines/vips.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/assert.hpp"
#include "match/ransac.hpp"
#include "geom/kabsch.hpp"

namespace bba {

namespace {

/// Affinity kernel bandwidth (meters) on pairwise-distance disagreement.
constexpr double kSigma = 1.0;
/// Assignment pairs with |d_ij - d_ab| above this contribute zero
/// affinity (sparsifies the matrix).
constexpr double kMaxPairDistanceDiff = 4.0;
/// Candidate assignments must have compatible box footprints (meters).
constexpr double kMaxSizeDiff = 1.2;
constexpr int kPowerIterations = 60;
/// Minimum matched objects for a pose fit (2 fixes a rigid transform but
/// is fragile; VIPS effectively needs richer context).
constexpr int kMinMatches = 2;

}  // namespace

VipsResult vipsEstimate(const Detections& other, const Detections& ego) {
  VipsResult result;
  if (other.empty() || ego.empty()) return result;

  // Candidate assignments (i in other) -> (a in ego), prefiltered by box
  // footprint compatibility.
  struct Cand {
    int i, a;
    Vec2 pOther, pEgo;
  };
  std::vector<Cand> cands;
  for (int i = 0; i < static_cast<int>(other.size()); ++i) {
    for (int a = 0; a < static_cast<int>(ego.size()); ++a) {
      const auto& bi = other[static_cast<std::size_t>(i)].box;
      const auto& ba = ego[static_cast<std::size_t>(a)].box;
      if (std::abs(bi.size.x - ba.size.x) > kMaxSizeDiff) continue;
      if (std::abs(bi.size.y - ba.size.y) > kMaxSizeDiff) continue;
      cands.push_back(Cand{i, a, bi.center.xy(), ba.center.xy()});
    }
  }
  const int n = static_cast<int>(cands.size());
  if (n == 0) return result;

  // Pairwise-consistency affinity matrix M (Leordeanu–Hebert spectral
  // matching, the core of VIPS).
  std::vector<double> M(static_cast<std::size_t>(n) *
                            static_cast<std::size_t>(n),
                        0.0);
  for (int p = 0; p < n; ++p) {
    for (int q = p + 1; q < n; ++q) {
      const Cand& cp = cands[static_cast<std::size_t>(p)];
      const Cand& cq = cands[static_cast<std::size_t>(q)];
      if (cp.i == cq.i || cp.a == cq.a) continue;  // conflicting assignments
      const double dOther = (cp.pOther - cq.pOther).norm();
      const double dEgo = (cp.pEgo - cq.pEgo).norm();
      const double diff = std::abs(dOther - dEgo);
      if (diff > kMaxPairDistanceDiff) continue;
      const double w = std::exp(-(diff * diff) / (2.0 * kSigma * kSigma));
      M[static_cast<std::size_t>(p) * static_cast<std::size_t>(n) +
        static_cast<std::size_t>(q)] = w;
      M[static_cast<std::size_t>(q) * static_cast<std::size_t>(n) +
        static_cast<std::size_t>(p)] = w;
    }
  }

  // Principal eigenvector by power iteration.
  std::vector<double> v(static_cast<std::size_t>(n),
                        1.0 / std::sqrt(static_cast<double>(n)));
  std::vector<double> next(static_cast<std::size_t>(n), 0.0);
  for (int it = 0; it < kPowerIterations; ++it) {
    double norm = 0.0;
    for (int r = 0; r < n; ++r) {
      double s = 0.0;
      const double* row =
          &M[static_cast<std::size_t>(r) * static_cast<std::size_t>(n)];
      for (int c = 0; c < n; ++c) s += row[c] * v[static_cast<std::size_t>(c)];
      next[static_cast<std::size_t>(r)] = s;
      norm += s * s;
    }
    norm = std::sqrt(norm);
    if (norm < 1e-12) return result;  // no consistent structure at all
    for (double& x : next) x /= norm;
    v.swap(next);
  }

  // Greedy discretization: repeatedly take the strongest assignment and
  // suppress conflicts.
  std::vector<bool> usedOther(other.size(), false);
  std::vector<bool> usedEgo(ego.size(), false);
  std::vector<Vec2> src, dst;
  std::vector<double> remaining = v;
  while (true) {
    int bestIdx = -1;
    double bestVal = 1e-9;
    for (int k = 0; k < n; ++k) {
      if (remaining[static_cast<std::size_t>(k)] > bestVal) {
        bestVal = remaining[static_cast<std::size_t>(k)];
        bestIdx = k;
      }
    }
    if (bestIdx < 0) break;
    const Cand& c = cands[static_cast<std::size_t>(bestIdx)];
    remaining[static_cast<std::size_t>(bestIdx)] = 0.0;
    if (usedOther[static_cast<std::size_t>(c.i)] ||
        usedEgo[static_cast<std::size_t>(c.a)])
      continue;
    usedOther[static_cast<std::size_t>(c.i)] = true;
    usedEgo[static_cast<std::size_t>(c.a)] = true;
    src.push_back(c.pOther);
    dst.push_back(c.pEgo);
  }

  result.matchedObjects = static_cast<int>(src.size());
  if (result.matchedObjects < kMinMatches) return result;

  // Verification: the spectral relaxation happily matches symmetric or
  // sparse configurations wrongly; fit the pose robustly over the matched
  // centers and demand a geometrically consistent subset.
  Rng rng(0x51B5);
  RansacParams rp;
  rp.iterations = 400;
  rp.inlierThreshold = 1.2;
  rp.minInliers = std::max(kMinMatches, 3);
  rp.minPairSeparation = 2.0;
  const RansacResult fit = ransacRigid2D(src, dst, rp, rng);
  if (!fit.ok) return result;
  result.transform = fit.transform;
  result.matchedObjects = fit.inlierCount;
  result.ok = true;
  return result;
}

}  // namespace bba
