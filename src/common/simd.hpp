#pragma once

namespace bba {

/// Instruction-set level the vectorized kernels dispatch to at runtime.
/// Every kernel keeps a scalar reference implementation and guarantees
/// bit-identical results at every level (see DESIGN.md, "SIMD
/// determinism"): lanes only ever carry per-element-independent work, and
/// reductions use one fixed virtual-lane order shared by all paths.
enum class SimdLevel {
  Scalar = 0,  ///< reference implementation, no vector intrinsics
  Avx2 = 1,    ///< 256-bit lanes
};

[[nodiscard]] const char* toString(SimdLevel level);

/// Highest level the host CPU supports (Scalar on non-x86 builds).
[[nodiscard]] SimdLevel maxSupportedSimdLevel();

/// The level kernels dispatch to. Defaults to maxSupportedSimdLevel();
/// the BBA_SIMD environment variable ("scalar", "avx2") lowers it,
/// and setSimdLevel() overrides it from code (tests sweep all levels).
/// Requests above hardware support clamp down to it.
[[nodiscard]] SimdLevel simdLevel();

/// Override the dispatch level (clamped to hardware support). Not intended
/// for concurrent use with running kernels: call between pipeline runs.
void setSimdLevel(SimdLevel level);

}  // namespace bba
