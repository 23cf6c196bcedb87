#include "common/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace bba {

namespace {

#if defined(__x86_64__) || defined(__i386__)
SimdLevel detectLevel() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") ? SimdLevel::Avx2 : SimdLevel::Scalar;
}
#else
SimdLevel detectLevel() { return SimdLevel::Scalar; }
#endif

SimdLevel initialLevel() {
  SimdLevel level = detectLevel();
  if (const char* env = std::getenv("BBA_SIMD")) {
    SimdLevel requested = level;
    if (std::strcmp(env, "scalar") == 0) requested = SimdLevel::Scalar;
    else if (std::strcmp(env, "avx2") == 0) requested = SimdLevel::Avx2;
    if (static_cast<int>(requested) < static_cast<int>(level))
      level = requested;
  }
  return level;
}

std::atomic<SimdLevel>& currentLevel() {
  static std::atomic<SimdLevel> level{initialLevel()};
  return level;
}

}  // namespace

const char* toString(SimdLevel level) {
  switch (level) {
    case SimdLevel::Scalar:
      return "scalar";
    case SimdLevel::Avx2:
      return "avx2";
  }
  return "?";
}

SimdLevel maxSupportedSimdLevel() {
  static const SimdLevel level = detectLevel();
  return level;
}

SimdLevel simdLevel() {
  return currentLevel().load(std::memory_order_relaxed);
}

void setSimdLevel(SimdLevel level) {
  const SimdLevel cap = maxSupportedSimdLevel();
  if (static_cast<int>(level) > static_cast<int>(cap)) level = cap;
  currentLevel().store(level, std::memory_order_relaxed);
}

}  // namespace bba
