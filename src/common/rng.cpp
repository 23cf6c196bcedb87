#include "common/rng.hpp"

#include <numbers>

namespace bba {

double Rng::angle() {
  return uniform(-std::numbers::pi, std::numbers::pi);
}

}  // namespace bba
