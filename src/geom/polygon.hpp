#pragma once

#include <vector>

#include "geom/vec.hpp"

namespace bba {

/// Convex polygon as a CCW-ordered vertex list.
using Polygon = std::vector<Vec2>;

/// Signed area of a polygon (positive for CCW winding).
[[nodiscard]] double polygonArea(const Polygon& poly);

/// Clip a convex `subject` polygon against a convex `clip` polygon
/// (Sutherland–Hodgman). Both must be CCW. Returns the (possibly empty)
/// intersection polygon.
[[nodiscard]] Polygon clipConvex(const Polygon& subject, const Polygon& clip);

}  // namespace bba
