#include "geom/polygon.hpp"

namespace bba {

double polygonArea(const Polygon& poly) {
  if (poly.size() < 3) return 0.0;
  double a = 0.0;
  for (std::size_t i = 0; i < poly.size(); ++i) {
    const Vec2& p = poly[i];
    const Vec2& q = poly[(i + 1) % poly.size()];
    a += p.cross(q);
  }
  return a / 2.0;
}

namespace {
// Which side of directed edge a->b is p on? >0 left (inside for CCW clip).
double side(const Vec2& a, const Vec2& b, const Vec2& p) {
  return (b - a).cross(p - a);
}

Vec2 intersect(const Vec2& a, const Vec2& b, const Vec2& p, const Vec2& q) {
  // Point p + u*(q-p) on the infinite line through a, b:
  // (p + u*s - a) x r = 0  =>  u = (a - p) x r / (s x r).
  const Vec2 r = b - a;
  const Vec2 s = q - p;
  const double denom = s.cross(r);
  // Callers only request intersections of non-parallel segments; guard
  // against degeneracy by falling back to an endpoint.
  if (denom == 0.0) return p;
  const double u = (a - p).cross(r) / denom;
  return p + s * u;
}
}  // namespace

Polygon clipConvex(const Polygon& subject, const Polygon& clip) {
  if (subject.size() < 3 || clip.size() < 3) return {};
  Polygon output = subject;
  for (std::size_t i = 0; i < clip.size() && !output.empty(); ++i) {
    const Vec2& a = clip[i];
    const Vec2& b = clip[(i + 1) % clip.size()];
    Polygon input;
    input.swap(output);
    for (std::size_t j = 0; j < input.size(); ++j) {
      const Vec2& cur = input[j];
      const Vec2& prev = input[(j + input.size() - 1) % input.size()];
      const bool curIn = side(a, b, cur) >= 0.0;
      const bool prevIn = side(a, b, prev) >= 0.0;
      if (curIn) {
        if (!prevIn) output.push_back(intersect(a, b, prev, cur));
        output.push_back(cur);
      } else if (prevIn) {
        output.push_back(intersect(a, b, prev, cur));
      }
    }
  }
  return output;
}

}  // namespace bba
