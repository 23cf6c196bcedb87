// bev module: Eq. 4 height-map rasterization, coordinate round trips and
// the 3x3 box blur.
#include <gtest/gtest.h>

#include "bev/bev_image.hpp"
#include "common/rng.hpp"

namespace bba {
namespace {

TEST(BevParams, SizeAndRoundTrip) {
  BevParams p;
  p.range = 64.0;
  p.cellSize = 0.5;
  EXPECT_EQ(p.imageSize(), 256);

  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const Vec2 m{rng.uniform(-60, 60), rng.uniform(-60, 60)};
    const Vec2 back = p.toMeters(p.toPixel(m));
    ASSERT_NEAR(back.x, m.x, 1e-9);
    ASSERT_NEAR(back.y, m.y, 1e-9);
  }
  // Pixel (0,0) center corresponds to the corner cell's center.
  const Vec2 corner = p.toMeters({0.0, 0.0});
  EXPECT_NEAR(corner.x, -64.0 + 0.25, 1e-12);
}

TEST(HeightBv, TakesPerCellMaximum) {
  BevParams p;
  p.range = 8.0;
  p.cellSize = 1.0;
  p.heightClamp = 10.0;
  PointCloud c;
  c.push({0.5, 0.5, 2.0});
  c.push({0.6, 0.4, 7.0});   // same cell, taller -> wins (Eq. 4)
  c.push({-3.5, 2.5, 15.0}); // clamped to 10
  c.push({100, 0, 5});       // out of range -> ignored
  const ImageF img = makeHeightBV(c, p);
  EXPECT_EQ(img.width(), 16);
  // Cell of (0.5, 0.5): u = (0.5+8)/1 = 8, v = 8.
  EXPECT_FLOAT_EQ(img(8, 8), 0.7f);
  EXPECT_FLOAT_EQ(img(4, 10), 1.0f);  // clamped
  // Count non-zero pixels: exactly two.
  int nz = 0;
  for (float v : img.data()) nz += v > 0.0f;
  EXPECT_EQ(nz, 2);
}

TEST(HeightBv, GroundPointsNearZeroIntensity) {
  BevParams p;
  PointCloud c;
  c.push({1.0, 1.0, 0.02});  // ground return
  const ImageF img = makeHeightBV(c, p);
  float mx = 0;
  for (float v : img.data()) mx = std::max(mx, v);
  EXPECT_LT(mx, 0.01f);  // effectively filtered out, as §IV-A argues
}

TEST(BoxBlur3, AveragesAndPreservesMass) {
  ImageF img(8, 8, 0.0f);
  img(4, 4) = 9.0f;
  const ImageF blurred = boxBlur3(img);
  EXPECT_FLOAT_EQ(blurred(4, 4), 1.0f);
  EXPECT_FLOAT_EQ(blurred(3, 3), 1.0f);
  EXPECT_FLOAT_EQ(blurred(6, 4), 0.0f);
}

}  // namespace
}  // namespace bba
