// Unit tests for Point and Rect geometry primitives.
#include <gtest/gtest.h>

#include "geom/point.h"
#include "geom/rect.h"

namespace vas {
namespace {

TEST(PointTest, Arithmetic) {
  Point a{1.0, 2.0};
  Point b{3.0, -1.0};
  EXPECT_EQ((a + b), (Point{4.0, 1.0}));
  EXPECT_EQ((a - b), (Point{-2.0, 3.0}));
  EXPECT_EQ((a * 2.0), (Point{2.0, 4.0}));
  EXPECT_EQ((2.0 * a), (Point{2.0, 4.0}));
}

TEST(PointTest, Distances) {
  Point a{0.0, 0.0};
  Point b{3.0, 4.0};
  EXPECT_DOUBLE_EQ(SquaredDistance(a, b), 25.0);
  EXPECT_DOUBLE_EQ(Distance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(Distance(a, a), 0.0);
}

TEST(RectTest, DefaultIsEmpty) {
  Rect r;
  EXPECT_TRUE(r.empty());
  EXPECT_DOUBLE_EQ(r.width(), 0.0);
}

TEST(RectTest, ExtendByPoints) {
  Rect r;
  r.Extend(Point{1.0, 2.0});
  EXPECT_FALSE(r.empty());
  r.Extend(Point{3.0, -1.0});
  EXPECT_DOUBLE_EQ(r.min_x, 1.0);
  EXPECT_DOUBLE_EQ(r.max_x, 3.0);
  EXPECT_DOUBLE_EQ(r.min_y, -1.0);
  EXPECT_DOUBLE_EQ(r.max_y, 2.0);
}

TEST(RectTest, ContainsIsInclusive) {
  Rect r = Rect::Of(0, 0, 2, 2);
  EXPECT_TRUE(r.Contains({0.0, 0.0}));
  EXPECT_TRUE(r.Contains({2.0, 2.0}));
  EXPECT_TRUE(r.Contains({1.0, 1.0}));
  EXPECT_FALSE(r.Contains({2.1, 1.0}));
  EXPECT_FALSE(r.Contains({-0.1, 1.0}));
}

TEST(RectTest, Intersects) {
  Rect a = Rect::Of(0, 0, 2, 2);
  EXPECT_TRUE(a.Intersects(Rect::Of(1, 1, 3, 3)));
  EXPECT_TRUE(a.Intersects(Rect::Of(2, 2, 3, 3)));  // touching counts
  EXPECT_FALSE(a.Intersects(Rect::Of(2.01, 2.01, 3, 3)));
  EXPECT_FALSE(a.Intersects(Rect::Of(-2, -2, -1, -1)));
}

TEST(RectTest, CenterAndInflated) {
  Rect r = Rect::Of(0, 0, 2, 4);
  EXPECT_EQ(r.Center(), (Point{1.0, 2.0}));
  Rect big = r.Inflated(1.0);
  EXPECT_EQ(big, Rect::Of(-1, -1, 3, 5));
}

TEST(RectTest, BoundingBox) {
  std::vector<Point> pts = {{1, 1}, {-1, 3}, {2, 0}};
  Rect r = Rect::BoundingBox(pts);
  EXPECT_EQ(r, Rect::Of(-1, 0, 2, 3));
  EXPECT_TRUE(Rect::BoundingBox({}).empty());
}

}  // namespace
}  // namespace vas
