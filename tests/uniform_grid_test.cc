// UniformGrid: cell mapping, assignment, and census queries.
#include <gtest/gtest.h>

#include "index/uniform_grid.h"
#include "util/random.h"

namespace vas {
namespace {

TEST(UniformGridTest, CellOfCorners) {
  UniformGrid grid(Rect::Of(0, 0, 10, 10), 5, 5);
  EXPECT_EQ(grid.num_cells(), 25u);
  EXPECT_EQ(grid.CellOf({0.0, 0.0}), 0u);
  EXPECT_EQ(grid.CellOf({9.99, 0.0}), 4u);
  EXPECT_EQ(grid.CellOf({0.0, 9.99}), 20u);
  EXPECT_EQ(grid.CellOf({9.99, 9.99}), 24u);
  // The max corner clamps into the last cell rather than overflowing.
  EXPECT_EQ(grid.CellOf({10.0, 10.0}), 24u);
}

TEST(UniformGridTest, OutOfDomainPointsClamp) {
  UniformGrid grid(Rect::Of(0, 0, 10, 10), 2, 2);
  EXPECT_EQ(grid.CellOf({-5.0, -5.0}), 0u);
  EXPECT_EQ(grid.CellOf({15.0, 15.0}), 3u);
}

TEST(UniformGridTest, CellBoundsTileTheDomain) {
  UniformGrid grid(Rect::Of(-1, -1, 1, 1), 4, 2);
  double area = 0.0;
  for (size_t c = 0; c < grid.num_cells(); ++c) {
    Rect b = grid.CellBounds(c);
    area += b.width() * b.height();
    EXPECT_GE(b.min_x, -1.0);
    EXPECT_LE(b.max_x, 1.0);
  }
  EXPECT_NEAR(area, 4.0, 1e-12);
}

TEST(UniformGridTest, CellOfConsistentWithCellBounds) {
  UniformGrid grid(Rect::Of(0, 0, 7, 3), 7, 3);
  Rng rng(3);
  for (int t = 0; t < 500; ++t) {
    Point p{rng.Uniform(0, 7), rng.Uniform(0, 3)};
    size_t cell = grid.CellOf(p);
    EXPECT_TRUE(grid.CellBounds(cell).Contains(p));
  }
}

TEST(UniformGridTest, AssignPartitionsAllPoints) {
  Rng rng(4);
  std::vector<Point> pts;
  for (int i = 0; i < 1000; ++i) {
    pts.push_back({rng.Uniform(0, 10), rng.Uniform(0, 10)});
  }
  UniformGrid grid(Rect::Of(0, 0, 10, 10), 8, 8);
  grid.Assign(pts);
  size_t total = 0;
  for (size_t c = 0; c < grid.num_cells(); ++c) {
    for (size_t id : grid.PointsInCell(c)) {
      EXPECT_EQ(grid.CellOf(pts[id]), c);
    }
    total += grid.CountInCell(c);
  }
  EXPECT_EQ(total, pts.size());
  EXPECT_GT(grid.NumOccupiedCells(), 0u);
  EXPECT_LE(grid.NumOccupiedCells(), grid.num_cells());
}

TEST(UniformGridTest, SingleCellGridTakesEverything) {
  UniformGrid grid(Rect::Of(0, 0, 1, 1), 1, 1);
  EXPECT_EQ(grid.num_cells(), 1u);
  EXPECT_EQ(grid.CellOf({0.5, 0.5}), 0u);
  EXPECT_EQ(grid.CellOf({-100, 100}), 0u);
  grid.Assign({{0.1, 0.1}, {0.9, 0.9}});
  EXPECT_EQ(grid.CountInCell(0), 2u);
}

TEST(UniformGridTest, AssignEmptyPointSet) {
  UniformGrid grid(Rect::Of(0, 0, 1, 1), 3, 3);
  grid.Assign({});
  EXPECT_EQ(grid.NumOccupiedCells(), 0u);
  for (size_t c = 0; c < grid.num_cells(); ++c) {
    EXPECT_EQ(grid.CountInCell(c), 0u);
  }
}

TEST(UniformGridTest, AsymmetricGridShape) {
  UniformGrid grid(Rect::Of(0, 0, 10, 2), 10, 2);
  EXPECT_EQ(grid.nx(), 10u);
  EXPECT_EQ(grid.ny(), 2u);
  // Cell ids are row-major: (x=3, y=1) -> 1*10 + 3.
  EXPECT_EQ(grid.CellOf({3.5, 1.5}), 13u);
}

TEST(UniformGridTest, CountInRectMatchesBruteForce) {
  // The cell-aggregate count must be exactly the brute-force count for
  // arbitrary query rectangles — including ones poking past the domain
  // and ones smaller than a single cell.
  Rng rng(99);
  std::vector<Point> points;
  points.reserve(5000);
  for (int i = 0; i < 5000; ++i) {
    points.push_back({rng.Uniform(-3, 7), rng.Uniform(0, 10)});
  }
  UniformGrid grid(Rect::Of(-3, 0, 7, 10), 16, 16);
  grid.Assign(points);

  for (int q = 0; q < 200; ++q) {
    double x0 = rng.Uniform(-5, 9), x1 = rng.Uniform(-5, 9);
    double y0 = rng.Uniform(-2, 12), y1 = rng.Uniform(-2, 12);
    Rect rect = Rect::Of(std::min(x0, x1), std::min(y0, y1),
                         std::max(x0, x1), std::max(y0, y1));
    size_t brute = 0;
    for (const Point& p : points) {
      if (rect.Contains(p)) ++brute;
    }
    EXPECT_EQ(grid.CountInRect(rect, points), brute);
  }
}

TEST(UniformGridTest, CountInRectEdgeCases) {
  std::vector<Point> points = {{0, 0}, {5, 5}, {10, 10}, {20, 20}};
  UniformGrid grid(Rect::Of(0, 0, 10, 10), 4, 4);
  grid.Assign(points);  // (20,20) clamps into the far corner cell
  // Empty rect matches nothing.
  EXPECT_EQ(grid.CountInRect(Rect{}, points), 0u);
  // The whole domain still excludes the clamped outside point.
  EXPECT_EQ(grid.CountInRect(Rect::Of(0, 0, 10, 10), points), 3u);
  // A rect past the domain picks the outside point up.
  EXPECT_EQ(grid.CountInRect(Rect::Of(0, 0, 30, 30), points), 4u);
  // Degenerate rect exactly on one point.
  EXPECT_EQ(grid.CountInRect(Rect::Of(5, 5, 5, 5), points), 1u);
}

TEST(UniformGridTest, DensestCell) {
  std::vector<Point> pts;
  for (int i = 0; i < 50; ++i) pts.push_back({0.5, 0.5});  // all in cell 0
  pts.push_back({9.5, 9.5});
  UniformGrid grid(Rect::Of(0, 0, 10, 10), 2, 2);
  grid.Assign(pts);
  EXPECT_EQ(grid.DensestCell(), 0u);
  EXPECT_EQ(grid.CountInCell(0), 50u);
  EXPECT_EQ(grid.NumOccupiedCells(), 2u);
}

}  // namespace
}  // namespace vas
