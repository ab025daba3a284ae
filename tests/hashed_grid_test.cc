// HashedGrid under the workload the locality-mode Expand/Shrink step
// generates: swap churn and radius queries, cross-checked against a
// brute-force scan, plus the edges of the cell arithmetic (radius 0,
// negative coordinates, points on cell edges and exactly at the radius,
// and coordinates far from the origin).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "index/hashed_grid.h"
#include "util/random.h"

namespace vas {
namespace {

using Entry = std::pair<Point, size_t>;

std::vector<size_t> Within(const HashedGrid& grid, Point q, double radius) {
  std::vector<size_t> out;
  grid.ForEachWithin(q, radius, [&](size_t id, Point) { out.push_back(id); });
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<size_t> BruteForce(const std::vector<Entry>& live, Point q,
                               double radius) {
  std::vector<size_t> out;
  for (const auto& [p, id] : live) {
    if (SquaredDistance(p, q) <= radius * radius) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(HashedGridTest, EmptyGrid) {
  HashedGrid grid(1.0);
  EXPECT_TRUE(Within(grid, {0, 0}, 10).empty());
  EXPECT_FALSE(grid.Remove({0, 0}, 0));
  EXPECT_EQ(grid.cell_count(), 0u);
}

TEST(HashedGridTest, InsertThenQuery) {
  HashedGrid grid(1.0);
  grid.Insert({1, 1}, 10);
  grid.Insert({2, 2}, 20);
  grid.Insert({9, 9}, 30);
  EXPECT_EQ(Within(grid, {5, 5}, 8), (std::vector<size_t>{10, 20, 30}));
  EXPECT_EQ(Within(grid, {1.5, 1.5}, 1.0), (std::vector<size_t>{10, 20}));
  EXPECT_EQ(Within(grid, {9, 9}, 0.5), (std::vector<size_t>{30}));
}

TEST(HashedGridTest, RadiusZeroFindsExactDuplicatesOnly) {
  HashedGrid grid(0.5);
  grid.Insert({1, 1}, 0);
  grid.Insert({1, 1}, 1);
  grid.Insert({1, std::nextafter(1.0, 2.0)}, 2);
  grid.Insert({std::nextafter(1.0, 0.0), 1}, 3);
  EXPECT_EQ(Within(grid, {1, 1}, 0.0), (std::vector<size_t>{0, 1}));
}

TEST(HashedGridTest, NegativeCoordinates) {
  HashedGrid grid(0.75);
  Rng rng(4);
  std::vector<Entry> live;
  for (size_t i = 0; i < 400; ++i) {
    Point p{rng.Uniform(-6, 3), rng.Uniform(-3, 6)};
    grid.Insert(p, i);
    live.emplace_back(p, i);
  }
  for (int t = 0; t < 50; ++t) {
    Point q{rng.Uniform(-7, 4), rng.Uniform(-4, 7)};
    double r = rng.Uniform(0, 2.5);
    EXPECT_EQ(Within(grid, q, r), BruteForce(live, q, r)) << "t=" << t;
  }
  // -0.5 lies in cell -1 and 0.5 in cell 0; a query at 0 reaches both.
  HashedGrid straddle(1.0);
  straddle.Insert({-0.5, -0.5}, 1);
  straddle.Insert({0.5, 0.5}, 2);
  straddle.Insert({-1.5, 0.5}, 3);
  EXPECT_EQ(Within(straddle, {0, 0}, 0.75), (std::vector<size_t>{1, 2}));
}

TEST(HashedGridTest, PointsOnCellEdgesAndExactlyAtTheRadius) {
  // Cells 1 wide: every integer point sits on a cell corner.
  HashedGrid grid(1.0);
  std::vector<Entry> live;
  size_t id = 0;
  for (int x = -4; x <= 4; ++x) {
    for (int y = -4; y <= 4; ++y) {
      Point p{static_cast<double>(x), static_cast<double>(y)};
      grid.Insert(p, id);
      live.emplace_back(p, id);
      ++id;
    }
  }
  for (double r : {0.0, 1.0, 2.0, 3.0, 5.0}) {
    for (Point q : {Point{0, 0}, Point{1, -1}, Point{-2, 3}}) {
      EXPECT_EQ(Within(grid, q, r), BruteForce(live, q, r))
          << "r=" << r << " q=(" << q.x << "," << q.y << ")";
    }
  }
  // (3, 4) and (-4, -3) are exactly 5 from the origin; (4, 4) is not.
  HashedGrid edges(2.5);
  edges.Insert({3, 4}, 1);
  edges.Insert({-4, -3}, 2);
  edges.Insert({4, 4}, 3);
  edges.Insert({5, 0}, 4);
  EXPECT_EQ(Within(edges, {0, 0}, 5.0), (std::vector<size_t>{1, 2, 4}));
  EXPECT_EQ(Within(edges, {0, 0}, std::nextafter(5.0, 0.0)),
            std::vector<size_t>{});
}

TEST(HashedGridTest, DuplicatePointsDistinctPayloads) {
  HashedGrid grid(1.0);
  for (size_t i = 0; i < 50; ++i) grid.Insert({3.0, 3.0}, i);
  EXPECT_EQ(Within(grid, {3, 3}, 0.0).size(), 50u);
  // Remove a specific payload among identical points.
  EXPECT_TRUE(grid.Remove({3, 3}, 25));
  auto left = Within(grid, {3, 3}, 0.0);
  EXPECT_EQ(left.size(), 49u);
  EXPECT_EQ(std::count(left.begin(), left.end(), 25u), 0);
}

TEST(HashedGridTest, RemoveThatMissesChangesNothing) {
  HashedGrid grid(1.0);
  grid.Insert({1, 1}, 1);
  grid.Insert({2, 2}, 2);
  EXPECT_FALSE(grid.Remove({2, 2}, 999));   // wrong payload
  EXPECT_FALSE(grid.Remove({1.5, 1}, 1));   // wrong point, same cell
  EXPECT_FALSE(grid.Remove({50, 50}, 2));   // no such cell
  EXPECT_EQ(Within(grid, {0, 0}, 10), (std::vector<size_t>{1, 2}));
  EXPECT_TRUE(grid.Remove({1, 1}, 1));
  EXPECT_FALSE(grid.Remove({1, 1}, 1));     // already gone
  EXPECT_EQ(Within(grid, {0, 0}, 10), (std::vector<size_t>{2}));
  EXPECT_EQ(grid.cell_count(), 1u);         // the emptied cell is released
}

TEST(HashedGridTest, LargeAbsoluteCoordinatesSpreadOverCells) {
  // x in epoch milliseconds over a span of 1,000 units, in cells 57
  // wide: about 18 columns, none of them collapsed into another.
  HashedGrid grid(57.0);
  Rng rng(12);
  std::vector<Entry> live;
  for (size_t i = 0; i < 4000; ++i) {
    Point p{1.7e12 + rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
    grid.Insert(p, i);
    live.emplace_back(p, i);
  }
  EXPECT_GE(grid.cell_count(), 17u * 17u);
  for (int t = 0; t < 40; ++t) {
    Point q{1.7e12 + rng.Uniform(-100, 1100), rng.Uniform(-100, 1100)};
    double r = rng.Uniform(0, 114);
    EXPECT_EQ(Within(grid, q, r), BruteForce(live, q, r)) << "t=" << t;
  }
}

TEST(HashedGridTest, CoordinatesBeyondTheCellRangeStayFindable) {
  // Cell indices clamp in double before the integer cast, so points
  // far outside any realistic range share a border cell but are still
  // found, and non-finite queries find nothing.
  HashedGrid grid(1e-3);
  grid.Insert({1e300, -1e300}, 1);
  grid.Insert({9e299, -1e300}, 2);
  grid.Insert({0, 0}, 3);
  EXPECT_EQ(Within(grid, {1e300, -1e300}, 0.0), (std::vector<size_t>{1}));
  EXPECT_EQ(Within(grid, {0, 0}, 1.0), (std::vector<size_t>{3}));
  EXPECT_TRUE(Within(grid, {NAN, 0}, 1.0).empty());
  EXPECT_TRUE(Within(grid, {INFINITY, 0}, 1.0).empty());
  EXPECT_TRUE(grid.Remove({9e299, -1e300}, 2));
}

class HashedGridChurnTest : public ::testing::TestWithParam<int> {};

// Interleaved remove/insert churn mirroring Interchange's swap pattern:
// the grid always holds exactly K live entries while entries rotate.
TEST_P(HashedGridChurnTest, SwapChurnKeepsEveryEntryFindable) {
  const size_t kSlots = 64;
  Rng rng(GetParam());
  HashedGrid grid(0.8);
  std::map<size_t, Point> shadow;  // slot -> current point
  for (size_t i = 0; i < kSlots; ++i) {
    Point p{rng.Uniform(0, 10), rng.Uniform(0, 10)};
    grid.Insert(p, i);
    shadow[i] = p;
  }
  for (int step = 0; step < 3000; ++step) {
    size_t slot = rng.Below(kSlots);
    Point next{rng.Uniform(0, 10), rng.Uniform(0, 10)};
    ASSERT_TRUE(grid.Remove(shadow[slot], slot));
    grid.Insert(next, slot);
    shadow[slot] = next;
  }
  EXPECT_EQ(Within(grid, {5, 5}, 8).size(), kSlots);
  EXPECT_LE(grid.cell_count(), kSlots);
  for (const auto& [slot, p] : shadow) {
    auto ids = Within(grid, p, 0.0);
    EXPECT_NE(std::find(ids.begin(), ids.end(), slot), ids.end());
  }
}

// Random inserts and removes against a brute-force scan at random
// radii. The visit order is checked too: cells in (y, x) order.
TEST_P(HashedGridChurnTest, RandomInsertRemoveMatchesBruteForce) {
  const double width = 4.0;
  Rng rng(GetParam() + 77);
  HashedGrid grid(width);
  std::vector<Entry> live;
  size_t next_id = 0;
  for (int step = 0; step < 4000; ++step) {
    bool insert = live.empty() || rng.Bernoulli(0.55);
    if (insert) {
      Point p{rng.Uniform(0, 50), rng.Uniform(0, 50)};
      grid.Insert(p, next_id);
      live.emplace_back(p, next_id);
      ++next_id;
    } else {
      size_t pick = rng.Below(static_cast<uint32_t>(live.size()));
      ASSERT_TRUE(grid.Remove(live[pick].first, live[pick].second));
      live.erase(live.begin() + static_cast<long>(pick));
    }
  }
  for (int t = 0; t < 30; ++t) {
    Point q{rng.Uniform(0, 50), rng.Uniform(0, 50)};
    double r = rng.Uniform(0, 15);
    EXPECT_EQ(Within(grid, q, r), BruteForce(live, q, r)) << "t=" << t;
    std::vector<std::pair<double, double>> cells;
    grid.ForEachWithin(q, r, [&](size_t, Point p) {
      cells.emplace_back(std::floor(p.y / width), std::floor(p.x / width));
    });
    EXPECT_TRUE(std::is_sorted(cells.begin(), cells.end())) << "t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HashedGridChurnTest,
                         ::testing::Values(11, 22, 33));

}  // namespace
}  // namespace vas
