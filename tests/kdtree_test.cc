// KdTree correctness: exact queries verified against brute force over
// randomized point sets (property-style sweeps via TEST_P).
#include <gtest/gtest.h>

#include <algorithm>

#include "index/kdtree.h"
#include "kdtree_reference.h"
#include "util/random.h"

namespace vas {
namespace {

std::vector<Point> RandomPoints(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> pts;
  pts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    pts.push_back({rng.Uniform(-10, 10), rng.Uniform(-10, 10)});
  }
  return pts;
}

size_t BruteNearest(const std::vector<Point>& pts, Point q) {
  size_t best = 0;
  for (size_t i = 1; i < pts.size(); ++i) {
    if (SquaredDistance(pts[i], q) < SquaredDistance(pts[best], q)) best = i;
  }
  return best;
}

TEST(KdTreeTest, EmptyTree) {
  KdTree tree({});
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.Nearest({0, 0}), KdTree::kNotFound);
  EXPECT_TRUE(tree.KNearest({0, 0}, 3).empty());
  EXPECT_TRUE(tree.RangeQuery(Rect::Of(-1, -1, 1, 1)).empty());
}

TEST(KdTreeTest, SinglePoint) {
  KdTree tree({{1.0, 2.0}});
  EXPECT_EQ(tree.Nearest({5, 5}), 0u);
  EXPECT_EQ(tree.KNearest({0, 0}, 5).size(), 1u);
  EXPECT_EQ(tree.CountInRect(Rect::Of(0, 0, 2, 3)), 1u);
  EXPECT_EQ(tree.CountInRect(Rect::Of(2, 2, 3, 3)), 0u);
}

TEST(KdTreeTest, DuplicatePointsAllReported) {
  std::vector<Point> pts(5, Point{1.0, 1.0});
  KdTree tree(pts);
  EXPECT_EQ(tree.RangeQuery(Rect::Of(0, 0, 2, 2)).size(), 5u);
  EXPECT_EQ(tree.RadiusQuery({1, 1}, 0.0).size(), 5u);
}

class KdTreeRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(KdTreeRandomTest, NearestMatchesBruteForce) {
  auto pts = RandomPoints(200, GetParam());
  KdTree tree(pts);
  Rng rng(GetParam() + 1000);
  for (int t = 0; t < 50; ++t) {
    Point q{rng.Uniform(-12, 12), rng.Uniform(-12, 12)};
    size_t got = tree.Nearest(q);
    size_t want = BruteNearest(pts, q);
    EXPECT_DOUBLE_EQ(SquaredDistance(pts[got], q),
                     SquaredDistance(pts[want], q));
  }
}

TEST_P(KdTreeRandomTest, KNearestMatchesBruteForce) {
  auto pts = RandomPoints(150, GetParam());
  KdTree tree(pts);
  Rng rng(GetParam() + 2000);
  for (int t = 0; t < 20; ++t) {
    Point q{rng.Uniform(-12, 12), rng.Uniform(-12, 12)};
    size_t k = 1 + rng.Below(20);
    auto got = tree.KNearest(q, k);
    ASSERT_EQ(got.size(), std::min(k, pts.size()));
    // Verify ordering and against brute-force sorted distances.
    std::vector<double> brute;
    for (const Point& p : pts) brute.push_back(SquaredDistance(p, q));
    std::sort(brute.begin(), brute.end());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_DOUBLE_EQ(SquaredDistance(pts[got[i]], q), brute[i]);
    }
  }
}

TEST_P(KdTreeRandomTest, RangeQueryMatchesBruteForce) {
  auto pts = RandomPoints(300, GetParam());
  KdTree tree(pts);
  Rng rng(GetParam() + 3000);
  for (int t = 0; t < 20; ++t) {
    double x0 = rng.Uniform(-12, 12), x1 = rng.Uniform(-12, 12);
    double y0 = rng.Uniform(-12, 12), y1 = rng.Uniform(-12, 12);
    Rect r = Rect::Of(std::min(x0, x1), std::min(y0, y1), std::max(x0, x1),
                      std::max(y0, y1));
    auto got = tree.RangeQuery(r);
    std::sort(got.begin(), got.end());
    std::vector<size_t> want;
    for (size_t i = 0; i < pts.size(); ++i) {
      if (r.Contains(pts[i])) want.push_back(i);
    }
    EXPECT_EQ(got, want);
    EXPECT_EQ(tree.CountInRect(r), want.size());
  }
}

TEST_P(KdTreeRandomTest, RadiusQueryMatchesBruteForce) {
  auto pts = RandomPoints(250, GetParam());
  KdTree tree(pts);
  Rng rng(GetParam() + 4000);
  for (int t = 0; t < 20; ++t) {
    Point q{rng.Uniform(-12, 12), rng.Uniform(-12, 12)};
    double radius = rng.Uniform(0.0, 8.0);
    auto got = tree.RadiusQuery(q, radius);
    std::sort(got.begin(), got.end());
    std::vector<size_t> want;
    for (size_t i = 0; i < pts.size(); ++i) {
      if (SquaredDistance(pts[i], q) <= radius * radius) want.push_back(i);
    }
    EXPECT_EQ(got, want);
  }
}

TEST(KdTreeTest, NearestMatchesReferenceOnTies) {
  // NearestMatchesBruteForce compares distances only, so it cannot see
  // which of several equidistant points wins. On inputs full of exact
  // ties the index must be the reference search's: the first point
  // found at the minimum distance.
  for (const test::TieInput& input : test::TieInputs()) {
    SCOPED_TRACE(input.name);
    KdTree tree(input.points);
    test::ReferenceKdTree reference(input.points);
    const std::vector<Point> queries = test::TieQueries(input.points);
    for (Point q : queries) {
      ASSERT_EQ(tree.Nearest(q), reference.Nearest(q))
          << "query (" << q.x << ", " << q.y << ")";
    }
    EXPECT_EQ(tree.Nearest(queries.front()),
              test::NearestReference(input.points, queries.front()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KdTreeRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(KdTreeTest, PointsAccessorReturnsConstructionOrder) {
  auto pts = RandomPoints(50, 99);
  KdTree tree(pts);
  ASSERT_EQ(tree.points().size(), pts.size());
  for (size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(tree.points()[i], pts[i]);
  }
}

TEST(KdTreeTest, KNearestZeroAndOversized) {
  auto pts = RandomPoints(20, 42);
  KdTree tree(pts);
  EXPECT_TRUE(tree.KNearest({0, 0}, 0).empty());
  EXPECT_EQ(tree.KNearest({0, 0}, 100).size(), 20u);
}

TEST(KdTreeTest, RadiusZeroMatchesOnlyExactPoints) {
  std::vector<Point> pts = {{1, 1}, {2, 2}};
  KdTree tree(pts);
  EXPECT_EQ(tree.RadiusQuery({1, 1}, 0.0).size(), 1u);
  EXPECT_TRUE(tree.RadiusQuery({1.5, 1.5}, 0.0).empty());
}

TEST(KdTreeTest, EmptyRangeRect) {
  auto pts = RandomPoints(50, 43);
  KdTree tree(pts);
  Rect empty;  // default rect contains nothing
  EXPECT_TRUE(tree.RangeQuery(empty).empty());
  EXPECT_EQ(tree.CountInRect(empty), 0u);
}

TEST(KdTreeTest, CollinearPointsDegenerateSplits) {
  // All points on one vertical line stresses the axis alternation.
  std::vector<Point> pts;
  for (int i = 0; i < 100; ++i) pts.push_back({1.0, double(i)});
  KdTree tree(pts);
  EXPECT_EQ(tree.Nearest({1.0, 42.2}), 42u);
  EXPECT_EQ(tree.CountInRect(Rect::Of(0, 10, 2, 19)), 10u);
}

}  // namespace
}  // namespace vas
