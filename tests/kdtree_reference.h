// Reference oracle for nearest-neighbour search: the original recursive
// k-d tree, kept so tests can check that KdTree::Nearest and
// EmbedDensity pick the same point, ties included. The build splits at
// the median with std::nth_element over an array of construction
// indices, alternating x and y by depth; the search visits a node,
// keeps it only when strictly closer, descends into the near child and
// enters the far child only when its splitting plane is strictly closer
// than the best distance so far. A tie therefore goes to the first
// point found at the minimum distance. Header-only and built from the
// library's public types alone; it does not include gtest.
#ifndef VAS_TESTS_KDTREE_REFERENCE_H_
#define VAS_TESTS_KDTREE_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "util/random.h"

namespace vas {
namespace test {

class ReferenceKdTree {
 public:
  static constexpr size_t kNotFound = static_cast<size_t>(-1);

  explicit ReferenceKdTree(std::vector<Point> points)
      : points_(std::move(points)) {
    if (points_.empty()) return;
    nodes_.reserve(points_.size());
    std::vector<size_t> ids(points_.size());
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = i;
    root_ = Build(ids, 0, ids.size(), 0);
  }

  /// Construction index of the nearest point to `q`, or kNotFound on an
  /// empty tree.
  size_t Nearest(Point q) const {
    size_t best = kNotFound;
    double best_d2 = std::numeric_limits<double>::infinity();
    NearestImpl(root_, q, best, best_d2);
    return best;
  }

 private:
  struct Node {
    Point point;
    size_t payload = 0;
    int left = -1;
    int right = -1;
    int axis = 0;
  };

  int Build(std::vector<size_t>& ids, size_t begin, size_t end, int depth) {
    if (begin >= end) return -1;
    int axis = depth % 2;
    size_t mid = begin + (end - begin) / 2;
    std::nth_element(ids.begin() + begin, ids.begin() + mid,
                     ids.begin() + end, [&](size_t a, size_t b) {
                       return axis == 0 ? points_[a].x < points_[b].x
                                        : points_[a].y < points_[b].y;
                     });
    Node node;
    node.point = points_[ids[mid]];
    node.payload = ids[mid];
    node.axis = axis;
    int node_id = static_cast<int>(nodes_.size());
    nodes_.push_back(node);
    int left = Build(ids, begin, mid, depth + 1);
    int right = Build(ids, mid + 1, end, depth + 1);
    nodes_[node_id].left = left;
    nodes_[node_id].right = right;
    return node_id;
  }

  void NearestImpl(int node_id, Point q, size_t& best, double& best_d2) const {
    if (node_id < 0) return;
    const Node& node = nodes_[node_id];
    double d2 = SquaredDistance(node.point, q);
    if (d2 < best_d2) {
      best_d2 = d2;
      best = node.payload;
    }
    double delta = node.axis == 0 ? q.x - node.point.x : q.y - node.point.y;
    int near = delta <= 0 ? node.left : node.right;
    int far = delta <= 0 ? node.right : node.left;
    NearestImpl(near, q, best, best_d2);
    if (delta * delta < best_d2) NearestImpl(far, q, best, best_d2);
  }

  std::vector<Point> points_;
  std::vector<Node> nodes_;
  int root_ = -1;
};

/// One-shot form: builds the reference tree over `points` and returns
/// the construction index of the point nearest to `q`.
inline size_t NearestReference(const std::vector<Point>& points, Point q) {
  return ReferenceKdTree(points).Nearest(q);
}

/// The density counts the reference search gives: dataset tuples taken
/// in storage order, each counted at its nearest point of `sample_points`.
inline std::vector<uint64_t> ReferenceDensity(
    const Dataset& dataset, const std::vector<Point>& sample_points) {
  std::vector<uint64_t> counts(sample_points.size(), 0);
  if (sample_points.empty()) return counts;
  ReferenceKdTree tree(sample_points);
  for (const Point& p : dataset.points) ++counts[tree.Nearest(p)];
  return counts;
}

/// A point set in which many queries have several nearest points at
/// exactly the same distance.
struct TieInput {
  std::string name;
  std::vector<Point> points;
};

/// The tie inputs, each in a shuffled construction order:
///  - "lattice": 20,000 points with integer coordinates in 0..99, so
///    about two copies of each lattice point;
///  - "duplicates": 1,000 copies of (50, 50) and 64 points on a circle
///    of radius 10 around it;
///  - "collinear": 500 points on x = 1 with integer y in 0..249, two
///    copies of each.
inline std::vector<TieInput> TieInputs() {
  Rng rng(2024);
  std::vector<TieInput> inputs;
  TieInput lattice{"lattice", {}};
  for (int i = 0; i < 20000; ++i) {
    double x = rng.Below(100);
    lattice.points.push_back({x, static_cast<double>(rng.Below(100))});
  }
  inputs.push_back(std::move(lattice));
  TieInput duplicates{"duplicates", std::vector<Point>(1000, Point{50, 50})};
  for (int i = 0; i < 64; ++i) {
    double angle = 2.0 * M_PI * i / 64.0;
    duplicates.points.push_back(
        {50 + 10 * std::cos(angle), 50 + 10 * std::sin(angle)});
  }
  rng.Shuffle(duplicates.points);
  inputs.push_back(std::move(duplicates));
  TieInput collinear{"collinear", {}};
  for (int i = 0; i < 500; ++i) {
    collinear.points.push_back({1.0, static_cast<double>(i % 250)});
  }
  rng.Shuffle(collinear.points);
  inputs.push_back(std::move(collinear));
  return inputs;
}

/// Queries that tie: every input point (duplicates included), then
/// every integer and half-integer point of the input's bounding box
/// grown by one unit on each side.
inline std::vector<Point> TieQueries(const std::vector<Point>& points) {
  std::vector<Point> queries = points;
  Rect box = Rect::BoundingBox(points);
  for (double x = std::floor(box.min_x) - 1; x <= std::ceil(box.max_x) + 1;
       x += 0.5) {
    for (double y = std::floor(box.min_y) - 1;
         y <= std::ceil(box.max_y) + 1; y += 0.5) {
      queries.push_back({x, y});
    }
  }
  return queries;
}

}  // namespace test
}  // namespace vas

#endif  // VAS_TESTS_KDTREE_REFERENCE_H_
