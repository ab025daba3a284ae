// Static 2-D k-d tree (Bentley 1975). The paper uses a k-d tree over the
// sample S during the density-embedding second pass: for every tuple of D
// the nearest sample point is found by a branch-and-bound descent that
// visits O(log K) nodes on well-spread data. Also used by the
// evaluation harness (nearest-sample lookups for simulated regression
// users).
#ifndef VAS_INDEX_KDTREE_H_
#define VAS_INDEX_KDTREE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geom/point.h"
#include "geom/rect.h"

namespace vas {

/// Immutable k-d tree over a point set. Node ids refer to positions in
/// the *input* vector, so callers can carry parallel payload arrays.
class KdTree {
 public:
  /// Builds the tree by median splitting; O(n log n). An empty input
  /// builds an empty tree (queries then return kNotFound / empty).
  /// Takes the points by value so a caller's temporary moves in. Node
  /// and point ids are 32-bit: at most 2^31 - 1 points.
  explicit KdTree(std::vector<Point> points);

  static constexpr size_t kNotFound = static_cast<size_t>(-1);

  size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }

  /// The construction-time point set; returned ids index into it.
  const std::vector<Point>& points() const { return points_; }

  /// Index (into the construction vector) of the nearest point to `q`.
  /// The search visits a node, keeps it only when it is strictly closer
  /// than the best so far, descends into the near child first, and
  /// enters a far child only when its splitting plane is strictly
  /// closer than the best at that time. Among points at the minimum
  /// distance, the first one this near-side-first search finds wins.
  /// Returns kNotFound on an empty tree, or when no distance to `q`
  /// compares below infinity (a NaN or infinite `q`).
  size_t Nearest(Point q) const;

  /// Indices of the k nearest points, ordered from nearest to farthest.
  /// Returns fewer than k when the tree is smaller.
  std::vector<size_t> KNearest(Point q, size_t k) const;

  /// Indices of all points inside `rect` (inclusive bounds).
  std::vector<size_t> RangeQuery(const Rect& rect) const;

  /// Number of points inside `rect` without materializing ids.
  size_t CountInRect(const Rect& rect) const;

  /// Indices of all points within Euclidean distance `radius` of `q`.
  std::vector<size_t> RadiusQuery(Point q, double radius) const;

 private:
  struct Node {
    Point point;
    uint32_t payload = 0;  // index into the construction vector
    int32_t left = -1;     // child node ids, -1 = none
    int32_t right = -1;
    int32_t axis = 0;      // 0 = x, 1 = y
  };
  static_assert(sizeof(Node) == 32, "two nodes per 64-byte cache line");

  int32_t Build(std::vector<uint32_t>& ids, size_t begin, size_t end,
                int depth);

  template <typename Visitor>
  void Visit(int32_t node, const Rect& rect, Visitor&& visit) const;

  std::vector<Point> points_;
  std::vector<Node> nodes_;
  int32_t root_ = -1;
};

}  // namespace vas

#endif  // VAS_INDEX_KDTREE_H_
