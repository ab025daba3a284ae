#include "index/kdtree.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <utility>

#include "util/logging.h"

namespace vas {

KdTree::KdTree(std::vector<Point> points) : points_(std::move(points)) {
  if (points_.empty()) return;
  VAS_CHECK(points_.size() <=
            static_cast<size_t>(std::numeric_limits<int32_t>::max()));
  nodes_.reserve(points_.size());
  std::vector<uint32_t> ids(points_.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<uint32_t>(i);
  root_ = Build(ids, 0, ids.size(), 0);
}

int32_t KdTree::Build(std::vector<uint32_t>& ids, size_t begin, size_t end,
                      int depth) {
  if (begin >= end) return -1;
  int axis = depth % 2;
  size_t mid = begin + (end - begin) / 2;
  std::nth_element(ids.begin() + begin, ids.begin() + mid, ids.begin() + end,
                   [&](uint32_t a, uint32_t b) {
                     return axis == 0 ? points_[a].x < points_[b].x
                                      : points_[a].y < points_[b].y;
                   });
  Node node;
  node.point = points_[ids[mid]];
  node.payload = ids[mid];
  node.axis = axis;
  int32_t node_id = static_cast<int32_t>(nodes_.size());
  nodes_.push_back(node);
  int32_t left = Build(ids, begin, mid, depth + 1);
  int32_t right = Build(ids, mid + 1, end, depth + 1);
  nodes_[node_id].left = left;
  nodes_[node_id].right = right;
  return node_id;
}

size_t KdTree::Nearest(Point q) const {
  if (empty()) return kNotFound;
  // Far children still to decide, innermost last, each with its
  // splitting plane's squared distance from q. A median-split tree of
  // fewer than 2^32 points is under 33 levels deep, and each level adds
  // at most one entry.
  struct Pending {
    int32_t node;
    double plane_d2;
  };
  constexpr size_t kMaxPending = 64;
  Pending pending[kMaxPending];
  size_t num_pending = 0;
  size_t best = kNotFound;
  double best_d2 = std::numeric_limits<double>::infinity();
  int32_t node_id = root_;
  for (;;) {
    // Descend the near side, deferring each far child.
    while (node_id >= 0) {
      const Node& node = nodes_[node_id];
      double d2 = SquaredDistance(node.point, q);
      if (d2 < best_d2) {
        best_d2 = d2;
        best = node.payload;
      }
      double delta = node.axis == 0 ? q.x - node.point.x : q.y - node.point.y;
      int32_t near = delta <= 0 ? node.left : node.right;
      int32_t far = delta <= 0 ? node.right : node.left;
      if (far >= 0) {
        VAS_DCHECK(num_pending < kMaxPending);
        pending[num_pending++] = {far, delta * delta};
      }
      node_id = near;
    }
    // Back out to the innermost far child whose plane is still closer
    // than the best found so far: the order the recursive search enters
    // them in, so ties resolve the same way.
    do {
      if (num_pending == 0) return best;
      --num_pending;
    } while (!(pending[num_pending].plane_d2 < best_d2));
    node_id = pending[num_pending].node;
  }
}

std::vector<size_t> KdTree::KNearest(Point q, size_t k) const {
  // Max-heap of (distance², payload); the root is the current k-th best.
  using Entry = std::pair<double, size_t>;
  std::priority_queue<Entry> heap;
  if (k == 0 || empty()) return {};

  // Iterative traversal with pruning against the heap top.
  std::vector<int32_t> stack = {root_};
  while (!stack.empty()) {
    int32_t node_id = stack.back();
    stack.pop_back();
    if (node_id < 0) continue;
    const Node& node = nodes_[node_id];
    double d2 = SquaredDistance(node.point, q);
    if (heap.size() < k) {
      heap.emplace(d2, node.payload);
    } else if (d2 < heap.top().first) {
      heap.pop();
      heap.emplace(d2, node.payload);
    }
    double delta = node.axis == 0 ? q.x - node.point.x : q.y - node.point.y;
    int32_t near = delta <= 0 ? node.left : node.right;
    int32_t far = delta <= 0 ? node.right : node.left;
    // Visit the near side unconditionally; the far side only if the
    // splitting plane is closer than the current k-th best (or the heap
    // is not yet full).
    if (heap.size() < k || delta * delta < heap.top().first) {
      if (far >= 0) stack.push_back(far);
    }
    if (near >= 0) stack.push_back(near);
  }

  std::vector<size_t> out(heap.size());
  for (size_t i = heap.size(); i-- > 0;) {
    out[i] = heap.top().second;
    heap.pop();
  }
  return out;
}

template <typename Visitor>
void KdTree::Visit(int32_t node_id, const Rect& rect, Visitor&& visit) const {
  if (node_id < 0) return;
  const Node& node = nodes_[node_id];
  if (rect.Contains(node.point)) visit(node.payload);
  double coord = node.axis == 0 ? node.point.x : node.point.y;
  double lo = node.axis == 0 ? rect.min_x : rect.min_y;
  double hi = node.axis == 0 ? rect.max_x : rect.max_y;
  if (lo <= coord) Visit(node.left, rect, visit);
  if (hi >= coord) Visit(node.right, rect, visit);
}

std::vector<size_t> KdTree::RangeQuery(const Rect& rect) const {
  std::vector<size_t> out;
  Visit(root_, rect, [&](size_t id) { out.push_back(id); });
  return out;
}

size_t KdTree::CountInRect(const Rect& rect) const {
  size_t count = 0;
  Visit(root_, rect, [&](size_t) { ++count; });
  return count;
}

std::vector<size_t> KdTree::RadiusQuery(Point q, double radius) const {
  VAS_CHECK(radius >= 0.0);
  Rect box = Rect::Of(q.x - radius, q.y - radius, q.x + radius, q.y + radius);
  double r2 = radius * radius;
  std::vector<size_t> out;
  Visit(root_, box, [&](size_t id) {
    if (SquaredDistance(points_[id], q) <= r2) out.push_back(id);
  });
  return out;
}

}  // namespace vas
