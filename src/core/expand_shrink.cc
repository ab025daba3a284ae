#include "core/expand_shrink.h"

#include <cmath>

#include "util/logging.h"

namespace vas {

namespace {

double CutoffRadius(const GaussianKernel& kernel, double threshold) {
  const double radius = kernel.EffectiveRadius(threshold);
  VAS_CHECK_MSG(radius >= 0.0 && std::isfinite(radius),
                "epsilon must be positive and locality_threshold must "
                "lie in (0, 1]");
  return radius;
}

}  // namespace

LocalExpandShrink::LocalExpandShrink(const GaussianKernel& kernel,
                                     double locality_threshold,
                                     size_t capacity)
    : kernel_(kernel),
      radius_(CutoffRadius(kernel, locality_threshold)),
      // A zero radius finds exact duplicates only, in any cell width.
      grid_(radius_ > 0.0 ? radius_ / 2.0 : 1.0),
      heap_(capacity),
      points_(capacity) {}

void LocalExpandShrink::Start(const std::vector<Point>& points,
                              const std::vector<double>& resp) {
  VAS_CHECK(points.size() == points_.size() && resp.size() == points.size());
  for (size_t i = 0; i < points.size(); ++i) grid_.Insert(points[i], i);
  for (size_t i = 0; i < resp.size(); ++i) heap_.Update(i, resp[i]);
  points_ = points;
}

void LocalExpandShrink::Fill(size_t slot, Point p) {
  double resp = 0.0;
  grid_.ForEachWithin(p, radius_, [&](size_t other, Point q) {
    double v = kernel_(p, q);
    heap_.Add(other, v);
    resp += v;
  });
  heap_.Update(slot, resp);
  grid_.Insert(p, slot);
  points_[slot] = p;
}

LocalExpandShrink::Outcome LocalExpandShrink::Offer(Point candidate) {
  // Expand: add the candidate's kernel value to its neighbours' keys.
  neighbors_.clear();
  double cand_resp = 0.0;
  grid_.ForEachWithin(candidate, radius_, [&](size_t slot, Point p) {
    double v = kernel_(candidate, p);
    neighbors_.emplace_back(slot, v);
    cand_resp += v;
  });
  for (const auto& [slot, v] : neighbors_) heap_.Add(slot, v);

  Outcome out;
  // Shrink. The candidate is the worst element of the expanded set:
  // revert.
  if (heap_.TopKey() <= cand_resp) {
    for (const auto& [slot, v] : neighbors_) heap_.Add(slot, -v);
    return out;
  }
  const size_t victim = heap_.Top();
  const Point old = points_[victim];
  // Both responsibilities refer to the expanded (K+1) set: the heap key
  // includes the candidate's contribution, and cand_resp the victim's.
  out.replaced = true;
  out.slot = victim;
  out.objective_change = cand_resp - heap_.KeyOf(victim);
  // Subtract the victim's kernel mass from *its* neighbourhood.
  grid_.ForEachWithin(old, radius_, [&](size_t slot, Point p) {
    if (slot == victim) return;
    heap_.Add(slot, -kernel_(old, p));
  });
  const double d2 = SquaredDistance(candidate, old);
  if (d2 <= radius_ * radius_) cand_resp -= kernel_.FromSquaredDistance(d2);
  VAS_CHECK(grid_.Remove(old, victim));
  grid_.Insert(candidate, victim);
  heap_.Update(victim, cand_resp);
  points_[victim] = candidate;
  return out;
}

double LocalExpandShrink::Objective() const {
  double total = 0.0;
  for (size_t i = 0; i < heap_.capacity(); ++i) total += heap_.KeyOf(i);
  return total / 2.0;
}

}  // namespace vas
