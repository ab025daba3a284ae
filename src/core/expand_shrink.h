// The locality-truncated Expand/Shrink step (paper §IV-B: Algorithm 1
// with the kernel cut off at its effective radius), shared by
// InterchangeSampler's locality mode and IncrementalVas. The K slots'
// points sit in a HashedGrid of cells radius/2 wide (a query reads at
// most 5x5 cells), and their responsibilities r_i = Σ_{j≠i} κ̃(s_i, s_j),
// unhalved and truncated at the radius, in an addressable max-heap.
#ifndef VAS_CORE_EXPAND_SHRINK_H_
#define VAS_CORE_EXPAND_SHRINK_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "core/indexed_heap.h"
#include "core/kernel.h"
#include "index/hashed_grid.h"

namespace vas {

class LocalExpandShrink {
 public:
  /// Kernel values below `locality_threshold`, which must lie in
  /// (0, 1], count as zero: the cutoff radius is
  /// kernel.EffectiveRadius(locality_threshold). All `capacity` slots
  /// start empty, with key 0.
  LocalExpandShrink(const GaussianKernel& kernel, double locality_threshold,
                    size_t capacity);

  /// Fills slot i with points[i] and responsibility resp[i], computed
  /// by the caller (Interchange's exact start).
  void Start(const std::vector<Point>& points,
             const std::vector<double>& resp);

  /// Fills the empty slot `slot` with `p`, adding p's kernel value to
  /// each neighbour (IncrementalVas's fill phase).
  void Fill(size_t slot, Point p);

  /// One step for `candidate`. Expand adds its kernel value to each
  /// neighbour's key; Shrink evicts the largest responsibility of the
  /// K+1 set. Unless that is the candidate (which reverts Expand), the
  /// candidate takes the evicted `slot`, and the objective changes by
  /// its responsibility minus the slot's, both in the expanded set.
  struct Outcome {
    bool replaced = false;
    size_t slot = 0;
    double objective_change = 0.0;
  };
  Outcome Offer(Point candidate);

  /// Σ r_i / 2 over all slots (empty slots hold 0): the locality-
  /// truncated objective.
  double Objective() const;

 private:
  GaussianKernel kernel_;
  double radius_;
  HashedGrid grid_;
  IndexedMaxHeap heap_;
  std::vector<Point> points_;
  // Reused by each Offer: every neighbour slot and its kernel value.
  std::vector<std::pair<size_t, double>> neighbors_;
};

}  // namespace vas

#endif  // VAS_CORE_EXPAND_SHRINK_H_
