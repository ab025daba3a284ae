// VAS density embedding (paper §V). A plain VAS sample deliberately
// spreads points out, which destroys the density signal humans read from
// overplotting. The fix: a second pass over the dataset counts, for each
// original tuple, its nearest sample point; the count attached to each
// sample point then drives dot size (or jitter) at render time.
#ifndef VAS_CORE_DENSITY_H_
#define VAS_CORE_DENSITY_H_

#include "data/dataset.h"
#include "sampling/sample_set.h"

namespace vas {

/// Fills `sample->density` so that density[i] is the number of dataset
/// tuples whose nearest sample point is sample->ids[i] (every tuple is
/// counted exactly once; counts sum to dataset.size()). Uses a k-d tree
/// over the sample, the paper's suggested structure; a tuple with
/// several nearest points counts at the one KdTree::Nearest returns.
/// Tuples are visited in the Z-order of their cell in a 256 x 256 grid
/// over dataset.Bounds(), so consecutive searches share tree branches
/// while they are in cache. The order cannot change a count: each
/// tuple's nearest point depends only on the tuple and the tree, and a
/// count is a sum. Requires fewer than 2^32 tuples, none with a NaN or
/// infinite coordinate (such a tuple has no nearest point and fails a
/// check). No-op on an empty sample.
void EmbedDensity(const Dataset& dataset, SampleSet* sample);

/// Convenience: returns a copy of `sample` with density embedded and the
/// method name suffixed with "+density".
SampleSet WithDensity(const Dataset& dataset, SampleSet sample);

/// Per-sample-point aggregation weights: the embedded density counts
/// when present (each sample point stands in for that many original
/// tuples), otherwise empty — meaning weight 1 per point. Feeds
/// density-style rendering (heatmap tiles) so aggregates approximate
/// the full dataset, not just the sample.
std::vector<uint64_t> DensityWeights(const SampleSet& sample);

}  // namespace vas

#endif  // VAS_CORE_DENSITY_H_
