#include "core/density.h"

#include <cstdint>
#include <numeric>
#include <vector>

#include "index/kdtree.h"
#include "index/uniform_grid.h"
#include "util/logging.h"

namespace vas {

namespace {

// The tuple walk's grid: 256 x 256 cells over the dataset's bounds, so a
// cell's Z-order index fits in 16 bits.
constexpr size_t kZOrderSide = 256;

/// Moves bit i of an 8-bit value to bit 2i.
uint32_t SpreadBits(uint32_t v) {
  v = (v | (v << 4)) & 0x0F0F;
  v = (v | (v << 2)) & 0x3333;
  return (v | (v << 1)) & 0x5555;
}

/// Tuple indices ordered by the Z-order (interleaved-bit) index of their
/// grid cell, by counting sort; storage order within a cell. The grid
/// clamps NaN and infinite coordinates to an edge cell.
std::vector<uint32_t> ZOrderTuples(const Dataset& dataset) {
  const size_t n = dataset.size();
  VAS_CHECK(n < (uint64_t{1} << 32));
  std::vector<uint32_t> order(n);
  const Rect bounds = dataset.Bounds();
  if (bounds.empty()) {
    // No tuple has two comparable coordinates: keep storage order.
    std::iota(order.begin(), order.end(), uint32_t{0});
    return order;
  }
  const UniformGrid grid(bounds, kZOrderSide, kZOrderSide);
  std::vector<uint16_t> cell(n);
  std::vector<uint32_t> start(grid.num_cells() + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    const size_t c = grid.CellOf(dataset.points[i]);
    const uint32_t z =
        SpreadBits(static_cast<uint32_t>(c % kZOrderSide)) |
        (SpreadBits(static_cast<uint32_t>(c / kZOrderSide)) << 1);
    cell[i] = static_cast<uint16_t>(z);
    ++start[z + 1];
  }
  for (size_t c = 1; c < start.size(); ++c) start[c] += start[c - 1];
  for (size_t i = 0; i < n; ++i) {
    order[start[cell[i]]++] = static_cast<uint32_t>(i);
  }
  return order;
}

}  // namespace

void EmbedDensity(const Dataset& dataset, SampleSet* sample) {
  VAS_CHECK(sample != nullptr);
  sample->density.assign(sample->ids.size(), 0);
  if (sample->ids.empty()) return;
  KdTree tree(sample->MaterializePoints(dataset));
  for (uint32_t i : ZOrderTuples(dataset)) {
    size_t nearest = tree.Nearest(dataset.points[i]);
    VAS_DCHECK(nearest != KdTree::kNotFound);
    ++sample->density[nearest];
  }
}

SampleSet WithDensity(const Dataset& dataset, SampleSet sample) {
  EmbedDensity(dataset, &sample);
  sample.method += "+density";
  return sample;
}

std::vector<uint64_t> DensityWeights(const SampleSet& sample) {
  if (!sample.has_density()) return {};
  VAS_CHECK(sample.density.size() == sample.ids.size());
  return sample.density;
}

}  // namespace vas
