// Incremental VAS maintenance (paper §II-B: "a sample can also be
// periodically updated when new data arrives"). Interchange is already a
// streaming algorithm, so the maintained state is exactly its slot
// state: feed every new tuple through one Expand/Shrink step and the
// sample stays VAS-optimal-ish forever, without re-reading old data.
//
// Unlike InterchangeSampler (one-shot over a Dataset), this class owns
// its state across batches and tracks tuples by stream position.
#ifndef VAS_CORE_INCREMENTAL_H_
#define VAS_CORE_INCREMENTAL_H_

#include <cstdint>
#include <vector>

#include "core/expand_shrink.h"
#include "data/dataset.h"

namespace vas {

/// Maintains a size-K VAS sample over an unbounded tuple stream.
class IncrementalVas {
 public:
  struct Options {
    /// Kernel bandwidth ε. Must be positive: a stream has no final
    /// bounding box to derive the paper's extent/100 default from, so
    /// the caller supplies it (e.g. from the expected domain).
    double epsilon = 0.1;
    /// Kernel values below this are ignored (locality truncation).
    double locality_threshold = 1.1e-7;
    /// Unused: the fill phase takes the stream's first K tuples, so
    /// nothing is drawn at random.
    uint64_t seed = 19;
  };

  /// A retained tuple: stream position + plot data.
  struct Element {
    uint64_t stream_id = 0;
    Point point;
    double value = 0.0;
  };

  IncrementalVas(size_t k, Options options);

  /// Feeds one tuple: one Expand/Shrink step once the sample is full;
  /// O(neighborhood · log K).
  void Observe(Point p, double value = 0.0);

  /// Feeds a batch (convenience).
  void ObserveDataset(const Dataset& batch);

  /// Current sample, ordered by stream id.
  std::vector<Element> Sample() const;

  /// Current sample as a Dataset (points + values).
  Dataset SampleDataset() const;

  /// Locality-truncated optimization objective of the current sample.
  double objective() const;

  uint64_t tuples_seen() const { return tuples_seen_; }
  size_t size() const { return filled_; }
  size_t capacity() const { return k_; }

 private:
  size_t k_;
  std::vector<Element> slots_;
  size_t filled_ = 0;
  uint64_t tuples_seen_ = 0;
  LocalExpandShrink step_;
};

}  // namespace vas

#endif  // VAS_CORE_INCREMENTAL_H_
