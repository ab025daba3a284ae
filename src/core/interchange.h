// The Interchange approximation algorithm for VAS (paper §IV-B,
// Algorithm 1). Starting from a random size-K subset, it streams through
// the dataset and performs every replacement that decreases the
// optimization objective Σ_{i<j} κ̃(s_i, s_j).
//
// Three optimization levels, matching the paper's Figure 10 ablation:
//  * kNoExpandShrink — tests a replacement by recomputing the candidate's
//    responsibility against every slot: O(K²) per tuple.
//  * kExpandShrink — Algorithm 1's Expand/Shrink: temporarily grow the
//    set to K+1, evict the max-responsibility element: O(K) per tuple.
//  * kExpandShrinkLocality — additionally truncates the kernel beyond its
//    effective radius and keeps the sample in a hashed cell grid, so only
//    the candidate's spatial neighborhood is touched; an addressable
//    max-heap yields the eviction victim in O(1). The step is
//    LocalExpandShrink (core/expand_shrink.h), shared with IncrementalVas.
#ifndef VAS_CORE_INTERCHANGE_H_
#define VAS_CORE_INTERCHANGE_H_

#include <cstdint>
#include <functional>

#include "core/kernel.h"
#include "sampling/sampler.h"

namespace vas {

/// VAS sampler built on the Interchange algorithm.
class InterchangeSampler : public Sampler {
 public:
  enum class Optimization {
    kNoExpandShrink,
    kExpandShrink,
    kExpandShrinkLocality,
  };

  /// Progress snapshot passed to the optional callback (used to trace
  /// objective-vs-time curves, paper Figure 9).
  struct Progress {
    double seconds = 0.0;
    double objective = 0.0;
    size_t tuples_processed = 0;
    size_t pass = 0;
    size_t replacements = 0;
  };

  struct Options {
    /// Kernel bandwidth ε; 0 selects the paper's default, extent/100.
    double epsilon = 0.0;
    Optimization optimization = Optimization::kExpandShrinkLocality;
    /// Maximum full passes over the dataset. Interchange converges when
    /// a pass performs no replacement; this caps the work if it doesn't.
    size_t max_passes = 4;
    /// Wall-clock cap in seconds; 0 = unlimited. The paper notes even a
    /// truncated run yields a high-quality sample.
    double time_budget_seconds = 0.0;
    /// Kernel values below this are treated as zero in locality mode.
    /// The paper's example cutoff (distance 4 in their units) maps to
    /// kernel mass ~1.1e-7.
    double locality_threshold = 1.1e-7;
    uint64_t seed = 3;
    /// Invoked every `progress_interval` tuples when set (and at pass
    /// boundaries). 0 disables.
    std::function<void(const Progress&)> progress;
    size_t progress_interval = 0;
  };

  /// Rich result: the sample plus run diagnostics.
  struct Result {
    SampleSet sample;
    /// Final optimization objective (locality mode: locality-truncated
    /// estimate).
    double objective = 0.0;
    double epsilon = 0.0;
    size_t passes = 0;
    size_t replacements = 0;
    size_t tuples_processed = 0;
    bool converged = false;
    double seconds = 0.0;
  };

  explicit InterchangeSampler(Options options) : options_(options) {}
  InterchangeSampler() : InterchangeSampler(Options{}) {}

  SampleSet Sample(const Dataset& dataset, size_t k) override;
  std::string name() const override { return "vas"; }

  /// Full-diagnostics entry point.
  Result Run(const Dataset& dataset, size_t k) const;

 private:
  Options options_;
};

}  // namespace vas

#endif  // VAS_CORE_INTERCHANGE_H_
