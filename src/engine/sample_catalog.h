// Offline sample catalog (paper §II-B, §II-D). VAS is "a specialized
// index designed for visualization workloads": for each frequently
// visualized column pair, a ladder of pre-built samples of increasing
// size is materialized offline; at query time the largest sample whose
// estimated visualization latency fits the interactivity budget is
// served.
//
// Two build paths exist. The blocking constructor materializes the full
// ladder before returning — the original offline shape. The nested
// Builder submits one task per rung to a ThreadPool and publishes each
// rung the moment it finishes, so a serving layer (CatalogManager /
// InteractiveSession) can answer from the smallest rung while larger
// ones are still being sampled. Both lay each rung out by grid cell
// (engine/rung_layout) before publishing it; the layout is shared, not
// copied, by every catalog that holds the rung.
#ifndef VAS_ENGINE_SAMPLE_CATALOG_H_
#define VAS_ENGINE_SAMPLE_CATALOG_H_

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "data/dataset.h"
#include "engine/rung_layout.h"
#include "render/scatter_renderer.h"
#include "sampling/sample_set.h"
#include "sampling/sampler.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace vas {

/// Creates a fresh sampler per build task. Rung builds run concurrently,
/// and Sampler implementations are stateful, so each task needs its own
/// instance.
using SamplerFactory = std::function<std::unique_ptr<Sampler>()>;

/// A ladder of pre-generated samples over one dataset (one indexed
/// column pair).
class SampleCatalog {
 public:
  struct Options {
    /// Sample sizes to materialize, ascending.
    std::vector<size_t> ladder = {100, 1000, 10000, 100000};
    /// Also run the density-embedding pass on every sample (§V).
    bool embed_density = true;
  };

  /// Builds every ladder rung with `sampler` (the offline, expensive
  /// step) and lays it out against `dataset`, blocking until the whole
  /// ladder exists. Rungs larger than the dataset are clamped and
  /// deduplicated.
  SampleCatalog(const Dataset& dataset, Sampler& sampler, Options options);

  /// Wraps an already-built ladder, without layouts. Rungs are sorted
  /// ascending by size.
  explicit SampleCatalog(std::vector<SampleSet> samples);

  /// Wraps an already-built ladder with `layouts` parallel to `samples`
  /// (entries may be null; a non-null layout must have been built for
  /// its rung), or empty for none. Rungs are sorted ascending by size,
  /// layouts with them.
  SampleCatalog(std::vector<SampleSet> samples,
                std::vector<std::shared_ptr<const RungLayout>> layouts);

  class Builder;

  const std::vector<SampleSet>& samples() const { return samples_; }

  /// Rung `k`'s cell layout; null when the rung has none.
  const std::shared_ptr<const RungLayout>& layout(size_t k) const {
    return layouts_[k];
  }

  /// Lays out every rung that has no layout yet against `dataset`, the
  /// dataset its ids index. Returns the first error; a rung that fails
  /// keeps no layout (and is served whole).
  Status LayOut(const Dataset& dataset);

  /// Largest sample whose estimated viz time fits `seconds` under
  /// `model`. Falls back to the smallest rung when none fits (serving
  /// nothing would be worse than serving slightly late).
  const SampleSet& ChooseForTimeBudget(double seconds,
                                       const VizTimeModel& model) const;

 private:
  std::vector<SampleSet> samples_;  // ascending by size
  std::vector<std::shared_ptr<const RungLayout>> layouts_;  // parallel
};

/// Asynchronous ladder construction. Each rung becomes one ThreadPool
/// task; finished rungs are published immediately as immutable catalog
/// snapshots, smallest first in the common case since smaller rungs are
/// both submitted first and cheaper to build.
///
/// Thread-safety: all methods may be called from any thread. The
/// destructor blocks until every in-flight rung task has finished, so
/// tasks never outlive the builder (or the dataset it shares).
class SampleCatalog::Builder {
 public:
  /// Invoked after each rung publication with (rungs ready, rungs
  /// total). Calls arrive from whichever worker finished the rung, with
  /// no lock held; when rungs finish concurrently the ready counts may
  /// arrive out of order, so consumers should treat a call as "another
  /// rung landed", not as an ordered sequence.
  using RungCallback = std::function<void(size_t ready, size_t total)>;

  /// `pool` may be null, which makes Start() build every rung inline
  /// (the blocking path, useful for tests and degraded serving).
  /// `on_rung` (optional) is notified after each rung lands;
  /// CatalogManager counts rungs in vas_catalog_rungs_built_total with
  /// it.
  Builder(std::shared_ptr<const Dataset> dataset,
          SamplerFactory sampler_factory, Options options,
          ThreadPool* pool, RungCallback on_rung = nullptr);
  ~Builder();

  Builder(const Builder&) = delete;
  Builder& operator=(const Builder&) = delete;

  /// Submits one build task per rung. Must be called exactly once; with
  /// a pool it returns immediately.
  void Start();

  /// The catalog of every rung finished so far, or null before the
  /// first rung lands. Snapshots are immutable; a later publication
  /// swaps in a new catalog rather than mutating a served one.
  std::shared_ptr<const SampleCatalog> Snapshot() const;

  size_t rungs_total() const;
  size_t rungs_ready() const;
  bool done() const;

  /// Blocks until at least min(count, rungs_total()) rungs are ready
  /// and returns the snapshot at that moment.
  std::shared_ptr<const SampleCatalog> WaitForRung(size_t count) const;

  /// Blocks until the whole ladder is built.
  std::shared_ptr<const SampleCatalog> Wait() const;

 private:
  void BuildRung(size_t k);

  std::shared_ptr<const Dataset> dataset_;
  SamplerFactory sampler_factory_;
  Options options_;
  ThreadPool* pool_;
  RungCallback on_rung_;
  std::vector<size_t> ladder_;  // clamped, deduplicated, ascending

  mutable std::mutex mu_;
  mutable std::condition_variable rung_published_;
  std::vector<SampleSet> ready_;  // ascending by size
  std::vector<std::shared_ptr<const RungLayout>> ready_layouts_;  // parallel
  std::shared_ptr<const SampleCatalog> snapshot_;
  size_t completed_ = 0;
  bool started_ = false;
};

}  // namespace vas

#endif  // VAS_ENGINE_SAMPLE_CATALOG_H_
