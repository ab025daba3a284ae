// Interactive visualization session: the ScalaR-style dynamic-reduction
// layer between a visualization tool and the table (paper §II-A,
// Figure 3). The tool submits a viewport (zoom rectangle) and a latency
// budget; the session converts the budget into a sample size, counts
// the sampled tuples under the viewport predicate from the chosen
// rung's cell layout (copying none of them), and reports what an
// external renderer would have cost with and without sampling.
//
// A session serves either a fully built catalog it owns (the original
// blocking shape) or a named build inside a CatalogManager. In the
// manager-backed shape every request re-resolves the best *currently
// available* ladder: the first plot can be answered from the smallest
// rung moments after the build starts, and later requests transparently
// upgrade as larger rungs land.
#ifndef VAS_ENGINE_SESSION_H_
#define VAS_ENGINE_SESSION_H_

#include <memory>
#include <mutex>

#include "engine/catalog_manager.h"
#include "engine/sample_catalog.h"
#include "engine/table.h"
#include "geom/rect.h"
#include "index/uniform_grid.h"
#include "util/status.h"

namespace vas {

/// One user's interactive exploration of one plotted column pair.
class InteractiveSession {
 public:
  struct PlotRequest {
    /// Zoom viewport in data coordinates; an empty rect means "all".
    Rect viewport;
    /// Interactivity budget (HCI guidance: 0.5–2 s).
    double time_budget_seconds = 2.0;
  };

  struct PlotResult {
    size_t catalog_sample_size = 0;
    /// How many of the chosen rung's sampled tuples lie inside the
    /// viewport (the whole rung for an empty viewport): the tuples a
    /// renderer of this plot would draw.
    size_t sample_points_in_viewport = 0;
    /// Exact number of dataset tuples inside the viewport (the whole
    /// dataset for an empty viewport), answered from the session's
    /// cached count grid — what the plot would show unsampled.
    size_t points_in_viewport = 0;
    double estimated_viz_seconds = 0.0;
    /// What rendering the *unsampled* viewport contents would cost.
    double estimated_full_viz_seconds = 0.0;
    /// Ladder progress at serve time. Equal when the build is complete
    /// (always, for a session owning its catalog); ready < total means
    /// this plot was served from a partially built ladder.
    size_t catalog_rungs_ready = 0;
    size_t catalog_rungs_total = 0;
  };

  /// Takes ownership of the plotted dataset and its fully built
  /// catalog. `model` converts point counts to viz latency (calibrated
  /// Tableau/MathGL).
  InteractiveSession(Dataset dataset, std::unique_ptr<SampleCatalog> catalog,
                     VizTimeModel model);

  /// Serves from `manager`'s build of `key` (which must already be
  /// registered via CatalogManager::StartBuild). The dataset is shared
  /// with the build; the manager must outlive the session.
  InteractiveSession(std::shared_ptr<const Dataset> dataset,
                     CatalogManager* manager, CatalogKey key,
                     VizTimeModel model);

  /// Serves one plot request from the best catalog available right
  /// now. Manager-backed sessions block only while no rung exists yet
  /// (time-to-first-plot = smallest rung's build time, not the full
  /// ladder's), and return the manager's error when it cannot hand
  /// over a ladder: NotFound once the key has been dropped, Internal
  /// ("spill file corrupt") when a spilled ladder's file fails to read
  /// back. A session that owns its catalog always succeeds.
  StatusOr<PlotResult> Plot(const PlotRequest& request) const;

  /// Plot() for callers that treat failure as a bug: aborts on an
  /// error. Use it only for a session that owns its catalog, or a
  /// manager-backed one whose key can neither be dropped nor spilled
  /// meanwhile; a server answering requests calls Plot().
  PlotResult RequestPlot(const PlotRequest& request) const;

  const Dataset& dataset() const { return *dataset_; }

 private:
  /// Exact count of dataset points inside `viewport`, answered from the
  /// session's count grid (built lazily on the first zoomed request)
  /// instead of rescanning every point per plot.
  size_t CountInViewport(const Rect& viewport) const;

  std::shared_ptr<const Dataset> dataset_;
  std::unique_ptr<SampleCatalog> owned_catalog_;
  CatalogManager* manager_ = nullptr;
  CatalogKey key_;
  VizTimeModel model_;

  /// Cell-aggregate index over dataset_->points for viewport counting.
  /// One O(n) build amortized across every plot of the session; guarded
  /// by call_once so concurrent Plot callers stay race-free.
  mutable std::once_flag count_grid_once_;
  mutable std::unique_ptr<UniformGrid> count_grid_;
};

}  // namespace vas

#endif  // VAS_ENGINE_SESSION_H_
