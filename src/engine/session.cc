#include "engine/session.h"

#include <utility>

#include "util/logging.h"

namespace vas {

namespace {

std::shared_ptr<const Dataset> OwnDataset(Dataset dataset) {
  auto owned = std::make_shared<Dataset>(std::move(dataset));
  // The session queries bounds per request; pay the O(n) pass once.
  owned->CacheBounds();
  return owned;
}

/// How many of `sample`'s points lie inside `viewport`, by testing
/// each: the count for a rung without a cell layout.
size_t CountByScan(const Dataset& dataset, const SampleSet& sample,
                   const Rect& viewport) {
  size_t count = 0;
  for (size_t id : sample.ids) {
    count += viewport.Contains(dataset.points[id]) ? 1 : 0;
  }
  return count;
}

}  // namespace

InteractiveSession::InteractiveSession(Dataset dataset,
                                       std::unique_ptr<SampleCatalog> catalog,
                                       VizTimeModel model)
    : dataset_(OwnDataset(std::move(dataset))),
      owned_catalog_(std::move(catalog)),
      model_(model) {
  VAS_CHECK(owned_catalog_ != nullptr);
}

InteractiveSession::InteractiveSession(std::shared_ptr<const Dataset> dataset,
                                       CatalogManager* manager,
                                       CatalogKey key, VizTimeModel model)
    : dataset_(std::move(dataset)),
      manager_(manager),
      key_(std::move(key)),
      model_(model) {
  VAS_CHECK(dataset_ != nullptr);
  VAS_CHECK(manager_ != nullptr);
}

StatusOr<InteractiveSession::PlotResult> InteractiveSession::Plot(
    const PlotRequest& request) const {
  // Resolve the catalog to serve from. The manager path re-resolves on
  // every request so the ladder upgrades as background rungs land; the
  // returned snapshot is immutable, keeping the serve race-free.
  const SampleCatalog* catalog = owned_catalog_.get();
  std::shared_ptr<const SampleCatalog> snapshot;
  PlotResult result;
  if (manager_ != nullptr) {
    VAS_ASSIGN_OR_RETURN(snapshot, manager_->WaitForFirstRung(key_));
    catalog = snapshot.get();
    VAS_ASSIGN_OR_RETURN(CatalogManager::BuildStatus status,
                         manager_->GetStatus(key_));
    // Ready count comes from the snapshot actually served, not the
    // build's live status — more rungs may have landed in between, and
    // the result must describe the ladder this plot was drawn from.
    result.catalog_rungs_ready = catalog->samples().size();
    result.catalog_rungs_total = status.rungs_total;
  } else {
    result.catalog_rungs_ready = catalog->samples().size();
    result.catalog_rungs_total = catalog->samples().size();
  }

  const SampleSet& sample =
      catalog->ChooseForTimeBudget(request.time_budget_seconds, model_);
  result.catalog_sample_size = sample.size();

  if (request.viewport.empty()) {
    result.sample_points_in_viewport = sample.size();
    result.points_in_viewport = dataset_->size();
  } else {
    // ChooseForTimeBudget returns one of samples(), so its offset there
    // is its rung index.
    const auto k = static_cast<size_t>(&sample - catalog->samples().data());
    const auto& layout = catalog->layout(k);
    result.sample_points_in_viewport =
        layout != nullptr
            ? layout->CountInside(*dataset_, sample, request.viewport)
            : CountByScan(*dataset_, sample, request.viewport);
    result.points_in_viewport = CountInViewport(request.viewport);
  }
  result.estimated_viz_seconds =
      model_.SecondsFor(result.sample_points_in_viewport);
  result.estimated_full_viz_seconds =
      model_.SecondsFor(result.points_in_viewport);
  return result;
}

InteractiveSession::PlotResult InteractiveSession::RequestPlot(
    const PlotRequest& request) const {
  StatusOr<PlotResult> result = Plot(request);
  VAS_CHECK_MSG(result.ok(), result.status().ToString());
  return std::move(result).value();
}

size_t InteractiveSession::CountInViewport(const Rect& viewport) const {
  if (dataset_->empty()) return 0;
  std::call_once(count_grid_once_, [this]() {
    // 64x64 mirrors the parallel sampler's census resolution: coarse
    // enough to build in one cheap pass, fine enough that a zoom
    // viewport touches few boundary cells.
    auto grid =
        std::make_unique<UniformGrid>(dataset_->Bounds(), 64, 64);
    grid->Assign(dataset_->points);
    count_grid_ = std::move(grid);
  });
  return count_grid_->CountInRect(viewport, dataset_->points);
}

}  // namespace vas
