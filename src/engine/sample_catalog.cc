#include "engine/sample_catalog.h"

#include <algorithm>
#include <utility>

#include "core/density.h"
#include "util/logging.h"

namespace vas {

namespace {

// Clamps the configured ladder to the dataset size, sorts ascending,
// and collapses duplicate rungs.
std::vector<size_t> ResolveLadder(const std::vector<size_t>& requested,
                                  size_t dataset_size) {
  VAS_CHECK_MSG(!requested.empty(), "catalog needs at least one rung");
  std::vector<size_t> ladder = requested;
  std::sort(ladder.begin(), ladder.end());
  for (size_t& k : ladder) k = std::min(k, dataset_size);
  ladder.erase(std::unique(ladder.begin(), ladder.end()), ladder.end());
  return ladder;
}

}  // namespace

SampleCatalog::SampleCatalog(const Dataset& dataset, Sampler& sampler,
                             Options options) {
  for (size_t k : ResolveLadder(options.ladder, dataset.size())) {
    SampleSet s = sampler.Sample(dataset, k);
    if (options.embed_density) EmbedDensity(dataset, &s);
    samples_.push_back(std::move(s));
  }
  layouts_.resize(samples_.size());
  // The sampler's ids index `dataset` and its densities are parallel,
  // so the only possible failure is a rung of 2^32 entries or more,
  // which is then served whole.
  (void)LayOut(dataset);
}

SampleCatalog::SampleCatalog(std::vector<SampleSet> samples)
    : SampleCatalog(std::move(samples),
                    std::vector<std::shared_ptr<const RungLayout>>()) {}

SampleCatalog::SampleCatalog(
    std::vector<SampleSet> samples,
    std::vector<std::shared_ptr<const RungLayout>> layouts) {
  if (layouts.empty()) layouts.resize(samples.size());
  VAS_CHECK_MSG(layouts.size() == samples.size(),
                "layouts not parallel to rungs");
  std::vector<size_t> order(samples.size());
  for (size_t k = 0; k < order.size(); ++k) {
    VAS_CHECK_MSG(layouts[k] == nullptr ||
                      layouts[k]->positions.size() == samples[k].size(),
                  "layout built for a different rung");
    order[k] = k;
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return samples[a].size() < samples[b].size();
  });
  samples_.reserve(order.size());
  layouts_.reserve(order.size());
  for (size_t k : order) {
    samples_.push_back(std::move(samples[k]));
    layouts_.push_back(std::move(layouts[k]));
  }
}

Status SampleCatalog::LayOut(const Dataset& dataset) {
  Status first = Status::OK();
  for (size_t k = 0; k < samples_.size(); ++k) {
    if (layouts_[k] != nullptr) continue;
    auto layout = LayOutRung(&dataset, samples_[k]);
    if (layout.ok()) {
      layouts_[k] = std::move(*layout);
    } else if (first.ok()) {
      first = layout.status();
    }
  }
  return first;
}

const SampleSet& SampleCatalog::ChooseForTimeBudget(
    double seconds, const VizTimeModel& model) const {
  VAS_CHECK_MSG(!samples_.empty(), "selection from an empty catalog");
  const SampleSet* best = &samples_.front();
  for (const SampleSet& s : samples_) {
    if (model.SecondsFor(s.size()) <= seconds) best = &s;
  }
  return *best;
}

// ---------------------------------------------------------------------------
// Builder

SampleCatalog::Builder::Builder(std::shared_ptr<const Dataset> dataset,
                                SamplerFactory sampler_factory,
                                Options options, ThreadPool* pool,
                                RungCallback on_rung)
    : dataset_(std::move(dataset)),
      sampler_factory_(std::move(sampler_factory)),
      options_(std::move(options)),
      pool_(pool),
      on_rung_(std::move(on_rung)),
      ladder_(ResolveLadder(options_.ladder, dataset_->size())) {
  VAS_CHECK(dataset_ != nullptr);
  VAS_CHECK(sampler_factory_ != nullptr);
}

SampleCatalog::Builder::~Builder() {
  std::unique_lock<std::mutex> lock(mu_);
  // Outstanding tasks reference this builder and the shared dataset;
  // never let them outlive us.
  rung_published_.wait(lock, [this]() {
    return !started_ || completed_ == ladder_.size();
  });
}

void SampleCatalog::Builder::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    VAS_CHECK_MSG(!started_, "Builder::Start() called twice");
    started_ = true;
  }
  // Smallest rung first: with any pool shape the cheapest, most
  // servable rung is the first to land.
  for (size_t k : ladder_) {
    if (pool_ != nullptr) {
      pool_->Submit([this, k]() { BuildRung(k); });
    } else {
      BuildRung(k);
    }
  }
}

void SampleCatalog::Builder::BuildRung(size_t k) {
  std::unique_ptr<Sampler> sampler = sampler_factory_();
  VAS_CHECK_MSG(sampler != nullptr, "SamplerFactory returned null");
  SampleSet s = sampler->Sample(*dataset_, k);
  if (options_.embed_density) EmbedDensity(*dataset_, &s);
  // Laid out once, here; every later snapshot shares it. A rung that
  // cannot be laid out (2^32 entries or more) is published without one
  // and served whole.
  auto laid_out = LayOutRung(dataset_.get(), s);
  std::shared_ptr<const RungLayout> layout =
      laid_out.ok() ? std::move(*laid_out) : nullptr;

  // The callback (and the counts it is told) must be copied out under
  // the lock: the moment the final publication is notified, a waiting
  // destructor may free this builder, so nothing after the unlock may
  // touch members.
  RungCallback callback;
  size_t ready = 0;
  size_t total = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto at =
        std::upper_bound(ready_.begin(), ready_.end(), s,
                         [](const SampleSet& a, const SampleSet& b) {
                           return a.size() < b.size();
                         }) -
        ready_.begin();
    ready_.insert(ready_.begin() + at, std::move(s));
    ready_layouts_.insert(ready_layouts_.begin() + at, std::move(layout));
    snapshot_ = std::make_shared<const SampleCatalog>(ready_, ready_layouts_);
    ++completed_;
    callback = on_rung_;
    ready = completed_;
    total = ladder_.size();
    rung_published_.notify_all();
  }
  if (callback) callback(ready, total);
}

std::shared_ptr<const SampleCatalog> SampleCatalog::Builder::Snapshot()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_;
}

size_t SampleCatalog::Builder::rungs_total() const { return ladder_.size(); }

size_t SampleCatalog::Builder::rungs_ready() const {
  std::lock_guard<std::mutex> lock(mu_);
  return completed_;
}

bool SampleCatalog::Builder::done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return started_ && completed_ == ladder_.size();
}

std::shared_ptr<const SampleCatalog> SampleCatalog::Builder::WaitForRung(
    size_t count) const {
  size_t want = std::min(count, ladder_.size());
  std::unique_lock<std::mutex> lock(mu_);
  rung_published_.wait(lock, [&]() { return completed_ >= want; });
  return snapshot_;
}

std::shared_ptr<const SampleCatalog> SampleCatalog::Builder::Wait() const {
  return WaitForRung(ladder_.size());
}

}  // namespace vas
