#include "core/incremental.h"

#include <algorithm>

#include "util/logging.h"

namespace vas {

IncrementalVas::IncrementalVas(size_t k, Options options)
    : k_(k),
      slots_(k),
      step_(GaussianKernel::PairKernelFor(options.epsilon),
            options.locality_threshold, k) {
  VAS_CHECK_MSG(k_ > 0, "sample capacity must be positive");
  VAS_CHECK_MSG(options.epsilon > 0.0, "epsilon must be positive");
}

void IncrementalVas::Observe(Point p, double value) {
  if (filled_ < k_) {
    // Filling phase: take the first K stream tuples verbatim (the
    // random-start role of Interchange's initialization; the stream
    // order provides the randomness, and every slot will be contested
    // from tuple K+1 on anyway).
    step_.Fill(filled_, p);
    slots_[filled_] = Element{tuples_seen_, p, value};
    ++filled_;
  } else {
    const LocalExpandShrink::Outcome step = step_.Offer(p);
    if (step.replaced) slots_[step.slot] = Element{tuples_seen_, p, value};
  }
  ++tuples_seen_;
}

void IncrementalVas::ObserveDataset(const Dataset& batch) {
  for (size_t i = 0; i < batch.size(); ++i) {
    Observe(batch.points[i], batch.ValueAt(i));
  }
}

std::vector<IncrementalVas::Element> IncrementalVas::Sample() const {
  std::vector<Element> out(slots_.begin(),
                           slots_.begin() + static_cast<long>(filled_));
  std::sort(out.begin(), out.end(), [](const Element& a, const Element& b) {
    return a.stream_id < b.stream_id;
  });
  return out;
}

Dataset IncrementalVas::SampleDataset() const {
  Dataset out;
  out.name = "incremental_vas";
  for (const Element& e : Sample()) {
    out.Add(e.point, e.value);
  }
  return out;
}

double IncrementalVas::objective() const { return step_.Objective(); }

}  // namespace vas
