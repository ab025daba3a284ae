#include "core/interchange.h"

#include <algorithm>
#include <optional>

#include "core/expand_shrink.h"
#include "sampling/uniform_sampler.h"
#include "util/stopwatch.h"

namespace vas {

namespace {

/// Shared streaming state for all three optimization levels. Slots hold
/// the current sample; responsibilities are stored *unhalved*
/// (r_i = Σ_{j≠i} κ̃(s_i, s_j)) as in Algorithm 1, so the objective is
/// Σ r_i / 2.
struct SlotState {
  std::vector<size_t> ids;    // tuple id per slot
  std::vector<Point> points;  // coordinates per slot
  std::vector<double> resp;   // responsibility per slot
  std::vector<uint8_t> in_sample;  // per-tuple membership flag
  double objective = 0.0;
};

void InitSlots(const Dataset& dataset, const std::vector<size_t>& init_ids,
               const GaussianKernel& kernel, SlotState& state) {
  size_t k = init_ids.size();
  state.ids = init_ids;
  state.points.reserve(k);
  for (size_t id : init_ids) state.points.push_back(dataset.points[id]);
  state.resp.assign(k, 0.0);
  state.in_sample.assign(dataset.size(), 0);
  for (size_t id : init_ids) state.in_sample[id] = 1;
  state.objective = 0.0;
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = i + 1; j < k; ++j) {
      double v = kernel(state.points[i], state.points[j]);
      state.resp[i] += v;
      state.resp[j] += v;
      state.objective += v;
    }
  }
}

}  // namespace

SampleSet InterchangeSampler::Sample(const Dataset& dataset, size_t k) {
  return Run(dataset, k).sample;
}

InterchangeSampler::Result InterchangeSampler::Run(const Dataset& dataset,
                                                   size_t k) const {
  Result result;
  result.sample.method = name();
  size_t n = dataset.size();
  if (k >= n) {
    result.sample.ids.resize(n);
    for (size_t i = 0; i < n; ++i) result.sample.ids[i] = i;
    result.converged = true;
    return result;
  }
  if (k == 0) {
    result.converged = true;
    return result;
  }

  Stopwatch watch;
  double epsilon = options_.epsilon > 0.0
                       ? options_.epsilon
                       : GaussianKernel::DefaultEpsilon(dataset.Bounds());
  GaussianKernel kernel = GaussianKernel::PairKernelFor(epsilon);
  result.epsilon = epsilon;

  // Random initial subset (paper: "starts from a randomly chosen set of
  // size K").
  UniformReservoirSampler init(options_.seed);
  SlotState state;
  InitSlots(dataset, init.Sample(dataset, k).ids, kernel, state);

  // Locality mode: the slots in a cell grid, responsibilities in a heap.
  std::optional<LocalExpandShrink> local;
  if (options_.optimization == Optimization::kExpandShrinkLocality) {
    local.emplace(kernel, options_.locality_threshold, k);
    local->Start(state.points, state.resp);
  }

  // Scratch: kernel value of the candidate against each slot.
  std::vector<double> cand_kernel(k, 0.0);

  size_t replacements_this_pass = 0;
  // Tuple t, at `cand`, takes `slot`; each level updates its own
  // responsibilities and objective.
  auto take_slot = [&](size_t slot, size_t t, Point cand) {
    state.in_sample[state.ids[slot]] = 0;
    state.in_sample[t] = 1;
    state.ids[slot] = t;
    state.points[slot] = cand;
    ++replacements_this_pass;
  };
  auto emit_progress = [&](size_t pass) {
    if (!options_.progress) return;
    Progress p;
    p.seconds = watch.ElapsedSeconds();
    p.objective = state.objective;
    p.tuples_processed = result.tuples_processed;
    p.pass = pass;
    p.replacements = result.replacements + replacements_this_pass;
    options_.progress(p);
  };

  bool out_of_time = false;
  // Time-budget check cadence: NoES pays O(K²) per tuple, so a clock
  // read per tuple is noise there; the fast paths check less often.
  const size_t budget_check_mask =
      options_.optimization == Optimization::kNoExpandShrink ? 0 : 1023;
  size_t pass = 0;
  for (; pass < options_.max_passes && !out_of_time; ++pass) {
    replacements_this_pass = 0;
    for (size_t t = 0; t < n; ++t) {
      if (state.in_sample[t]) continue;
      ++result.tuples_processed;
      Point cand = dataset.points[t];

      if (options_.optimization == Optimization::kNoExpandShrink) {
        // Baseline: for every slot i, recompute the candidate's
        // responsibility in S - {s_i} + {t} from scratch (O(K) each,
        // O(K²) per tuple), exactly as described before Definition 2.
        size_t best_slot = k;
        double best_gain = 0.0;
        for (size_t i = 0; i < k; ++i) {
          double cand_resp = 0.0;
          for (size_t j = 0; j < k; ++j) {
            if (j == i) continue;
            cand_resp += kernel(cand, state.points[j]);
          }
          double gain = state.resp[i] - cand_resp;
          if (gain > best_gain) {
            best_gain = gain;
            best_slot = i;
          }
        }
        if (best_slot < k) {
          // Apply the replacement, updating responsibilities
          // incrementally.
          Point old = state.points[best_slot];
          double new_resp = 0.0;
          for (size_t j = 0; j < k; ++j) {
            if (j == best_slot) continue;
            double dec = kernel(old, state.points[j]);
            double inc = kernel(cand, state.points[j]);
            state.resp[j] += inc - dec;
            new_resp += inc;
          }
          state.objective += new_resp - state.resp[best_slot];
          state.resp[best_slot] = new_resp;
          take_slot(best_slot, t, cand);
        }
      } else if (options_.optimization == Optimization::kExpandShrink) {
        // Algorithm 1. Expand: grow to K+1, updating every slot.
        double cand_resp = 0.0;
        for (size_t i = 0; i < k; ++i) {
          double v = kernel(cand, state.points[i]);
          cand_kernel[i] = v;
          state.resp[i] += v;
          cand_resp += v;
        }
        // Shrink: evict the max-responsibility element.
        size_t victim = k;  // k denotes the candidate itself
        double victim_resp = cand_resp;
        for (size_t i = 0; i < k; ++i) {
          if (state.resp[i] > victim_resp) {
            victim_resp = state.resp[i];
            victim = i;
          }
        }
        if (victim == k) {
          // Candidate evicted: revert the expansion.
          for (size_t i = 0; i < k; ++i) state.resp[i] -= cand_kernel[i];
        } else {
          Point old = state.points[victim];
          for (size_t i = 0; i < k; ++i) {
            if (i == victim) continue;
            state.resp[i] -= kernel(old, state.points[i]);
          }
          state.objective += cand_resp - victim_resp;
          state.resp[victim] = cand_resp - cand_kernel[victim];
          take_slot(victim, t, cand);
        }
      } else {
        // Expand/Shrink + locality: only slots within the kernel's
        // effective radius of the candidate participate.
        const LocalExpandShrink::Outcome step = local->Offer(cand);
        if (step.replaced) {
          state.objective += step.objective_change;
          take_slot(step.slot, t, cand);
        }
      }

      if (options_.progress_interval > 0 &&
          result.tuples_processed % options_.progress_interval == 0) {
        emit_progress(pass);
      }
      if (options_.time_budget_seconds > 0.0 &&
          (result.tuples_processed & budget_check_mask) == 0 &&
          watch.ElapsedSeconds() > options_.time_budget_seconds) {
        out_of_time = true;
        break;
      }
    }
    result.replacements += replacements_this_pass;
    emit_progress(pass);
    if (replacements_this_pass == 0) {
      result.converged = true;
      ++pass;
      break;
    }
  }

  result.passes = pass;
  result.seconds = watch.ElapsedSeconds();
  // Copy slots out, sorted for reproducible downstream iteration.
  result.sample.ids = state.ids;
  std::sort(result.sample.ids.begin(), result.sample.ids.end());
  // In locality mode the heap keys are the authoritative
  // responsibilities.
  result.objective = local ? local->Objective() : state.objective;
  return result;
}

}  // namespace vas
