// Supporting micro-benchmarks (google-benchmark) for the substrates the
// VAS pipeline leans on: kernel evaluation, spatial indexes under the
// Interchange workload, samplers, density embedding, and the rasterizer.
// Not a paper figure; used to watch for substrate regressions.
#include <benchmark/benchmark.h>

#include "core/density.h"
#include "core/interchange.h"
#include "core/kernel.h"
#include "core/loss.h"
#include "data/generators.h"
#include "index/hashed_grid.h"
#include "index/kdtree.h"
#include "render/scatter_renderer.h"
#include "sampling/stratified_sampler.h"
#include "sampling/uniform_sampler.h"
#include "util/random.h"

namespace vas {
namespace {

Dataset SharedDataset(size_t n) {
  GeolifeLikeGenerator::Options opt;
  opt.num_points = n;
  return GeolifeLikeGenerator(opt).Generate();
}

void BM_KernelEval(benchmark::State& state) {
  GaussianKernel kernel(0.1);
  Rng rng(1);
  Point a{rng.NextDouble(), rng.NextDouble()};
  Point b{rng.NextDouble(), rng.NextDouble()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel(a, b));
    b.x += 1e-9;  // defeat value caching
  }
}
BENCHMARK(BM_KernelEval);

void BM_KdTreeBuild(benchmark::State& state) {
  Dataset d = SharedDataset(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    KdTree tree(d.points);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KdTreeBuild)->Arg(10000)->Arg(100000);

void BM_KdTreeNearest(benchmark::State& state) {
  Dataset d = SharedDataset(100000);
  KdTree tree(d.points);
  Rng rng(2);
  Rect b = d.Bounds();
  for (auto _ : state) {
    Point q{rng.Uniform(b.min_x, b.max_x), rng.Uniform(b.min_y, b.max_y)};
    benchmark::DoNotOptimize(tree.Nearest(q));
  }
}
BENCHMARK(BM_KdTreeNearest);

// Cells as wide as the locality-mode Interchange uses: half the cutoff
// radius of the dataset's default kernel.
double InterchangeCellWidth(const Dataset& d) {
  GaussianKernel pair =
      GaussianKernel::PairKernelFor(GaussianKernel::DefaultEpsilon(d.Bounds()));
  return pair.EffectiveRadius(1.1e-7) / 2.0;
}

void BM_HashedGridSwapChurn(benchmark::State& state) {
  // The Interchange workload: remove one point, insert another.
  size_t k = static_cast<size_t>(state.range(0));
  Dataset d = SharedDataset(k * 2);
  HashedGrid grid(InterchangeCellWidth(d));
  for (size_t i = 0; i < k; ++i) grid.Insert(d.points[i], i);
  Rng rng(3);
  std::vector<Point> current(d.points.begin(),
                             d.points.begin() + static_cast<long>(k));
  for (auto _ : state) {
    size_t slot = rng.Below(static_cast<uint32_t>(k));
    Point next = d.points[k + rng.Below(static_cast<uint32_t>(k))];
    grid.Remove(current[slot], slot);
    grid.Insert(next, slot);
    current[slot] = next;
  }
}
BENCHMARK(BM_HashedGridSwapChurn)->Arg(1000)->Arg(10000);

void BM_HashedGridRadiusQuery(benchmark::State& state) {
  Dataset d = SharedDataset(50000);
  Rect b = d.Bounds();
  double radius = b.width() / 50.0;
  HashedGrid grid(radius / 2.0);
  for (size_t i = 0; i < d.size(); ++i) grid.Insert(d.points[i], i);
  Rng rng(4);
  for (auto _ : state) {
    Point q{rng.Uniform(b.min_x, b.max_x), rng.Uniform(b.min_y, b.max_y)};
    size_t count = 0;
    grid.ForEachWithin(q, radius, [&](size_t, Point) { ++count; });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_HashedGridRadiusQuery);

void BM_UniformReservoir(benchmark::State& state) {
  Dataset d = SharedDataset(200000);
  for (auto _ : state) {
    UniformReservoirSampler sampler(state.iterations());
    benchmark::DoNotOptimize(sampler.Sample(d, 10000).size());
  }
  state.SetItemsProcessed(state.iterations() * d.size());
}
BENCHMARK(BM_UniformReservoir);

void BM_StratifiedSample(benchmark::State& state) {
  Dataset d = SharedDataset(200000);
  for (auto _ : state) {
    StratifiedSampler sampler;
    benchmark::DoNotOptimize(sampler.Sample(d, 10000).size());
  }
  state.SetItemsProcessed(state.iterations() * d.size());
}
BENCHMARK(BM_StratifiedSample);

void BM_InterchangePerTuple(benchmark::State& state) {
  // Amortized per-tuple cost of one streaming pass, locality mode.
  Dataset d = SharedDataset(50000);
  InterchangeSampler::Options opt;
  opt.max_passes = 1;
  size_t k = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    InterchangeSampler sampler(opt);
    benchmark::DoNotOptimize(sampler.Sample(d, k).size());
  }
  state.SetItemsProcessed(state.iterations() * d.size());
}
BENCHMARK(BM_InterchangePerTuple)->Arg(1000)->Arg(5000)
    ->Unit(benchmark::kMillisecond);

void BM_DensityEmbedding(benchmark::State& state) {
  Dataset d = SharedDataset(200000);
  UniformReservoirSampler sampler(5);
  SampleSet base = sampler.Sample(d, 10000);
  for (auto _ : state) {
    SampleSet s = base;
    EmbedDensity(d, &s);
    benchmark::DoNotOptimize(s.density.size());
  }
  state.SetItemsProcessed(state.iterations() * d.size());
  state.SetLabel("O(N log K) second pass");
}
BENCHMARK(BM_DensityEmbedding)->Unit(benchmark::kMillisecond);

void BM_RenderPoints(benchmark::State& state) {
  Dataset d = SharedDataset(static_cast<size_t>(state.range(0)));
  ScatterRenderer renderer;
  Viewport vp(d.Bounds(), 512, 512);
  for (auto _ : state) {
    benchmark::DoNotOptimize(renderer.Render(d, vp).width());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RenderPoints)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_MonteCarloLoss(benchmark::State& state) {
  Dataset d = SharedDataset(100000);
  MonteCarloLossEstimator::Options opt;
  opt.num_probes = 500;
  MonteCarloLossEstimator est(d, opt);
  UniformReservoirSampler sampler(6);
  auto pts = sampler.Sample(d, 5000).MaterializePoints(d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.Estimate(pts).median_log10);
  }
  state.SetLabel("500 probes, 5K sample");
}
BENCHMARK(BM_MonteCarloLoss)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vas

BENCHMARK_MAIN();
