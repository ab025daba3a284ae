// Interchange algorithm: correctness of Expand/Shrink (paper Theorem 2),
// objective monotonicity, equivalence of optimization levels, and the
// Theorem 3 quality bound against the exact solver.
#include <gtest/gtest.h>

#include <set>

#include "core/exact_solver.h"
#include "core/interchange.h"
#include "core/objective.h"
#include "data/generators.h"
#include "index/uniform_grid.h"
#include "sampling/uniform_sampler.h"
#include "test_util.h"

namespace vas {
namespace {

using Optimization = InterchangeSampler::Optimization;
using test::Skewed;

InterchangeSampler::Options BaseOptions(Optimization level) {
  InterchangeSampler::Options opt;
  opt.optimization = level;
  opt.max_passes = 3;
  opt.seed = 5;
  return opt;
}

class InterchangeLevelTest : public ::testing::TestWithParam<Optimization> {
};

TEST_P(InterchangeLevelTest, ProducesValidSample) {
  Dataset d = Skewed(2000);
  InterchangeSampler sampler(BaseOptions(GetParam()));
  SampleSet s = sampler.Sample(d, 100);
  EXPECT_EQ(s.size(), 100u);
  EXPECT_EQ(s.method, "vas");
  std::set<size_t> unique(s.ids.begin(), s.ids.end());
  EXPECT_EQ(unique.size(), 100u);
  for (size_t id : s.ids) EXPECT_LT(id, d.size());
}

TEST_P(InterchangeLevelTest, ReportedObjectiveMatchesRecomputation) {
  Dataset d = Skewed(1500);
  auto opt = BaseOptions(GetParam());
  InterchangeSampler sampler(opt);
  auto result = sampler.Run(d, 60);
  GaussianKernel pair = GaussianKernel::PairKernelFor(result.epsilon);
  double recomputed =
      PairwiseObjective(result.sample.MaterializePoints(d), pair);
  // Locality mode truncates far pairs, so allow a relative slack there;
  // the other modes must agree to accumulation error.
  double tolerance = GetParam() == Optimization::kExpandShrinkLocality
                         ? 0.05 * std::max(1.0, recomputed)
                         : 1e-6 * std::max(1.0, recomputed);
  EXPECT_NEAR(result.objective, recomputed, tolerance);
}

TEST_P(InterchangeLevelTest, BeatsRandomSampleObjective) {
  Dataset d = Skewed(3000);
  auto opt = BaseOptions(GetParam());
  InterchangeSampler sampler(opt);
  auto result = sampler.Run(d, 80);
  GaussianKernel pair = GaussianKernel::PairKernelFor(result.epsilon);

  UniformReservoirSampler uniform(11);
  double random_obj =
      PairwiseObjective(uniform.Sample(d, 80).MaterializePoints(d), pair);
  double vas_obj =
      PairwiseObjective(result.sample.MaterializePoints(d), pair);
  // The paper's Table II shows orders of magnitude; require at least 2x.
  EXPECT_LT(vas_obj * 2.0, random_obj);
}

INSTANTIATE_TEST_SUITE_P(
    Levels, InterchangeLevelTest,
    ::testing::Values(Optimization::kNoExpandShrink,
                      Optimization::kExpandShrink,
                      Optimization::kExpandShrinkLocality));

TEST(InterchangeTest, EdgeCases) {
  Dataset d = Skewed(50);
  InterchangeSampler sampler;
  EXPECT_TRUE(sampler.Sample(d, 0).empty());
  EXPECT_EQ(sampler.Sample(d, 50).size(), 50u);   // k == n
  EXPECT_EQ(sampler.Sample(d, 500).size(), 50u);  // k > n
}

TEST(InterchangeTest, ObjectiveNeverIncreasesAcrossProgress) {
  // Hill climbing: each accepted replacement strictly decreases the
  // objective, so progress snapshots must be non-increasing.
  Dataset d = Skewed(4000);
  std::vector<double> trace;
  InterchangeSampler::Options opt;
  opt.optimization = Optimization::kExpandShrink;
  opt.max_passes = 2;
  opt.progress_interval = 200;
  opt.progress = [&](const InterchangeSampler::Progress& p) {
    trace.push_back(p.objective);
  };
  InterchangeSampler(opt).Run(d, 50);
  ASSERT_GT(trace.size(), 3u);
  for (size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i], trace[i - 1] + 1e-9);
  }
}

TEST(InterchangeTest, ConvergedRunsStopEarly) {
  Dataset d = Skewed(500);
  InterchangeSampler::Options opt;
  opt.optimization = Optimization::kExpandShrink;
  opt.max_passes = 50;  // should converge long before this
  auto result = InterchangeSampler(opt).Run(d, 20);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.passes, 50u);
}

TEST(InterchangeTest, TimeBudgetIsRespected) {
  Dataset d = Skewed(50000);
  InterchangeSampler::Options opt;
  opt.optimization = Optimization::kNoExpandShrink;  // slow on purpose
  opt.max_passes = 100;
  opt.time_budget_seconds = 0.3;
  InterchangeSampler sampler(opt);
  auto result = sampler.Run(d, 400);
  // Generous envelope: budget + one straggler check interval.
  EXPECT_LT(result.seconds, 3.0);
  EXPECT_EQ(result.sample.size(), 400u);
}

TEST(InterchangeTest, LocalityTracksExactExpandShrink) {
  // With a locality threshold so small that no pair is truncated, the
  // locality mode must make exactly the same decisions as plain ES.
  Dataset d = Skewed(800);
  InterchangeSampler::Options es = BaseOptions(Optimization::kExpandShrink);
  InterchangeSampler::Options loc =
      BaseOptions(Optimization::kExpandShrinkLocality);
  loc.locality_threshold = 1e-300;  // effectively no truncation
  auto r_es = InterchangeSampler(es).Run(d, 40);
  auto r_loc = InterchangeSampler(loc).Run(d, 40);
  EXPECT_EQ(r_es.sample.ids, r_loc.sample.ids);
}

TEST(InterchangeTest, DeterministicGivenSeed) {
  Dataset d = Skewed(1000);
  auto opt = BaseOptions(Optimization::kExpandShrinkLocality);
  auto a = InterchangeSampler(opt).Run(d, 64);
  auto b = InterchangeSampler(opt).Run(d, 64);
  EXPECT_EQ(a.sample.ids, b.sample.ids);
  opt.seed = 1234;
  auto c = InterchangeSampler(opt).Run(d, 64);
  EXPECT_NE(a.sample.ids, c.sample.ids);
}

TEST(InterchangeTest, Theorem3BoundAgainstExact) {
  // 1/(K(K-1))·Obj(S_int) ≤ 1/4 + 1/(K(K-1))·Obj(S_opt).
  // Our kernels are ≤ 1, so both averaged objectives are ≤ 1/2 and the
  // bound is loose — but it must hold, and Interchange should in fact
  // land very close to optimal.
  GeolifeLikeGenerator::Options gopt;
  gopt.num_points = 60;
  Dataset d = GeolifeLikeGenerator(gopt).Generate();
  const size_t k = 8;

  InterchangeSampler::Options iopt;
  iopt.optimization = Optimization::kExpandShrink;
  iopt.max_passes = 32;
  auto inter = InterchangeSampler(iopt).Run(d, k);

  ExactSolver::Options eopt;
  auto exact = ExactSolver(eopt).Solve(d, k);
  ASSERT_TRUE(exact.proved_optimal);

  GaussianKernel pair = GaussianKernel::PairKernelFor(inter.epsilon);
  double avg_int = AveragedObjective(
      PairwiseObjective(inter.sample.MaterializePoints(d), pair), k);
  double avg_opt = AveragedObjective(
      PairwiseObjective(d.Gather(exact.ids).points, pair), k);
  EXPECT_LE(avg_opt, avg_int + 1e-12);        // optimal is optimal
  EXPECT_LE(avg_int, 0.25 + avg_opt + 1e-9);  // Theorem 3
}

TEST(InterchangeTest, SingletonSampleIsAnyPoint) {
  Dataset d = Skewed(100);
  InterchangeSampler sampler;
  SampleSet s = sampler.Sample(d, 1);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_LT(s.ids[0], d.size());
}

TEST(InterchangeTest, AllDuplicatePointsStillSamplesK) {
  // Degenerate data: every tuple at the same location. All subsets are
  // equally (un)good; the algorithm must terminate and return K ids.
  Dataset d;
  for (int i = 0; i < 500; ++i) d.Add({1.0, 1.0}, double(i));
  InterchangeSampler::Options opt;
  opt.epsilon = 0.5;  // bounds are degenerate; supply a bandwidth
  opt.max_passes = 2;
  SampleSet s = InterchangeSampler(opt).Sample(d, 10);
  EXPECT_EQ(s.size(), 10u);
  std::set<size_t> unique(s.ids.begin(), s.ids.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(InterchangeTest, TwoClustersGetSplitCoverage) {
  // K=2 on two far-apart clumps must pick one point from each: any
  // same-clump pair has kernel ~1 while a cross-clump pair has ~0.
  Dataset d;
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    d.Add({rng.Gaussian(0.0, 0.01), rng.Gaussian(0.0, 0.01)}, 0);
    d.Add({rng.Gaussian(10.0, 0.01), rng.Gaussian(10.0, 0.01)}, 0);
  }
  InterchangeSampler::Options opt;
  opt.optimization = Optimization::kExpandShrink;
  opt.max_passes = 4;
  SampleSet s = InterchangeSampler(opt).Sample(d, 2);
  ASSERT_EQ(s.size(), 2u);
  double x0 = d.points[s.ids[0]].x;
  double x1 = d.points[s.ids[1]].x;
  EXPECT_GT(std::abs(x0 - x1), 5.0);
}

TEST(InterchangeTest, ProgressReportsMonotoneTupleCounts) {
  Dataset d = Skewed(3000);
  std::vector<size_t> tuples;
  std::vector<size_t> passes;
  InterchangeSampler::Options opt;
  opt.max_passes = 2;
  opt.progress_interval = 500;
  opt.progress = [&](const InterchangeSampler::Progress& p) {
    tuples.push_back(p.tuples_processed);
    passes.push_back(p.pass);
  };
  InterchangeSampler(opt).Run(d, 30);
  ASSERT_GT(tuples.size(), 2u);
  for (size_t i = 1; i < tuples.size(); ++i) {
    EXPECT_GE(tuples[i], tuples[i - 1]);
    EXPECT_GE(passes[i], passes[i - 1]);
  }
}

TEST(InterchangeTest, SampleConcentratesLessThanData) {
  // VAS must cover sparse regions: the fraction of sampled points in the
  // densest cell should be far below the data's own concentration.
  Dataset d = Skewed(20000);
  InterchangeSampler sampler(BaseOptions(Optimization::kExpandShrinkLocality));
  SampleSet s = sampler.Sample(d, 200);

  UniformGrid data_grid(d.Bounds(), 10, 10);
  data_grid.Assign(d.points);
  UniformGrid sample_grid(d.Bounds(), 10, 10);
  sample_grid.Assign(s.MaterializePoints(d));
  double data_top = double(data_grid.CountInCell(data_grid.DensestCell())) /
                    double(d.size());
  double sample_top =
      double(sample_grid.CountInCell(sample_grid.DensestCell())) /
      double(s.size());
  EXPECT_LT(sample_top, data_top);
}

// Every seeded locality-mode input above, pinned by a fingerprint of
// the sorted ids and the replacement count, so a change to the step or
// its index that moves a sample shows here. EdgeCases is left out: its
// k of 0 or >= n returns before the first step.
void ExpectPinned(const char* input, const Dataset& d,
                  const InterchangeSampler::Options& opt, size_t k,
                  uint64_t fingerprint, size_t replacements) {
  SCOPED_TRACE(input);
  auto result = InterchangeSampler(opt).Run(d, k);
  EXPECT_EQ(test::Fingerprint(result.sample.ids), fingerprint);
  EXPECT_EQ(result.replacements, replacements);
}

TEST(InterchangeTest, LocalityInputsKeepTheirSamples) {
  auto loc = BaseOptions(Optimization::kExpandShrinkLocality);
  ExpectPinned("ProducesValidSample", Skewed(2000), loc, 100,
               0xf57aac53b8721742ull, 592);
  ExpectPinned("ReportedObjectiveMatchesRecomputation", Skewed(1500), loc,
               60, 0x292281e1d73e56b8ull, 449);
  ExpectPinned("BeatsRandomSampleObjective", Skewed(3000), loc, 80,
               0x5dcb0819abcf1836ull, 702);
  ExpectPinned("SampleConcentratesLessThanData", Skewed(20000), loc, 200,
               0xddf393b580483185ull, 2378);
  ExpectPinned("DeterministicGivenSeed, seed 5", Skewed(1000), loc, 64,
               0x41399f5324dc39bdull, 372);
  auto seed1234 = loc;
  seed1234.seed = 1234;
  ExpectPinned("DeterministicGivenSeed, seed 1234", Skewed(1000), seed1234,
               64, 0x947a6664351d7965ull, 405);
  auto untruncated = loc;
  untruncated.locality_threshold = 1e-300;
  ExpectPinned("LocalityTracksExactExpandShrink", Skewed(800), untruncated,
               40, 0x67bf3ae12a86c2e0ull, 289);

  ExpectPinned("SingletonSampleIsAnyPoint", Skewed(100), {}, 1,
               0x025f9da21a9934aaull, 0);
  InterchangeSampler::Options two_passes;
  two_passes.max_passes = 2;
  ExpectPinned("ProgressReportsMonotoneTupleCounts", Skewed(3000),
               two_passes, 30, 0x93127a480089a543ull, 235);
  Dataset duplicates;
  for (int i = 0; i < 500; ++i) duplicates.Add({1.0, 1.0}, double(i));
  auto degenerate = two_passes;
  degenerate.epsilon = 0.5;
  ExpectPinned("AllDuplicatePointsStillSamplesK", duplicates, degenerate, 10,
               0xa6c285edd6fae3b3ull, 0);
}

}  // namespace
}  // namespace vas
