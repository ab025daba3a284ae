// Incremental (streaming) VAS maintenance: correctness of the slot
// state across batches and parity with one-shot Interchange.
#include <gtest/gtest.h>

#include <set>

#include "core/incremental.h"
#include "core/interchange.h"
#include "core/objective.h"
#include "data/generators.h"
#include "test_util.h"

namespace vas {
namespace {

IncrementalVas::Options StreamOptions(double epsilon) {
  IncrementalVas::Options opt;
  opt.epsilon = epsilon;
  return opt;
}

TEST(IncrementalVasTest, FillsThenHoldsCapacity) {
  IncrementalVas stream(10, StreamOptions(0.2));
  Dataset d = GenerateUniform(Rect::Of(0, 0, 10, 10), 100, 1);
  for (size_t i = 0; i < 5; ++i) stream.Observe(d.points[i]);
  EXPECT_EQ(stream.size(), 5u);
  stream.ObserveDataset(d);
  EXPECT_EQ(stream.size(), 10u);
  EXPECT_EQ(stream.capacity(), 10u);
  EXPECT_EQ(stream.tuples_seen(), 105u);
}

TEST(IncrementalVasTest, SampleElementsComeFromStream) {
  Dataset d = GenerateUniform(Rect::Of(0, 0, 10, 10), 500, 2);
  IncrementalVas stream(20, StreamOptions(0.2));
  stream.ObserveDataset(d);
  auto sample = stream.Sample();
  ASSERT_EQ(sample.size(), 20u);
  std::set<uint64_t> ids;
  for (const auto& e : sample) {
    ASSERT_LT(e.stream_id, 500u);
    EXPECT_EQ(e.point, d.points[e.stream_id]);
    ids.insert(e.stream_id);
  }
  EXPECT_EQ(ids.size(), 20u);  // unique stream positions
}

TEST(IncrementalVasTest, ObjectiveMatchesRecomputation) {
  Dataset d = GenerateUniform(Rect::Of(0, 0, 5, 5), 800, 3);
  double epsilon = 0.15;
  IncrementalVas stream(25, StreamOptions(epsilon));
  stream.ObserveDataset(d);
  GaussianKernel pair = GaussianKernel::PairKernelFor(epsilon);
  double recomputed =
      PairwiseObjective(stream.SampleDataset().points, pair);
  // Locality truncation only drops kernel values < 1.1e-7.
  EXPECT_NEAR(stream.objective(), recomputed,
              0.01 * std::max(1.0, recomputed));
}

TEST(IncrementalVasTest, ObjectiveNeverIncreasesAfterFill) {
  Dataset d = test::Skewed(100000);
  IncrementalVas stream(30, StreamOptions(0.14));
  // Fill first.
  for (size_t i = 0; i < 30; ++i) stream.Observe(d.points[i]);
  double prev = stream.objective();
  for (size_t i = 30; i < 5000; ++i) {
    stream.Observe(d.points[i]);
    if (i % 500 == 0) {
      double now = stream.objective();
      EXPECT_LE(now, prev + 1e-9);
      prev = now;
    }
  }
}

TEST(IncrementalVasTest, MatchesOneShotInterchangeQuality) {
  // Streaming the whole dataset once ≈ a one-pass Interchange run.
  Dataset d = test::Skewed(5000);
  double epsilon = GaussianKernel::DefaultEpsilon(d.Bounds());

  IncrementalVas stream(50, StreamOptions(epsilon));
  stream.ObserveDataset(d);

  InterchangeSampler::Options iopt;
  iopt.epsilon = epsilon;
  iopt.max_passes = 1;
  auto one_shot = InterchangeSampler(iopt).Run(d, 50);

  GaussianKernel pair = GaussianKernel::PairKernelFor(epsilon);
  double stream_obj = PairwiseObjective(stream.SampleDataset().points, pair);
  double batch_obj =
      PairwiseObjective(one_shot.sample.MaterializePoints(d), pair);
  // Same ballpark: within 2x of each other (different random starts).
  EXPECT_LT(stream_obj, std::max(2.0 * batch_obj, batch_obj + 0.5));
}

TEST(IncrementalVasTest, AdaptsToDistributionShift) {
  // Phase 1: all mass on the left. Phase 2: all new data on the right.
  // The maintained sample must migrate.
  IncrementalVas stream(40, StreamOptions(0.2));
  Dataset left = GenerateUniform(Rect::Of(0, 0, 4, 10), 5000, 5);
  stream.ObserveDataset(left);
  size_t right_before = 0;
  for (const auto& e : stream.Sample()) {
    if (e.point.x > 5.0) ++right_before;
  }
  EXPECT_EQ(right_before, 0u);

  Dataset right = GenerateUniform(Rect::Of(6, 0, 10, 10), 5000, 6);
  stream.ObserveDataset(right);
  size_t right_after = 0;
  for (const auto& e : stream.Sample()) {
    if (e.point.x > 5.0) ++right_after;
  }
  // VAS spreads over the union of supports: roughly half each side.
  EXPECT_GT(right_after, 10u);
  EXPECT_LT(right_after, 35u);
}

TEST(IncrementalVasTest, ValuesTravelWithPoints) {
  IncrementalVas stream(5, StreamOptions(0.5));
  stream.Observe({0, 0}, 1.5);
  stream.Observe({9, 9}, 2.5);
  Dataset s = stream.SampleDataset();
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s.values[0], 1.5);
  EXPECT_DOUBLE_EQ(s.values[1], 2.5);
}

// The samples of the inputs above, pinned by a fingerprint of the
// sorted stream ids. Not pinned: MatchesOneShotInterchangeQuality's
// sparse sample holds tied heap keys; which tied slot is evicted
// follows the index's visit order, not the objective.
uint64_t StreamFingerprint(const IncrementalVas& stream) {
  std::vector<size_t> ids;
  for (const auto& e : stream.Sample()) ids.push_back(e.stream_id);
  return test::Fingerprint(ids);
}

TEST(IncrementalVasTest, InputsKeepTheirSamples) {
  {
    IncrementalVas stream(10, StreamOptions(0.2));
    Dataset d = GenerateUniform(Rect::Of(0, 0, 10, 10), 100, 1);
    for (size_t i = 0; i < 5; ++i) stream.Observe(d.points[i]);
    stream.ObserveDataset(d);
    EXPECT_EQ(StreamFingerprint(stream), 0x911dfdbe541968a7ull);
  }
  {
    IncrementalVas stream(20, StreamOptions(0.2));
    stream.ObserveDataset(GenerateUniform(Rect::Of(0, 0, 10, 10), 500, 2));
    EXPECT_EQ(StreamFingerprint(stream), 0xeea40990741c991cull);
  }
  {
    IncrementalVas stream(25, StreamOptions(0.15));
    stream.ObserveDataset(GenerateUniform(Rect::Of(0, 0, 5, 5), 800, 3));
    EXPECT_EQ(StreamFingerprint(stream), 0x6329d37f4eb1e900ull);
  }
  {
    Dataset d = test::Skewed(100000);
    IncrementalVas stream(30, StreamOptions(0.14));
    for (size_t i = 0; i < 5000; ++i) stream.Observe(d.points[i]);
    EXPECT_EQ(StreamFingerprint(stream), 0x662238e242f602b6ull);
  }
  {
    IncrementalVas stream(40, StreamOptions(0.2));
    stream.ObserveDataset(GenerateUniform(Rect::Of(0, 0, 4, 10), 5000, 5));
    EXPECT_EQ(StreamFingerprint(stream), 0xda0eef27ac1f4168ull);
    stream.ObserveDataset(GenerateUniform(Rect::Of(6, 0, 10, 10), 5000, 6));
    EXPECT_EQ(StreamFingerprint(stream), 0x6697e2e24cb99795ull);
  }
}

}  // namespace
}  // namespace vas
