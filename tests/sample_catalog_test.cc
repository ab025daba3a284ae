// SampleCatalog: ladder construction invariants, budget/size selection,
// and round-tripping every rung through the binary sample format — the
// offline-build / online-serve split the paper's §II-B architecture
// depends on.
#include <gtest/gtest.h>

#include <numeric>

#include "engine/sample_catalog.h"
#include "sampling/sample_io.h"
#include "sampling/uniform_sampler.h"
#include "test_util.h"

namespace vas {
namespace {

TEST(SampleCatalogTest, LadderIsSortedClampedAndDeduplicated) {
  Dataset d = test::Skewed(500);
  UniformReservoirSampler sampler(1);
  SampleCatalog::Options opt;
  opt.ladder = {1000, 100, 100, 5000};  // unsorted, duplicated, oversized
  opt.embed_density = false;
  SampleCatalog catalog(d, sampler, opt);
  // 1000 and 5000 both clamp to 500 and collapse into one rung.
  ASSERT_EQ(catalog.samples().size(), 2u);
  EXPECT_EQ(catalog.samples()[0].size(), 100u);
  EXPECT_EQ(catalog.samples()[1].size(), 500u);
}

TEST(SampleCatalogTest, DensityEmbeddingPartitionsDataset) {
  Dataset d = test::Skewed(3000);
  UniformReservoirSampler sampler(2);
  SampleCatalog::Options opt;
  opt.ladder = {50, 200};
  opt.embed_density = true;
  SampleCatalog catalog(d, sampler, opt);
  for (const SampleSet& s : catalog.samples()) {
    ASSERT_TRUE(s.has_density());
    uint64_t total =
        std::accumulate(s.density.begin(), s.density.end(), uint64_t{0});
    EXPECT_EQ(total, d.size());  // every tuple lands in exactly one cell
  }
}

TEST(SampleCatalogTest, TimeBudgetSelectionMatchesCostModel) {
  Dataset d = test::Skewed(5000);
  UniformReservoirSampler sampler(4);
  SampleCatalog::Options opt;
  opt.ladder = {100, 1000, 4000};
  opt.embed_density = false;
  SampleCatalog catalog(d, sampler, opt);
  VizTimeModel model{0.001, 0.0};  // 1 ms per point, no overhead
  EXPECT_EQ(catalog.ChooseForTimeBudget(10.0, model).size(), 4000u);
  EXPECT_EQ(catalog.ChooseForTimeBudget(1.5, model).size(), 1000u);
  EXPECT_EQ(catalog.ChooseForTimeBudget(0.0, model).size(), 100u);  // fallback
}

TEST(SampleCatalogTest, NoRungFitsTheBudgetFallsBackToSmallest) {
  Dataset d = test::Skewed(5000);
  UniformReservoirSampler sampler(6);
  SampleCatalog::Options opt;
  opt.ladder = {500, 2000};
  opt.embed_density = false;
  SampleCatalog catalog(d, sampler, opt);
  VizTimeModel slow{1.0, 10.0};  // 1 s/point + 10 s overhead: nothing fits
  // Even a zero/negative budget serves the smallest rung rather than
  // nothing (serving late beats serving nothing).
  EXPECT_EQ(catalog.ChooseForTimeBudget(0.0, slow).size(), 500u);
  EXPECT_EQ(catalog.ChooseForTimeBudget(-1.0, slow).size(), 500u);
}

TEST(SampleCatalogTest, TinyDatasetCollapsesLadderToOneServableRung) {
  // Every configured rung exceeds the dataset: the ladder clamps to one
  // full-dataset rung, and the time-budget selector can only ever
  // return it.
  Dataset d = test::Skewed(7);
  UniformReservoirSampler sampler(7);
  SampleCatalog::Options opt;
  opt.ladder = {100, 1000, 10000};
  opt.embed_density = false;
  SampleCatalog catalog(d, sampler, opt);
  ASSERT_EQ(catalog.samples().size(), 1u);
  EXPECT_EQ(catalog.samples()[0].size(), 7u);
  VizTimeModel model{1e-3, 0.0};
  EXPECT_EQ(catalog.ChooseForTimeBudget(100.0, model).size(), 7u);
  EXPECT_EQ(catalog.ChooseForTimeBudget(0.0, model).size(), 7u);
}

class CatalogRoundTripTest : public test::TempFileTest {
 protected:
  CatalogRoundTripTest() : TempFileTest("vas_sample_catalog_test.bin") {}
};

TEST_F(CatalogRoundTripTest, EveryRungSurvivesBinaryPersistence) {
  Dataset d = test::Skewed(2000);
  UniformReservoirSampler sampler(5);
  SampleCatalog::Options opt;
  opt.ladder = {25, 250, 1500};
  opt.embed_density = true;
  SampleCatalog catalog(d, sampler, opt);
  ASSERT_EQ(catalog.samples().size(), 3u);
  for (const SampleSet& s : catalog.samples()) {
    ASSERT_TRUE(WriteSampleSet(s, path()).ok());
    auto back = ReadSampleSet(path());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->method, s.method);
    EXPECT_EQ(back->ids, s.ids);
    EXPECT_EQ(back->density, s.density);
    EXPECT_TRUE(ValidateSampleAgainst(*back, d.size()).ok());
    // The reloaded sample materializes the same points: an offline-built
    // catalog can be served by a later process.
    Dataset m = back->Materialize(d);
    ASSERT_EQ(m.size(), s.size());
    for (size_t i = 0; i < s.size(); ++i) {
      EXPECT_EQ(m.points[i], d.points[s.ids[i]]);
    }
  }
}

}  // namespace
}  // namespace vas
