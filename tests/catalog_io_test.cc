// Catalog persistence: the multi-rung binary format (save/load
// round-trip equality of ids, density, ladder sizes), structural
// validation against a dataset, corrupt-file rejection, and the memory
// accounting CatalogManager's budget runs on.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>

#include "engine/catalog_io.h"
#include "engine/catalog_store.h"
#include "sampling/uniform_sampler.h"
#include "test_util.h"

namespace vas {
namespace {

class CatalogIoTest : public test::TempFileTest {
 protected:
  CatalogIoTest() : TempFileTest("vas_catalog_io_test.vascat") {}

  SampleCatalog Build(const Dataset& d, std::vector<size_t> ladder,
                      bool density) {
    UniformReservoirSampler sampler(5);
    SampleCatalog::Options opt;
    opt.ladder = std::move(ladder);
    opt.embed_density = density;
    return SampleCatalog(d, sampler, opt);
  }
};

TEST_F(CatalogIoTest, RoundTripPreservesEveryRungExactly) {
  Dataset d = test::Skewed(2000);
  SampleCatalog catalog = Build(d, {25, 250, 1500}, /*density=*/true);
  ASSERT_EQ(catalog.samples().size(), 3u);

  ASSERT_TRUE(WriteCatalogPaged(catalog, path()).ok());
  auto back = ReadCatalog(path());
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->samples().size(), catalog.samples().size());
  for (size_t r = 0; r < catalog.samples().size(); ++r) {
    const SampleSet& orig = catalog.samples()[r];
    const SampleSet& got = back->samples()[r];
    EXPECT_EQ(got.method, orig.method);
    EXPECT_EQ(got.ids, orig.ids);          // byte-identical sample ids
    EXPECT_EQ(got.density, orig.density);  // density arrays survive
  }
  EXPECT_TRUE(ValidateCatalogAgainst(*back, d.size()).ok());
}

TEST_F(CatalogIoTest, RoundTripWithoutDensity) {
  Dataset d = test::Splom(800);
  SampleCatalog catalog = Build(d, {50, 400}, /*density=*/false);
  ASSERT_TRUE(WriteCatalogPaged(catalog, path()).ok());
  auto back = ReadCatalog(path());
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->samples().size(), 2u);
  EXPECT_FALSE(back->samples()[0].has_density());
  EXPECT_EQ(back->samples()[0].ids, catalog.samples()[0].ids);
}

TEST_F(CatalogIoTest, ReloadedCatalogAnswersSelectionsIdentically) {
  Dataset d = test::Skewed(3000);
  SampleCatalog catalog = Build(d, {100, 1000}, /*density=*/false);
  ASSERT_TRUE(WriteCatalogPaged(catalog, path()).ok());
  auto back = ReadCatalog(path());
  ASSERT_TRUE(back.ok());
  VizTimeModel model{0.001, 0.0};
  EXPECT_EQ(back->ChooseForTimeBudget(10.0, model).ids,
            catalog.ChooseForTimeBudget(10.0, model).ids);
  ASSERT_EQ(back->samples().size(), catalog.samples().size());
  for (size_t k = 0; k < catalog.samples().size(); ++k) {
    EXPECT_EQ(back->samples()[k].ids, catalog.samples()[k].ids) << k;
  }
}

TEST_F(CatalogIoTest, ValidateCatchesOutOfRangeIds) {
  Dataset d = test::Skewed(500);
  SampleCatalog catalog = Build(d, {100}, /*density=*/false);
  EXPECT_TRUE(ValidateCatalogAgainst(catalog, d.size()).ok());
  // Against a smaller dataset the ids run out of range.
  EXPECT_EQ(ValidateCatalogAgainst(catalog, 10).code(),
            StatusCode::kOutOfRange);
}

TEST_F(CatalogIoTest, RejectsMissingAndForeignFiles) {
  EXPECT_EQ(ReadCatalog("/nonexistent/nope.vascat").status().code(),
            StatusCode::kIoError);
  {
    std::ofstream out(path(), std::ios::binary);
    out << "definitely not a catalog";
  }
  EXPECT_EQ(ReadCatalog(path()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CatalogIoTest, RejectsCorruptCountsWithoutAllocating) {
  // A garbage rung count (or per-rung id count) must come back as an
  // error Status, not a thrown length_error from a huge resize.
  constexpr uint64_t kMagic = 0x5641530043415431ULL;  // "VAS\0CAT1"
  {
    std::ofstream out(path(), std::ios::binary);
    uint64_t rungs = ~uint64_t{0};
    out.write(reinterpret_cast<const char*>(&kMagic), sizeof(kMagic));
    out.write(reinterpret_cast<const char*>(&rungs), sizeof(rungs));
  }
  EXPECT_EQ(ReadCatalog(path()).status().code(),
            StatusCode::kInvalidArgument);
  {
    std::ofstream out(path(), std::ios::binary);
    uint64_t rungs = 1, method_len = 0, n = ~uint64_t{0}, density = 1;
    out.write(reinterpret_cast<const char*>(&kMagic), sizeof(kMagic));
    out.write(reinterpret_cast<const char*>(&rungs), sizeof(rungs));
    out.write(reinterpret_cast<const char*>(&method_len),
              sizeof(method_len));
    out.write(reinterpret_cast<const char*>(&n), sizeof(n));
    out.write(reinterpret_cast<const char*>(&density), sizeof(density));
  }
  EXPECT_EQ(ReadCatalog(path()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CatalogIoTest, RejectsTruncatedFiles) {
  Dataset d = test::Skewed(400);
  SampleCatalog catalog = Build(d, {50, 200}, /*density=*/true);
  ASSERT_TRUE(WriteCatalogPaged(catalog, path()).ok());
  // Chop the file mid-rung: the reader must error, not crash or serve a
  // partial ladder.
  std::ifstream in(path(), std::ios::binary | std::ios::ate);
  auto size = static_cast<size_t>(in.tellg());
  in.seekg(0);
  std::string bytes(size / 2, '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  in.close();
  {
    std::ofstream out(path(), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_FALSE(ReadCatalog(path()).ok());
}

TEST_F(CatalogIoTest, LegacyV1FilesLoadByteIdentically) {
  // Files written by earlier builds (CAT1) must keep loading through
  // the auto-detecting reader with nothing lost or reordered.
  Dataset d = test::Skewed(1500);
  SampleCatalog catalog = Build(d, {40, 300, 1000}, /*density=*/true);
  ASSERT_TRUE(test::WriteCatalogV1(catalog, path()).ok());
  auto format = SniffCatalogFormat(path());
  ASSERT_TRUE(format.ok());
  EXPECT_EQ(*format, CatalogFormat::kV1);

  auto back = ReadCatalog(path());
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->samples().size(), catalog.samples().size());
  for (size_t r = 0; r < catalog.samples().size(); ++r) {
    EXPECT_EQ(back->samples()[r].method, catalog.samples()[r].method);
    EXPECT_EQ(back->samples()[r].ids, catalog.samples()[r].ids);
    EXPECT_EQ(back->samples()[r].density, catalog.samples()[r].density);
  }
}

TEST_F(CatalogIoTest, V1ToV2ConversionKeepsEverySample) {
  // The migration path: read a CAT1 file, rewrite it paged (what
  // vas_tool convert-catalog does), and get the same ladder back.
  Dataset d = test::Skewed(2500);
  SampleCatalog catalog = Build(d, {60, 700}, /*density=*/true);
  ASSERT_TRUE(test::WriteCatalogV1(catalog, path()).ok());
  auto legacy = ReadCatalog(path());
  ASSERT_TRUE(legacy.ok());

  CatalogWriteOptions wopt;
  wopt.dataset = &d;  // conversion may add cell partitioning
  ASSERT_TRUE(WriteCatalogPaged(*legacy, path(), wopt).ok());
  auto format = SniffCatalogFormat(path());
  ASSERT_TRUE(format.ok());
  EXPECT_EQ(*format, CatalogFormat::kV2);

  auto converted = ReadCatalog(path());
  ASSERT_TRUE(converted.ok());
  ASSERT_EQ(converted->samples().size(), catalog.samples().size());
  for (size_t r = 0; r < catalog.samples().size(); ++r) {
    EXPECT_EQ(converted->samples()[r].method, catalog.samples()[r].method);
    EXPECT_EQ(converted->samples()[r].ids, catalog.samples()[r].ids);
    EXPECT_EQ(converted->samples()[r].density, catalog.samples()[r].density);
  }
  EXPECT_TRUE(ValidateCatalogAgainst(*converted, d.size()).ok());
}

TEST_F(CatalogIoTest, MemoryBytesTracksLadderSize) {
  Dataset d = test::Skewed(2000);
  SampleCatalog small = Build(d, {50}, /*density=*/false);
  SampleCatalog large = Build(d, {50, 1000}, /*density=*/true);
  size_t small_bytes = CatalogMemoryBytes(small);
  size_t large_bytes = CatalogMemoryBytes(large);
  // At minimum the ids (and density) arrays are accounted.
  EXPECT_GE(small_bytes, 50 * sizeof(uint64_t));
  EXPECT_GT(large_bytes, small_bytes + 1000 * sizeof(uint64_t));
}

}  // namespace
}  // namespace vas
