// Catalog persistence: the multi-rung binary format (save/load
// round-trip equality of ids, density, ladder sizes), structural
// validation against a dataset, corrupt and retired-format (CAT1) file
// rejection, and the memory accounting CatalogManager's budget runs on.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

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

TEST_F(CatalogIoTest, LegacyV1FilesAreRefused) {
  // CAT1 is retired: a real CAT1 ladder and CAT1 headers with garbage
  // counts all come back as InvalidArgument "not a CAT2 catalog (bad
  // magic)", before any allocation.
  Dataset d = test::Skewed(1500);
  SampleCatalog catalog = Build(d, {40, 300, 1000}, /*density=*/true);
  ASSERT_TRUE(test::WriteCatalogV1(catalog, path()).ok());
  auto refused = ReadCatalog(path());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(
      refused.status().ToString().find("not a CAT2 catalog (bad magic)"),
      std::string::npos)
      << refused.status().ToString();

  constexpr uint64_t kMagic = 0x5641530043415431ULL;  // "VAS\0CAT1"
  const uint64_t kAll = ~uint64_t{0};
  // A garbage rung count; then one rung with a garbage id count.
  for (const std::vector<uint64_t>& words :
       {std::vector<uint64_t>{kMagic, kAll},
        std::vector<uint64_t>{kMagic, 1, 0, kAll, 1}}) {
    {
      std::ofstream out(path(), std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(words.data()),
                static_cast<std::streamsize>(words.size() * sizeof(uint64_t)));
    }
    auto garbage = ReadCatalog(path());
    EXPECT_EQ(garbage.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(
        garbage.status().ToString().find("not a CAT2 catalog (bad magic)"),
        std::string::npos)
        << garbage.status().ToString();
  }
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
