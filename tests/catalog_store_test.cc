// CatalogStore (the paged CAT2 format): refusing other files, exact
// round-trips through the cell-partitioned writer, cell-range partial
// loads (coverage, rung order and density fidelity vs the resident
// rung), resident views answering the same cell ranges from each
// rung's layout, one partitioner for published and written layouts,
// cell-layout counts against brute force on every grid, crash-safe
// writes, per-rung value ranges, the touched-page accounting that
// proves one viewport reads fewer bytes than full materialization and
// charges each page to exactly one materialize call, CatalogView parity with SampleCatalog, and corruption
// hardening — truncation, bit flips, out-of-range page directories,
// oversized cell counts, bad rung flags and value ranges, and bad
// positions must all come back as clean Status errors, never crashes
// or silent bad data.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/catalog_io.h"
#include "engine/catalog_store.h"
#include "sampling/uniform_sampler.h"
#include "test_util.h"
#include "util/crc32.h"

namespace vas {
namespace {

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

uint64_t LoadU64(const std::string& bytes, size_t offset) {
  uint64_t v = 0;
  std::memcpy(&v, bytes.data() + offset, sizeof(v));
  return v;
}

void StoreU64(std::string* bytes, size_t offset, uint64_t v) {
  std::memcpy(bytes->data() + offset, &v, sizeof(v));
}

void StoreU32(std::string* bytes, size_t offset, uint32_t v) {
  std::memcpy(bytes->data() + offset, &v, sizeof(v));
}

constexpr size_t kFooterBytes = 48;

/// Rewrites the footer checksum after a test mutates footer fields, so
/// the mutation reaches the structural checks behind it.
void FixFooterCrc(std::string* bytes) {
  const size_t footer = bytes->size() - kFooterBytes;
  StoreU64(bytes, footer + 40, Crc32(bytes->data() + footer, 40));
}

/// Rewrites page `page`'s CRC header to match its (mutated) payload.
void FixPageCrc(std::string* bytes, size_t page_size, size_t page) {
  const size_t offset = page * page_size;
  uint32_t payload_len = 0;
  std::memcpy(&payload_len, bytes->data() + offset + 4, sizeof(payload_len));
  StoreU32(bytes, offset, Crc32(bytes->data() + offset + 8, payload_len));
}

uint64_t Bits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// The writer's clamped grid coordinate of `v` on [lo, hi] split into
/// `dim` cells, restated from the format so tests can name a point's
/// cell independently of the reader.
size_t CellOf(double v, double lo, double hi, uint64_t dim) {
  if (dim <= 1 || !(hi > lo)) return 0;
  const double scaled = (v - lo) / (hi - lo) * static_cast<double>(dim);
  if (!(scaled > 0.0)) return 0;
  if (scaled >= static_cast<double>(dim)) return static_cast<size_t>(dim - 1);
  return static_cast<size_t>(scaled);
}

class CatalogStoreTest : public test::TempFileTest {
 protected:
  CatalogStoreTest() : TempFileTest("vas_catalog_store_test.vascat") {}

  SampleCatalog Build(const Dataset& d, std::vector<size_t> ladder,
                      bool density) {
    UniformReservoirSampler sampler(5);
    SampleCatalog::Options opt;
    opt.ladder = std::move(ladder);
    opt.embed_density = density;
    return SampleCatalog(d, sampler, opt);
  }
};

/// Expects Open(path) to be InvalidArgument with `message` in it.
void ExpectRefused(const std::string& path, const std::string& message) {
  auto opened = CatalogStore::Open(path);
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(opened.status().ToString().find(message), std::string::npos)
      << opened.status().ToString();
}

TEST_F(CatalogStoreTest, OpenRefusesFilesThatAreNotCat2) {
  // CAT2 is the only catalog format: a retired CAT1 file, its bare
  // 16-byte header and junk bytes, short or long, lack the superblock
  // magic at offset 8 and are "not a CAT2 catalog"; a file too short to
  // hold that magic, and a real CAT2 file cut short, are "truncated".
  // All are InvalidArgument; a missing file is IoError.
  Dataset d = test::Skewed(2000);
  SampleCatalog catalog = Build(d, {100, 1000}, /*density=*/true);
  ASSERT_TRUE(test::WriteCatalogV1(catalog, path()).ok());
  ASSERT_GT(std::filesystem::file_size(path()), 4096u);
  const std::string cat1 = ReadFileBytes(path());
  ExpectRefused(path(), "not a CAT2 catalog (bad magic)");
  WriteFileBytes(path(), cat1.substr(0, 16));
  ExpectRefused(path(), "not a CAT2 catalog (bad magic)");

  WriteFileBytes(path(), "definitely not a catalog of any format");
  ExpectRefused(path(), "not a CAT2 catalog (bad magic)");
  WriteFileBytes(path(), std::string(8192, '\x5a'));
  ExpectRefused(path(), "not a CAT2 catalog (bad magic)");
  WriteFileBytes(path(), std::string(12, '\x5a'));
  ExpectRefused(path(), "truncated catalog file");

  ASSERT_TRUE(WriteCatalogPaged(catalog, path()).ok());
  const std::string cat2 = ReadFileBytes(path());
  ASSERT_GT(cat2.size(), 600u);
  WriteFileBytes(path(), cat2.substr(0, 600));
  ExpectRefused(path(), "truncated catalog file");
  WriteFileBytes(path(), cat2.substr(0, 100));
  ExpectRefused(path(), "truncated catalog file");

  EXPECT_EQ(CatalogStore::Open("/nonexistent/nope.vascat").status().code(),
            StatusCode::kIoError);
}

TEST_F(CatalogStoreTest, PagedRoundTripPreservesEveryRungExactly) {
  Dataset d = test::Skewed(3000);
  SampleCatalog catalog = Build(d, {50, 400, 2000}, /*density=*/true);
  CatalogWriteOptions wopt;
  wopt.dataset = &d;  // cell-partitioned, the layout spills use
  wopt.target_entries_per_cell = 128;
  ASSERT_TRUE(WriteCatalogPaged(catalog, path(), wopt).ok());

  auto store = CatalogStore::Open(path());
  ASSERT_TRUE(store.ok());
  ASSERT_EQ((*store)->rung_count(), 3u);
  for (size_t k = 0; k < 3; ++k) {
    const SampleSet& orig = catalog.samples()[k];
    auto got = (*store)->MaterializeRung(k, d.size());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->method, orig.method);
    EXPECT_EQ(got->ids, orig.ids);  // original order via the permutation
    EXPECT_EQ(got->density, orig.density);
  }

  auto all = (*store)->ReadAll(d.size());
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->samples().size(), 3u);
  for (size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(all->samples()[k].ids, catalog.samples()[k].ids);
  }
}

TEST_F(CatalogStoreTest, WriterRejectsBadOptions) {
  Dataset d = test::Skewed(200);
  SampleCatalog catalog = Build(d, {50}, /*density=*/false);
  CatalogWriteOptions wopt;
  wopt.page_size = 100;  // not a multiple of 8, below the minimum
  EXPECT_EQ(WriteCatalogPaged(catalog, path(), wopt).code(),
            StatusCode::kInvalidArgument);
  wopt.page_size = 4100;  // not a multiple of 8
  EXPECT_EQ(WriteCatalogPaged(catalog, path(), wopt).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(WriteCatalogPaged(SampleCatalog({}), path()).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CatalogStoreTest, CellRangeLoadCoversEveryPointInTheRect) {
  Dataset d = test::Skewed(20000);
  SampleCatalog catalog = Build(d, {5000}, /*density=*/true);
  CatalogWriteOptions wopt;
  wopt.dataset = &d;
  wopt.target_entries_per_cell = 128;
  ASSERT_TRUE(WriteCatalogPaged(catalog, path(), wopt).ok());
  auto store = CatalogStore::Open(path());
  ASSERT_TRUE(store.ok());

  const SampleSet& rung = catalog.samples()[0];
  std::map<uint64_t, double> density_of;
  for (size_t i = 0; i < rung.ids.size(); ++i) {
    density_of[rung.ids[i]] = rung.density[i];
  }

  Rect bounds = d.Bounds();
  Rect query = Rect::Of(bounds.min_x + bounds.width() * 0.40,
                        bounds.min_y + bounds.height() * 0.40,
                        bounds.min_x + bounds.width() * 0.55,
                        bounds.min_y + bounds.height() * 0.55);
  auto partial = (*store)->MaterializeCells(0, query, d.size());
  ASSERT_TRUE(partial.ok());
  ASSERT_EQ(partial->density.size(), partial->ids.size());

  // Every loaded entry is a genuine rung entry carrying its own
  // density, and every rung point inside the rect was loaded (the
  // result is a cell-aligned superset of the rect's contents).
  for (size_t i = 0; i < partial->ids.size(); ++i) {
    auto it = density_of.find(partial->ids[i]);
    ASSERT_NE(it, density_of.end()) << "id not in the rung";
    EXPECT_EQ(partial->density[i], it->second);
  }
  std::set<uint64_t> loaded(partial->ids.begin(), partial->ids.end());
  size_t in_rect = 0;
  for (uint64_t id : rung.ids) {
    if (!query.Contains(d.points[id])) continue;
    ++in_rect;
    EXPECT_TRUE(loaded.count(id) > 0)
        << "rung point inside the query rect was not loaded";
  }
  ASSERT_GT(in_rect, 0u) << "degenerate query: rect missed every point";
  EXPECT_LT(partial->ids.size(), rung.ids.size())
      << "partial load degenerated to the whole rung";
}

TEST_F(CatalogStoreTest, EmptyAndDisjointQueriesLoadNothing) {
  Dataset d = test::Skewed(5000);
  SampleCatalog catalog = Build(d, {1000}, /*density=*/false);
  CatalogWriteOptions wopt;
  wopt.dataset = &d;
  ASSERT_TRUE(WriteCatalogPaged(catalog, path(), wopt).ok());
  auto store = CatalogStore::Open(path());
  ASSERT_TRUE(store.ok());

  auto empty = (*store)->MaterializeCells(0, Rect(), d.size());
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->size(), 0u);

  Rect bounds = d.Bounds();
  Rect outside =
      Rect::Of(bounds.max_x + 1.0, bounds.max_y + 1.0, bounds.max_x + 2.0,
               bounds.max_y + 2.0);
  auto disjoint = (*store)->MaterializeCells(0, outside, d.size());
  ASSERT_TRUE(disjoint.ok());
  EXPECT_EQ(disjoint->size(), 0u);
}

TEST_F(CatalogStoreTest, OneViewportTouchesFewerBytesThanFullLoad) {
  // The partial-load payoff, measured by the store's own accounting:
  // materializing one small viewport faults in strictly fewer pages
  // than materializing the rung, which itself is the cost a full
  // reload would pay.
  Dataset d = test::Skewed(50000);
  SampleCatalog catalog = Build(d, {20000}, /*density=*/false);
  CatalogWriteOptions wopt;
  wopt.dataset = &d;
  wopt.page_size = 512;  // many pages, so the gap is sharp
  wopt.target_entries_per_cell = 256;
  ASSERT_TRUE(WriteCatalogPaged(catalog, path(), wopt).ok());

  auto full = CatalogStore::Open(path());
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE((*full)->MaterializeRung(0, d.size()).ok());
  const size_t full_touched = (*full)->touched_bytes();

  auto partial = CatalogStore::Open(path());  // fresh accounting
  ASSERT_TRUE(partial.ok());
  Rect bounds = d.Bounds();
  Rect viewport = Rect::Of(bounds.min_x + bounds.width() * 0.45,
                           bounds.min_y + bounds.height() * 0.45,
                           bounds.min_x + bounds.width() * 0.55,
                           bounds.min_y + bounds.height() * 0.55);
  auto loaded = (*partial)->MaterializeCells(0, viewport, d.size());
  ASSERT_TRUE(loaded.ok());
  ASSERT_GT(loaded->size(), 0u);

  EXPECT_GT((*partial)->touched_bytes(), 0u);
  EXPECT_LT((*partial)->touched_bytes(), full_touched)
      << "one viewport should fault in fewer pages than the whole rung";
  EXPECT_LT((*partial)->touched_bytes(), (*partial)->file_bytes());
}

TEST_F(CatalogStoreTest, MaterializeReportsThePagesItFaultedInFirst) {
  // Per-call attribution: each call reports the bytes of exactly the
  // pages it verified first — all of the store's touched_bytes() delta
  // when it runs alone, nothing when it repeats a rect.
  Dataset d = test::Skewed(50000);
  SampleCatalog catalog = Build(d, {20000}, /*density=*/true);
  CatalogWriteOptions wopt;
  wopt.dataset = &d;
  wopt.page_size = 512;
  wopt.target_entries_per_cell = 256;
  ASSERT_TRUE(WriteCatalogPaged(catalog, path(), wopt).ok());
  auto store = CatalogStore::Open(path());
  ASSERT_TRUE(store.ok());
  CatalogView view(*store, d.size());

  Rect bounds = d.Bounds();
  Rect viewport = Rect::Of(bounds.min_x + bounds.width() * 0.45,
                           bounds.min_y + bounds.height() * 0.45,
                           bounds.min_x + bounds.width() * 0.55,
                           bounds.min_y + bounds.height() * 0.55);
  const size_t before = (*store)->touched_bytes();
  size_t first = 0;
  ASSERT_TRUE(view.MaterializeForRect(0, viewport, &first).ok());
  EXPECT_GT(first, 0u);
  EXPECT_EQ(first, (*store)->touched_bytes() - before);

  size_t repeat = 1;
  ASSERT_TRUE(view.MaterializeForRect(0, viewport, &repeat).ok());
  EXPECT_EQ(repeat, 0u) << "a repeated rect faults in no new pages";

  // The whole rung pays only for the pages the rect left untouched.
  const size_t after_rect = (*store)->touched_bytes();
  size_t whole = 0;
  ASSERT_TRUE(view.MaterializeRung(0, &whole).ok());
  EXPECT_GT(whole, 0u);
  EXPECT_EQ(whole, (*store)->touched_bytes() - after_rect);

  CatalogView resident(std::make_shared<const SampleCatalog>(catalog));
  size_t resident_bytes = 1;
  ASSERT_TRUE(resident.MaterializeForRect(0, viewport, &resident_bytes).ok());
  EXPECT_EQ(resident_bytes, 0u);
}

TEST_F(CatalogStoreTest, ConcurrentDisjointRectsSplitTheTouchedBytes) {
  // Threads materializing disjoint rects of one store race for the
  // pages their cell runs share; every page is charged to exactly the
  // call that verified it, so the reports sum to the store's
  // touched_bytes() delta.
  Dataset d = test::Skewed(50000);
  SampleCatalog catalog = Build(d, {20000}, /*density=*/true);
  CatalogWriteOptions wopt;
  wopt.dataset = &d;
  wopt.page_size = 512;
  wopt.target_entries_per_cell = 64;
  ASSERT_TRUE(WriteCatalogPaged(catalog, path(), wopt).ok());

  constexpr size_t kSide = 4;
  constexpr size_t kThreads = 4;
  const Rect bounds = d.Bounds();
  std::vector<Rect> rects;
  for (size_t gy = 0; gy < kSide; ++gy) {
    for (size_t gx = 0; gx < kSide; ++gx) {
      const double w = bounds.width() / kSide;
      const double h = bounds.height() / kSide;
      // Shrunk a little so neighbors never share an edge.
      rects.push_back(Rect::Of(bounds.min_x + w * (gx + 0.01),
                               bounds.min_y + h * (gy + 0.01),
                               bounds.min_x + w * (gx + 0.99),
                               bounds.min_y + h * (gy + 0.99)));
    }
  }
  for (int round = 0; round < 5; ++round) {
    auto store = CatalogStore::Open(path());  // fresh accounting
    ASSERT_TRUE(store.ok());
    const size_t before = (*store)->touched_bytes();
    std::vector<size_t> reported(rects.size(), 0);
    std::vector<int> ok(rects.size(), 0);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (size_t r = t; r < rects.size(); r += kThreads) {
          ok[r] = (*store)
                      ->MaterializeCells(0, rects[r], d.size(), &reported[r])
                      .ok();
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    size_t sum = 0;
    for (size_t r = 0; r < rects.size(); ++r) {
      EXPECT_TRUE(ok[r]) << "rect " << r;
      sum += reported[r];
    }
    EXPECT_GT(sum, 0u);
    EXPECT_EQ(sum, (*store)->touched_bytes() - before) << "round " << round;
  }
}

TEST_F(CatalogStoreTest, ViewMatchesResidentCatalogSemantics) {
  Dataset d = test::Skewed(4000);
  SampleCatalog catalog = Build(d, {100, 900}, /*density=*/false);
  CatalogWriteOptions wopt;
  wopt.dataset = &d;
  ASSERT_TRUE(WriteCatalogPaged(catalog, path(), wopt).ok());
  auto store = CatalogStore::Open(path());
  ASSERT_TRUE(store.ok());

  CatalogView mapped(*store, d.size());
  CatalogView resident(
      std::make_shared<const SampleCatalog>(catalog));
  ASSERT_TRUE(mapped.valid());
  ASSERT_TRUE(resident.valid());
  EXPECT_TRUE(mapped.partial());
  EXPECT_FALSE(resident.partial());
  ASSERT_EQ(mapped.rung_count(), resident.rung_count());
  for (size_t k = 0; k < mapped.rung_count(); ++k) {
    EXPECT_EQ(mapped.rung_size(k), resident.rung_size(k));
    EXPECT_EQ(resident.ResidentRung(k)->ids, catalog.samples()[k].ids);
    EXPECT_EQ(mapped.ResidentRung(k), nullptr);
    auto whole = mapped.MaterializeRung(k);
    ASSERT_TRUE(whole.ok());
    EXPECT_EQ(whole->ids, catalog.samples()[k].ids);
  }

  // Both views pick the same rung SampleCatalog would.
  VizTimeModel model{1e-4, 0.0};
  for (double budget : {1e-6, 0.02, 1.0}) {
    size_t from_mapped = mapped.ChooseForTimeBudget(budget, model);
    EXPECT_EQ(mapped.rung_size(from_mapped),
              catalog.ChooseForTimeBudget(budget, model).size());
    EXPECT_EQ(from_mapped, resident.ChooseForTimeBudget(budget, model));
  }
}

TEST_F(CatalogStoreTest, MaterializeChecksIdsAgainstTheDataset) {
  Dataset d = test::Skewed(1000);
  SampleCatalog catalog = Build(d, {200}, /*density=*/false);
  ASSERT_TRUE(WriteCatalogPaged(catalog, path()).ok());
  auto store = CatalogStore::Open(path());
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE((*store)->MaterializeRung(0, d.size()).ok());
  // Against a smaller dataset the stored ids run out of range.
  EXPECT_EQ((*store)->MaterializeRung(0, 10).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ((*store)->MaterializeCells(0, d.Bounds(), 10).status().code(),
            StatusCode::kOutOfRange);
}

TEST_F(CatalogStoreTest, CellLoadIsTheRungFilteredToItsCellsInRungOrder) {
  // A cell-range load returns exactly the rung's entries whose cells
  // the query intersects, in the rung's own order, each with its own
  // density: MaterializeRung with the other cells' entries left out.
  Dataset d = test::Skewed(20000);
  SampleCatalog catalog = Build(d, {5000}, /*density=*/true);
  CatalogWriteOptions wopt;
  wopt.dataset = &d;
  wopt.page_size = 512;
  wopt.target_entries_per_cell = 128;
  ASSERT_TRUE(WriteCatalogPaged(catalog, path(), wopt).ok());
  auto store = CatalogStore::Open(path());
  ASSERT_TRUE(store.ok());
  const CatalogStore::Rung& meta = (*store)->rung(0);
  ASSERT_GT(meta.grid_x, 2u);
  auto whole = (*store)->MaterializeRung(0, d.size());
  ASSERT_TRUE(whole.ok());
  ASSERT_EQ(whole->ids, catalog.samples()[0].ids);

  const Rect& domain = meta.domain;
  auto at = [&](double fx0, double fy0, double fx1, double fy1) {
    return Rect::Of(domain.min_x + domain.width() * fx0,
                    domain.min_y + domain.height() * fy0,
                    domain.min_x + domain.width() * fx1,
                    domain.min_y + domain.height() * fy1);
  };
  const std::vector<Rect> queries = {
      at(0.40, 0.40, 0.55, 0.55),  // interior, a few cells
      at(0.0, 0.0, 0.05, 0.05),    // the domain's corner cell
      at(-0.5, 0.3, 0.2, 0.35),    // overhangs the domain
      at(0.5, 0.5, 0.5, 0.5),      // a single point
      at(-1.0, -1.0, 2.0, 2.0)};   // everything
  for (const Rect& query : queries) {
    const size_t cx0 = CellOf(query.min_x, domain.min_x, domain.max_x,
                              meta.grid_x);
    const size_t cx1 = CellOf(query.max_x, domain.min_x, domain.max_x,
                              meta.grid_x);
    const size_t cy0 = CellOf(query.min_y, domain.min_y, domain.max_y,
                              meta.grid_y);
    const size_t cy1 = CellOf(query.max_y, domain.min_y, domain.max_y,
                              meta.grid_y);
    SampleSet expected;
    for (size_t i = 0; i < whole->ids.size(); ++i) {
      const Point p = d.points[whole->ids[i]];
      const size_t cx = CellOf(p.x, domain.min_x, domain.max_x, meta.grid_x);
      const size_t cy = CellOf(p.y, domain.min_y, domain.max_y, meta.grid_y);
      if (cx < cx0 || cx > cx1 || cy < cy0 || cy > cy1) continue;
      expected.ids.push_back(whole->ids[i]);
      expected.density.push_back(whole->density[i]);
    }
    ASSERT_FALSE(expected.ids.empty());
    auto cells = (*store)->MaterializeCells(0, query, d.size());
    ASSERT_TRUE(cells.ok());
    EXPECT_EQ(cells->ids, expected.ids);
    EXPECT_EQ(cells->density, expected.density);
  }
}

TEST_F(CatalogStoreTest, CellCountsMatchBruteForceOnEveryGrid) {
  // RungLayout::CountInside takes the interior cells of a query whole
  // and tests only the boundary cells' entries; it must equal a
  // brute-force count over the rung's ids on any grid, for any query.
  // The store's rung metadata splits a query's cells the same way.
  Dataset d = test::Skewed(60000);
  UniformReservoirSampler sampler(13);
  const SampleSet rung = sampler.Sample(d, 20000);
  SampleCatalog catalog(std::vector<SampleSet>{rung});
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  struct Grid {
    const Dataset* dataset;
    size_t target;
    uint64_t dim;
  };
  for (const Grid& g : {Grid{nullptr, kDefaultEntriesPerCell, 1},
                        Grid{&d, 313, 8}, Grid{&d, 20, 32}, Grid{&d, 1, 64}}) {
    auto laid_out = LayOutRung(g.dataset, rung, g.target);
    ASSERT_TRUE(laid_out.ok());
    const RungLayout& layout = **laid_out;
    ASSERT_EQ(layout.grid_x, g.dim);
    ASSERT_EQ(layout.grid_y, g.dim);
    ASSERT_EQ(layout.domain.empty(), g.dataset == nullptr);
    CatalogWriteOptions wopt;
    wopt.dataset = g.dataset;
    wopt.target_entries_per_cell = g.target;
    ASSERT_TRUE(WriteCatalogPaged(catalog, path(), wopt).ok());
    auto store = CatalogStore::Open(path());
    ASSERT_TRUE(store.ok());
    const CatalogStore::Rung& meta = (*store)->rung(0);

    // The grid's own cell edges, from the domain of the rung's points.
    const Rect domain = Rect::BoundingBox(rung.MaterializePoints(d));
    auto edge_x = [&](uint64_t i) {
      return domain.min_x + domain.width() * static_cast<double>(i) /
                                static_cast<double>(g.dim);
    };
    auto edge_y = [&](uint64_t i) {
      return domain.min_y + domain.height() * static_cast<double>(i) /
                                static_cast<double>(g.dim);
    };
    const Point p = d.points[rung.ids[17]];
    const Point q = d.points[rung.ids[4242]];
    const Point c = domain.Center();
    std::vector<Rect> queries = {
        Rect::Of(edge_x(g.dim / 4), edge_y(g.dim / 8), edge_x(3 * g.dim / 4),
                 edge_y(g.dim)),  // edges on cell boundaries
        Rect::Of(edge_x(1), edge_y(1), edge_x(1), edge_y(g.dim)),
        Rect::Of(std::min(p.x, q.x), std::min(p.y, q.y), std::max(p.x, q.x),
                 std::max(p.y, q.y)),  // corners on sample points
        Rect::Of(p.x, p.y, p.x, p.y),  // degenerate: one point
        Rect::Of(p.x, domain.min_y, p.x, domain.max_y),  // a vertical line
        Rect::Of(c.x, c.y, 1e20, 1e20),
        Rect::Of(-1e20, -1e20, c.x, c.y),
        Rect::Of(-1e20, -1e20, 1e20, 1e20),
        Rect::Of(-kInf, c.y, c.x, kInf),
        Rect::Of(-kInf, -kInf, kInf, kInf),
        Rect::Of(domain.max_x + 1, domain.min_y, domain.max_x + 2,
                 domain.max_y),  // misses the domain
        Rect::Of(domain.min_x - 2, domain.min_y - 2, domain.min_x - 1,
                 domain.min_y - 1),
        Rect::Of(kNaN, domain.min_y, domain.max_x, domain.max_y),
        Rect(),  // empty
        domain};
    std::mt19937_64 rng(29 + g.dim);
    std::uniform_real_distribution<double> fx(domain.min_x - 0.1 * domain.width(),
                                              domain.max_x + 0.1 * domain.width());
    std::uniform_real_distribution<double> fy(
        domain.min_y - 0.1 * domain.height(),
        domain.max_y + 0.1 * domain.height());
    for (int i = 0; i < 200; ++i) {
      const double x0 = fx(rng), x1 = fx(rng), y0 = fy(rng), y1 = fy(rng);
      queries.push_back(Rect::Of(std::min(x0, x1), std::min(y0, y1),
                                 std::max(x0, x1), std::max(y0, y1)));
    }
    for (const Rect& query : queries) {
      size_t brute = 0;
      for (size_t id : rung.ids) brute += query.Contains(d.points[id]) ? 1 : 0;
      EXPECT_EQ(layout.CountInside(d, rung, query), brute)
          << g.dim << "x" << g.dim << " grid, query [" << query.min_x << ", "
          << query.min_y << ", " << query.max_x << ", " << query.max_y << "]";
      const CellGrid::Split split = layout.SplitCells(query);
      uint64_t boundary = 0;
      for (const auto& [begin, end] : split.boundary) boundary += end - begin;
      EXPECT_LE(split.interior_entries, brute);
      EXPECT_EQ(split.interior_entries + boundary,
                layout.CountSelected(query));
      const CellGrid::Split mapped = meta.SplitCells(query);
      EXPECT_EQ(mapped.interior_entries, split.interior_entries);
      EXPECT_EQ(mapped.boundary, split.boundary);
    }
  }
}

TEST_F(CatalogStoreTest, ResidentAndMappedViewsSelectTheSameCells) {
  // A resident view answers MaterializeForRect from each rung's layout;
  // a mapped view of the same ladder loads the same cells from the
  // file. Both return the same entries, densities and order for every
  // kind of rect, and WholeRung hands out the resident rung exactly
  // when the selection is all of it.
  Dataset d = test::Skewed(40000);
  for (bool density : {false, true}) {
    SCOPED_TRACE(density ? "with density" : "without density");
    SampleCatalog catalog = Build(d, {500, 12000}, density);
    const RungLayout* layout = catalog.layout(1).get();
    ASSERT_NE(layout, nullptr);
    ASSERT_GE(layout->grid_x, 2u);
    ASSERT_GE(layout->grid_y, 2u);
    CatalogWriteOptions wopt;
    wopt.dataset = &d;
    ASSERT_TRUE(WriteCatalogPaged(catalog, path(), wopt).ok());
    auto store = CatalogStore::Open(path());
    ASSERT_TRUE(store.ok());
    CatalogView mapped(*store, d.size());
    CatalogView resident(std::make_shared<const SampleCatalog>(catalog));

    const Rect& domain = layout->domain;
    const double cw = domain.width() / static_cast<double>(layout->grid_x);
    const double ch = domain.height() / static_cast<double>(layout->grid_y);
    auto at = [&](double cx0, double cy0, double cx1, double cy1) {
      return Rect::Of(domain.min_x + cw * cx0, domain.min_y + ch * cy0,
                      domain.min_x + cw * cx1, domain.min_y + ch * cy1);
    };
    const std::vector<Rect> rects = {
        at(0.25, 0.25, 0.75, 0.75),  // inside one cell
        at(0.5, 0.5, 1.5, 1.5),      // across four cells
        at(1.0, 1.0, 2.0, 2.0),      // exactly on one cell's edges
        at(1.0, 0.0, 1.0, 2.0),      // a line along an interior edge
        domain,                      // the whole domain
        Rect::Of(domain.min_x - 1, domain.min_y - 1, domain.max_x + 1,
                 domain.max_y + 1),  // beyond it
        Rect::Of(domain.max_x + 1, domain.max_y + 1, domain.max_x + 2,
                 domain.max_y + 2),  // disjoint from it
        Rect()};                     // empty
    for (size_t k = 0; k < catalog.samples().size(); ++k) {
      const SampleSet& rung = catalog.samples()[k];
      for (size_t r = 0; r < rects.size(); ++r) {
        SCOPED_TRACE("rung " + std::to_string(k) + ", rect " +
                     std::to_string(r));
        size_t touched = 1;
        auto from_layout = resident.MaterializeForRect(k, rects[r], &touched);
        auto from_file = mapped.MaterializeForRect(k, rects[r]);
        ASSERT_TRUE(from_layout.ok());
        ASSERT_TRUE(from_file.ok());
        EXPECT_EQ(touched, 0u);
        EXPECT_EQ(from_layout->method, from_file->method);
        EXPECT_EQ(from_layout->ids, from_file->ids);
        EXPECT_EQ(from_layout->density, from_file->density);
        const SampleSet* whole = resident.WholeRung(k, rects[r]);
        if (from_layout->size() == rung.size()) {
          EXPECT_EQ(whole, resident.ResidentRung(k));
          EXPECT_EQ(from_layout->ids, rung.ids);
        } else {
          EXPECT_EQ(whole, nullptr);
        }
        EXPECT_EQ(mapped.WholeRung(k, rects[r]), nullptr);
      }
    }
    // The big rung's cells really narrow the selection.
    EXPECT_GT(resident.MaterializeForRect(1, rects[0])->size(), 0u);
    EXPECT_LT(resident.MaterializeForRect(1, rects[0])->size(), 12000u);
    EXPECT_EQ(resident.MaterializeForRect(1, rects[6])->size(), 0u);
    EXPECT_EQ(resident.MaterializeForRect(1, rects[7])->size(), 0u);
  }
}

TEST_F(CatalogStoreTest, OnePartitionerForPublishedAndWrittenLayouts) {
  // A rung's published layout and the writer's layout come from one
  // partitioner: ReadAll hands back, as written, exactly the layout
  // the rung was published with. Each cell keeps its entries in rung
  // order.
  Dataset d = test::Skewed(30000);
  SampleCatalog published = Build(d, {300, 9000}, /*density=*/true);
  CatalogWriteOptions wopt;
  wopt.dataset = &d;
  ASSERT_TRUE(WriteCatalogPaged(published, path(), wopt).ok());

  auto store = CatalogStore::Open(path());
  ASSERT_TRUE(store.ok());
  auto all = (*store)->ReadAll(d.size());
  ASSERT_TRUE(all.ok());
  for (size_t k = 0; k < published.samples().size(); ++k) {
    const RungLayout& want = *published.layout(k);
    const RungLayout* got = all->layout(k).get();
    ASSERT_NE(got, nullptr) << "rung " << k;
    EXPECT_EQ(got->grid_x, want.grid_x);
    EXPECT_EQ(got->grid_y, want.grid_y);
    EXPECT_EQ(got->domain, want.domain);
    EXPECT_EQ(got->cell_counts, want.cell_counts);
    EXPECT_EQ(got->cell_starts, want.cell_starts);
    EXPECT_EQ(got->positions, want.positions);
    EXPECT_EQ(got->value_range, want.value_range);
    EXPECT_EQ(all->samples()[k].ids, published.samples()[k].ids);
  }

  // Rung order within each cell, and every entry in its point's cell.
  const RungLayout& layout = *published.layout(1);
  const SampleSet& rung = published.samples()[1];
  ASSERT_GE(layout.grid_x, 2u);
  std::vector<uint8_t> seen(rung.size(), 0);
  for (size_t c = 0; c < layout.cell_counts.size(); ++c) {
    for (uint64_t e = layout.cell_starts[c];
         e < layout.cell_starts[c] + layout.cell_counts[c]; ++e) {
      const uint32_t pos = layout.positions[e];
      ASSERT_LT(pos, rung.size());
      EXPECT_EQ(seen[pos], 0) << "position " << pos << " placed twice";
      seen[pos] = 1;
      if (e > layout.cell_starts[c]) {
        EXPECT_LT(layout.positions[e - 1], pos) << "cell " << c;
      }
      const Point p = d.points[rung.ids[pos]];
      const size_t cx = CellOf(p.x, layout.domain.min_x, layout.domain.max_x,
                               layout.grid_x);
      const size_t cy = CellOf(p.y, layout.domain.min_y, layout.domain.max_y,
                               layout.grid_y);
      EXPECT_EQ(cy * layout.grid_x + cx, c) << "position " << pos;
    }
  }

  // A writer asked for a different grid writes the rung on that grid.
  wopt.target_entries_per_cell = 16 * kDefaultEntriesPerCell;
  ASSERT_TRUE(WriteCatalogPaged(published, path(), wopt).ok());
  auto regridded = CatalogStore::Open(path());
  ASSERT_TRUE(regridded.ok());
  EXPECT_EQ((*regridded)->rung(1).grid_x,
            GridDimFor(9000, 16 * kDefaultEntriesPerCell));
  EXPECT_NE((*regridded)->rung(1).grid_x, layout.grid_x);
  auto whole = (*regridded)->MaterializeRung(1, d.size());
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(whole->ids, rung.ids);
  EXPECT_EQ(whole->density, rung.density);
}

TEST_F(CatalogStoreTest, WritesFromPublishedLayoutsInTheSameBytes) {
  // A spill writes each rung from the layout it was published with when
  // that is the layout the writer would compute, and lays the rung out
  // again otherwise. Either way the file is, byte for byte, what the
  // same ladder without layouts writes.
  Dataset d = test::Skewed(30000);
  SampleCatalog published = Build(d, {100, 300, 9000}, /*density=*/true);
  SampleCatalog bare(published.samples());
  ASSERT_NE(published.layout(2), nullptr);
  ASSERT_EQ(bare.layout(2), nullptr);
  CatalogWriteOptions wopt;
  wopt.dataset = &d;
  auto expect_same_bytes = [&](const SampleCatalog& catalog,
                               const char* what) {
    ASSERT_TRUE(WriteCatalogPaged(bare, path(), wopt).ok());
    const std::string want = ReadFileBytes(path());
    ASSERT_TRUE(WriteCatalogPaged(catalog, path(), wopt).ok());
    EXPECT_EQ(ReadFileBytes(path()), want) << what;
  };
  expect_same_bytes(published, "published layouts");

  // The writer checks a published layout's grid, domain, value range
  // and order within cells, not which cell holds each entry, so a
  // layout that passes is written as it is: a cell boundary moved by
  // one entry (the two cells still in rung order) reaches the file.
  auto probe = std::make_shared<RungLayout>(*published.layout(2));
  size_t c = 0;
  while (c + 1 < probe->cell_counts.size() &&
         !(probe->cell_counts[c] > 0 &&
           probe->positions[probe->cell_starts[c + 1] - 1] <
               probe->positions[probe->cell_starts[c + 1]])) {
    ++c;
  }
  ASSERT_LT(c + 1, probe->cell_counts.size());
  --probe->cell_counts[c];
  ++probe->cell_counts[c + 1];
  --probe->cell_starts[c + 1];
  SampleCatalog probed(published.samples(),
                       {published.layout(0), published.layout(1), probe});
  ASSERT_TRUE(WriteCatalogPaged(probed, path(), wopt).ok());
  auto store = CatalogStore::Open(path());
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->rung(2).cell_counts, probe->cell_counts);

  // Laid out again: a layout on another grid (the writer asked for
  // another target), one over another dataset's points, and one whose
  // cell is out of rung order.
  wopt.target_entries_per_cell = 16;
  expect_same_bytes(published, "another target");
  wopt.target_entries_per_cell = kDefaultEntriesPerCell;
  Dataset other = test::Skewed(30000, /*seed=*/8);
  std::vector<std::shared_ptr<const RungLayout>> foreign;
  for (const SampleSet& rung : published.samples()) {
    auto layout = LayOutRung(&other, rung);
    ASSERT_TRUE(layout.ok());
    foreign.push_back(*layout);
  }
  ASSERT_FALSE(foreign[2]->domain == published.layout(2)->domain);
  expect_same_bytes(SampleCatalog(published.samples(), foreign),
                    "another dataset");
  auto shuffled = std::make_shared<RungLayout>(*published.layout(2));
  size_t cell = 0;
  while (shuffled->cell_counts[cell] < 2) ++cell;
  auto first = shuffled->positions.begin() +
               static_cast<std::ptrdiff_t>(shuffled->cell_starts[cell]);
  std::reverse(first,
               first + static_cast<std::ptrdiff_t>(shuffled->cell_counts[cell]));
  expect_same_bytes(
      SampleCatalog(published.samples(),
                    {published.layout(0), published.layout(1), shuffled}),
      "a cell out of rung order");
}

TEST_F(CatalogStoreTest, FailedWriteLeavesThePreviousFileIntact) {
  // The writer builds the file beside its destination and renames it
  // into place only once complete, so a write that fails leaves the
  // catalog already there whole.
  Dataset d = test::Skewed(3000);
  SampleCatalog original = Build(d, {100, 800}, /*density=*/true);
  ASSERT_TRUE(WriteCatalogPaged(original, path()).ok());
  const std::string before = ReadFileBytes(path());

  const std::string tmp = path() + ".tmp";
  ASSERT_TRUE(std::filesystem::create_directory(tmp));
  SampleCatalog replacement = Build(d, {50}, /*density=*/false);
  EXPECT_EQ(WriteCatalogPaged(replacement, path()).code(),
            StatusCode::kIoError);
  EXPECT_TRUE(std::filesystem::is_directory(tmp))
      << "the writer removed a path it did not create";
  std::filesystem::remove(tmp);

  EXPECT_EQ(ReadFileBytes(path()), before);
  auto store = CatalogStore::Open(path());
  ASSERT_TRUE(store.ok());
  auto all = (*store)->ReadAll(d.size());
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->samples().size(), original.samples().size());
  for (size_t k = 0; k < original.samples().size(); ++k) {
    EXPECT_EQ(all->samples()[k].ids, original.samples()[k].ids);
    EXPECT_EQ(all->samples()[k].density, original.samples()[k].density);
  }

  // A write that succeeds replaces the file and leaves nothing beside it.
  ASSERT_TRUE(WriteCatalogPaged(replacement, path()).ok());
  EXPECT_FALSE(std::filesystem::exists(tmp));
  auto replaced = CatalogStore::Open(path());
  ASSERT_TRUE(replaced.ok());
  EXPECT_EQ((*replaced)->rung_count(), 1u);
}

TEST_F(CatalogStoreTest, ValueRangeRoundTripsBitExact) {
  Dataset d = test::Skewed(5000);
  ASSERT_TRUE(d.has_values());
  SampleCatalog catalog = Build(d, {100, 1000, 4000}, /*density=*/true);
  CatalogWriteOptions wopt;
  wopt.dataset = &d;
  ASSERT_TRUE(WriteCatalogPaged(catalog, path(), wopt).ok());
  auto store = CatalogStore::Open(path());
  ASSERT_TRUE(store.ok());
  CatalogView view(*store, d.size());
  for (size_t k = 0; k < catalog.samples().size(); ++k) {
    // The scatter renderer's fold: std::min / std::max over the rung's
    // ids in order, from (+inf, -inf).
    double lo = std::numeric_limits<double>::infinity();
    double hi = -lo;
    for (size_t id : catalog.samples()[k].ids) {
      lo = std::min(lo, d.values[id]);
      hi = std::max(hi, d.values[id]);
    }
    const auto fold = d.ValueRange(catalog.samples()[k].ids);
    EXPECT_EQ(Bits(fold.first), Bits(lo));
    EXPECT_EQ(Bits(fold.second), Bits(hi));
    ASSERT_LT(lo, hi);

    const CatalogStore::Rung& rung = (*store)->rung(k);
    ASSERT_TRUE(rung.has_value_range) << "rung " << k;
    EXPECT_EQ(Bits(rung.value_lo), Bits(lo));
    EXPECT_EQ(Bits(rung.value_hi), Bits(hi));
    auto range = view.RungValueRange(k);
    ASSERT_TRUE(range.has_value());
    EXPECT_EQ(Bits(range->first), Bits(lo));
    EXPECT_EQ(Bits(range->second), Bits(hi));
    // A resident view answers from the rung's layout, the same fold.
    auto resident = CatalogView(std::make_shared<const SampleCatalog>(catalog))
                        .RungValueRange(k);
    ASSERT_TRUE(resident.has_value());
    EXPECT_EQ(Bits(resident->first), Bits(lo));
    EXPECT_EQ(Bits(resident->second), Bits(hi));
  }
  // A resident rung without a layout has no range to report.
  CatalogView unlaid(std::make_shared<const SampleCatalog>(
      std::vector<SampleSet>(catalog.samples())));
  EXPECT_FALSE(unlaid.RungValueRange(0).has_value());
}

TEST_F(CatalogStoreTest, WritesWithoutUsableValuesRecordNoRange) {
  Dataset d = test::Skewed(3000);
  SampleCatalog catalog = Build(d, {100, 800}, /*density=*/false);
  auto expect_no_range = [&](const CatalogWriteOptions& wopt) {
    ASSERT_TRUE(WriteCatalogPaged(catalog, path(), wopt).ok());
    auto store = CatalogStore::Open(path());
    ASSERT_TRUE(store.ok());
    CatalogView view(*store, d.size());
    for (size_t k = 0; k < (*store)->rung_count(); ++k) {
      EXPECT_FALSE((*store)->rung(k).has_value_range) << "rung " << k;
      EXPECT_FALSE(view.RungValueRange(k).has_value());
      auto whole = (*store)->MaterializeRung(k, d.size());
      ASSERT_TRUE(whole.ok());
      EXPECT_EQ(whole->ids, catalog.samples()[k].ids);
    }
  };
  expect_no_range(CatalogWriteOptions{});  // no dataset at all

  Dataset valueless = d;
  valueless.values.clear();
  CatalogWriteOptions wopt;
  wopt.dataset = &valueless;
  expect_no_range(wopt);

  // A non-finite value in every rung leaves no finite range to record.
  Dataset infinite = d;
  for (const SampleSet& rung : catalog.samples()) {
    infinite.values[rung.ids[0]] = -std::numeric_limits<double>::infinity();
  }
  wopt.dataset = &infinite;
  expect_no_range(wopt);
}

// ---------------------------------------------------------------------------
// Corruption hardening: every mutation must surface as a Status.

class CatalogStoreCorruptionTest : public CatalogStoreTest {
 protected:
  /// Writes a healthy one-rung paged catalog and returns its bytes.
  std::string WriteHealthy() {
    Dataset d = test::Skewed(2000);
    SampleCatalog catalog = Build(d, {600}, /*density=*/false);
    CatalogWriteOptions wopt;
    wopt.dataset = &d;
    EXPECT_TRUE(WriteCatalogPaged(catalog, path(), wopt).ok());
    return ReadFileBytes(path());
  }

  /// File offset of u64 field `field` of the single rung's metadata
  /// record (0 = count, 1 = flags, ..., 10 = perm_base, 11/12 = the
  /// value range), counted after its length-prefixed method name.
  static size_t RungField(const std::string& bytes, size_t field) {
    const size_t footer = bytes.size() - kFooterBytes;
    const size_t page_size = LoadU64(bytes, footer + 8);
    const size_t meta = LoadU64(bytes, footer + 24) * page_size + 8;
    return meta + 8 + LoadU64(bytes, meta) + 8 * field;
  }

  /// Re-seals the metadata page after a test mutates a rung field.
  static void FixMetaCrc(std::string* bytes) {
    const size_t footer = bytes->size() - kFooterBytes;
    FixPageCrc(bytes, LoadU64(*bytes, footer + 8),
               LoadU64(*bytes, footer + 24));
  }
};

TEST_F(CatalogStoreCorruptionTest, TruncatedFilesAreRejected) {
  std::string bytes = WriteHealthy();
  WriteFileBytes(path(), bytes.substr(0, bytes.size() / 2));
  EXPECT_FALSE(CatalogStore::Open(path()).ok());
  WriteFileBytes(path(), bytes.substr(0, 100));
  EXPECT_EQ(CatalogStore::Open(path()).status().code(),
            StatusCode::kInvalidArgument);
  // Dropping the last byte desynchronizes the footer-implied geometry.
  WriteFileBytes(path(), bytes.substr(0, bytes.size() - 1));
  EXPECT_FALSE(CatalogStore::Open(path()).ok());
}

TEST_F(CatalogStoreCorruptionTest, BitFlippedPayloadFailsChecksumOnTouch) {
  std::string bytes = WriteHealthy();
  // Flip one bit of page 1's payload (the first data page). Open still
  // succeeds — CRCs are lazy — but the first materialization that
  // touches the page must fail, not return wrong ids.
  const size_t page_size = LoadU64(bytes, bytes.size() - kFooterBytes + 8);
  bytes[page_size + 16] = static_cast<char>(bytes[page_size + 16] ^ 0x40);
  WriteFileBytes(path(), bytes);
  auto store = CatalogStore::Open(path());
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->MaterializeRung(0, 0).status().code(),
            StatusCode::kIoError);
}

TEST_F(CatalogStoreCorruptionTest, BitFlippedFooterIsRejected) {
  std::string bytes = WriteHealthy();
  const size_t crc_at = bytes.size() - 8;
  bytes[crc_at] = static_cast<char>(bytes[crc_at] ^ 0x01);
  WriteFileBytes(path(), bytes);
  EXPECT_EQ(CatalogStore::Open(path()).status().code(),
            StatusCode::kIoError);
}

TEST_F(CatalogStoreCorruptionTest, OutOfRangePageDirectoryIsRejected) {
  std::string bytes = WriteHealthy();
  const size_t footer = bytes.size() - kFooterBytes;
  const uint64_t page_count = LoadU64(bytes, footer + 16);
  // Point the metadata region past the end of the file, with a valid
  // footer CRC so the mutation reaches the range check itself.
  StoreU64(&bytes, footer + 24, page_count + 5);
  FixFooterCrc(&bytes);
  WriteFileBytes(path(), bytes);
  EXPECT_EQ(CatalogStore::Open(path()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CatalogStoreCorruptionTest, OversizedCellCountsAreRejected) {
  std::string bytes = WriteHealthy();
  const size_t footer = bytes.size() - kFooterBytes;
  const size_t page_size = LoadU64(bytes, footer + 8);
  const size_t meta_first = LoadU64(bytes, footer + 24);
  const size_t meta_offset = meta_first * page_size;
  uint32_t payload_len = 0;
  std::memcpy(&payload_len, bytes.data() + meta_offset + 4,
              sizeof(payload_len));
  ASSERT_GE(payload_len, 8u);
  // The rung's cell counts are the tail of the metadata stream; blow
  // the last one up and re-seal the page so only the semantic check
  // can catch it.
  StoreU64(&bytes, meta_offset + 8 + payload_len - 8, uint64_t{1} << 40);
  FixPageCrc(&bytes, page_size, meta_first);
  WriteFileBytes(path(), bytes);
  EXPECT_EQ(CatalogStore::Open(path()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CatalogStoreCorruptionTest, UnknownRungFlagsAreRejected) {
  const std::string healthy = WriteHealthy();
  ASSERT_EQ(LoadU64(healthy, RungField(healthy, 1)), 2u)
      << "the healthy rung records a value range and no density";
  const uint64_t unknown[] = {4, 5, 8, uint64_t{1} << 63};
  for (uint64_t flags : unknown) {
    std::string bytes = healthy;
    StoreU64(&bytes, RungField(bytes, 1), flags);
    FixMetaCrc(&bytes);
    WriteFileBytes(path(), bytes);
    EXPECT_EQ(CatalogStore::Open(path()).status().code(),
              StatusCode::kInvalidArgument)
        << "flags " << flags;
  }
}

TEST_F(CatalogStoreCorruptionTest, InvalidValueRangesAreRejected) {
  const std::string healthy = WriteHealthy();
  ASSERT_TRUE(CatalogStore::Open(path()).ok());
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<double, double>> ranges = {
      {nan, 1.0}, {0.0, nan}, {-inf, 1.0}, {0.0, inf}, {2.0, 1.0}};
  for (const auto& [lo, hi] : ranges) {
    std::string bytes = healthy;
    StoreU64(&bytes, RungField(bytes, 11), Bits(lo));
    StoreU64(&bytes, RungField(bytes, 12), Bits(hi));
    FixMetaCrc(&bytes);
    WriteFileBytes(path(), bytes);
    EXPECT_EQ(CatalogStore::Open(path()).status().code(),
              StatusCode::kInvalidArgument)
        << "range [" << lo << ", " << hi << "]";
  }
  // A degenerate but finite range is valid.
  std::string bytes = healthy;
  StoreU64(&bytes, RungField(bytes, 11), Bits(1.5));
  StoreU64(&bytes, RungField(bytes, 12), Bits(1.5));
  FixMetaCrc(&bytes);
  WriteFileBytes(path(), bytes);
  EXPECT_TRUE(CatalogStore::Open(path()).ok());
}

TEST_F(CatalogStoreCorruptionTest, BadPositionsAreRejectedByEveryRead) {
  // A cell-range load, a whole-rung load and a read-back of every rung
  // all reject a rung whose permutation is not one. The rung spans two
  // pages of positions, and the whole-rung reads take one page of slots
  // at a time, so each bad position is tried in the first and in the
  // second page.
  const std::string healthy = WriteHealthy();
  auto store = CatalogStore::Open(path());
  ASSERT_TRUE(store.ok());
  const CatalogStore::Rung rung = (*store)->rung(0);
  const size_t page_size = (*store)->page_size();
  const size_t slots_per_page = (page_size - 8) / 8;
  ASSERT_GT(rung.count, slots_per_page);
  auto slot_offset = [&](uint64_t slot) {
    return (1 + slot / slots_per_page) * page_size + 8 +
           (slot % slots_per_page) * 8;
  };
  auto page_of = [&](uint64_t slot) { return 1 + slot / slots_per_page; };
  const Rect query = rung.domain;

  auto expect_rejected = [&](const std::string& bytes) {
    WriteFileBytes(path(), bytes);
    auto damaged = CatalogStore::Open(path());
    ASSERT_TRUE(damaged.ok());
    EXPECT_EQ((*damaged)->MaterializeCells(0, query, 0).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ((*damaged)->MaterializeRung(0, 0).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ((*damaged)->ReadAll(0).status().code(),
              StatusCode::kInvalidArgument);
  };
  for (const uint64_t entry : {uint64_t{1}, rung.count - 1}) {
    SCOPED_TRACE("entry " + std::to_string(entry));
    const uint64_t slot = rung.perm_base + entry;
    // A position past the end of the rung.
    std::string bytes = healthy;
    StoreU64(&bytes, slot_offset(slot), rung.count);
    FixPageCrc(&bytes, page_size, page_of(slot));
    expect_rejected(bytes);

    // Two entries claiming the same position.
    bytes = healthy;
    StoreU64(&bytes, slot_offset(slot),
             LoadU64(bytes, slot_offset(rung.perm_base)));
    FixPageCrc(&bytes, page_size, page_of(slot));
    expect_rejected(bytes);
  }
}

}  // namespace
}  // namespace vas
