// CatalogManager: the async catalog service — registration, status
// polling, progressive serving through InteractiveSession, the
// headline property (over a 1M-point dataset the smallest rung is
// servable while the largest is still building), and the persistence
// lifecycle: save/load, memory-budget LRU eviction to spill files,
// transparent reload on the next access, and spill writes that fail.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/parallel.h"
#include "engine/catalog_manager.h"
#include "engine/catalog_store.h"
#include "engine/session.h"
#include "sampling/uniform_sampler.h"
#include "test_util.h"
#include "util/crc32.h"

namespace vas {
namespace {

/// Delegates to the uniform sampler but blocks rungs of at least
/// `gate_at_k` points until the test releases the gate — making "the
/// largest rung has not finished yet" deterministic instead of a race.
class GatedSampler : public Sampler {
 public:
  GatedSampler(uint64_t seed, size_t gate_at_k,
               std::shared_future<void> gate)
      : inner_(seed), gate_at_k_(gate_at_k), gate_(std::move(gate)) {}

  SampleSet Sample(const Dataset& dataset, size_t k) override {
    if (k >= gate_at_k_) gate_.wait();
    return inner_.Sample(dataset, k);
  }
  std::string name() const override { return "gated-uniform"; }

 private:
  UniformReservoirSampler inner_;
  size_t gate_at_k_;
  std::shared_future<void> gate_;
};

/// Releases the gate on destruction so a failing ASSERT cannot leave
/// the manager's destructor deadlocked on a forever-blocked rung task.
class Gate {
 public:
  Gate() : future_(promise_.get_future().share()) {}
  ~Gate() { Release(); }
  std::shared_future<void> future() const { return future_; }
  void Release() {
    if (!released_) {
      released_ = true;
      promise_.set_value();
    }
  }

 private:
  std::promise<void> promise_;
  std::shared_future<void> future_;
  bool released_ = false;
};

SamplerFactory GatedFactory(uint64_t seed, size_t gate_at_k,
                            const Gate& gate) {
  std::shared_future<void> f = gate.future();
  return [seed, gate_at_k, f]() {
    return std::make_unique<GatedSampler>(seed, gate_at_k, f);
  };
}

/// One of `manager`'s event counts, read from its registry by metric
/// name (the way /status reads it).
int64_t Count(const CatalogManager& manager, const std::string& metric) {
  return manager.metrics_registry()->Total(metric);
}

SamplerFactory UniformFactory(uint64_t seed) {
  return [seed]() { return std::make_unique<UniformReservoirSampler>(seed); };
}

SampleCatalog::Options NoDensityLadder(std::vector<size_t> ladder) {
  SampleCatalog::Options opt;
  opt.ladder = std::move(ladder);
  opt.embed_density = false;
  return opt;
}

/// Eviction by spill completes asynchronously: the ladder stays
/// resident (and servable) until the off-lock spill write lands,
/// possibly on a pool thread. Tests asserting "over budget, therefore
/// evicted" must wait out that window, not race it.
bool EvictedWithin(const CatalogManager& manager, const CatalogKey& key,
                   std::chrono::seconds deadline = std::chrono::seconds(10)) {
  auto until = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < until) {
    auto status = manager.GetStatus(key);
    if (!status.ok()) return false;
    if (!status->resident) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

TEST(CatalogManagerTest, RegistrationAndStatusLifecycle) {
  CatalogManager manager(2);
  CatalogKey key{"geo", "x", "y"};
  EXPECT_EQ(manager.GetStatus(key).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(manager.Snapshot(key).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(manager.WaitForFirstRung(key).status().code(),
            StatusCode::kNotFound);

  auto d = std::make_shared<Dataset>(test::Skewed(2000));
  d->CacheBounds();
  ASSERT_TRUE(manager
                  .StartBuild(key, d, UniformFactory(1),
                              NoDensityLadder({100, 500}))
                  .ok());
  // Re-registering the same column pair is an error.
  EXPECT_FALSE(manager
                   .StartBuild(key, d, UniformFactory(1),
                               NoDensityLadder({100}))
                   .ok());

  auto catalog = manager.WaitUntilDone(key);
  ASSERT_TRUE(catalog.ok());
  EXPECT_EQ((*catalog)->samples().size(), 2u);
  auto status = manager.GetStatus(key);
  ASSERT_TRUE(status.ok());
  EXPECT_TRUE(status->done);
  EXPECT_EQ(status->rungs_ready, 2u);
  EXPECT_EQ(status->rungs_total, 2u);

  EXPECT_EQ(manager.GetStatus(CatalogKey{"other"}).status().code(),
            StatusCode::kNotFound);
}

TEST(CatalogManagerTest, SnapshotUnavailableBeforeFirstRung) {
  CatalogManager manager(1);
  CatalogKey key{"geo"};
  auto d = std::make_shared<Dataset>(test::Skewed(500));
  Gate gate;
  // Gate everything: no rung can land until released.
  ASSERT_TRUE(manager
                  .StartBuild(key, d, GatedFactory(2, 0, gate),
                              NoDensityLadder({50, 200}))
                  .ok());
  auto early = manager.Snapshot(key);
  EXPECT_EQ(early.status().code(), StatusCode::kFailedPrecondition);
  auto status = manager.GetStatus(key);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->rungs_ready, 0u);
  EXPECT_FALSE(status->done);

  gate.Release();
  ASSERT_TRUE(manager.WaitUntilDone(key).ok());
  EXPECT_TRUE(manager.Snapshot(key).ok());
}

TEST(CatalogManagerTest, ManagesMultipleColumnPairs) {
  CatalogManager manager(4);
  auto geo = std::make_shared<Dataset>(test::Skewed(3000));
  auto splom = std::make_shared<Dataset>(test::Splom(3000));
  CatalogKey k1{"geo", "x", "y"};
  CatalogKey k2{"splom", "c0", "c1"};
  ASSERT_TRUE(manager
                  .StartBuild(k1, geo, UniformFactory(3),
                              NoDensityLadder({100, 1000}))
                  .ok());
  ASSERT_TRUE(manager
                  .StartBuild(k2, splom, UniformFactory(4),
                              NoDensityLadder({50, 500, 2000}))
                  .ok());
  auto c1 = manager.WaitUntilDone(k1);
  auto c2 = manager.WaitUntilDone(k2);
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  EXPECT_EQ((*c1)->samples().size(), 2u);
  EXPECT_EQ((*c2)->samples().size(), 3u);
  EXPECT_TRUE(manager.GetStatus(k1).ok());
  EXPECT_TRUE(manager.GetStatus(k2).ok());
  EXPECT_EQ(manager.GetStatus(CatalogKey{"geo", "c0", "c1"}).status().code(),
            StatusCode::kNotFound);
}

// The acceptance property for the async refactor: with a >=1M-point
// dataset, the catalog serves its first (smallest) rung while the
// largest rung is provably still building.
TEST(CatalogManagerTest, MillionPointBuildServesSmallestRungFirst) {
  constexpr size_t kMillion = 1000000;
  auto d = std::make_shared<Dataset>(test::Skewed(kMillion));
  d->CacheBounds();
  ASSERT_GE(d->size(), kMillion);

  // One worker: rungs run FIFO smallest-first, so the first published
  // snapshot deterministically holds the 1,000-point rung.
  CatalogManager manager(1);
  CatalogKey key{"geolife", "x", "y"};
  Gate gate;  // holds back only the largest rung
  ASSERT_TRUE(manager
                  .StartBuild(key, d, GatedFactory(5, kMillion / 2, gate),
                              NoDensityLadder({1000, 10000, kMillion / 2}))
                  .ok());

  // First rung becomes servable while the largest is still gated.
  auto first = manager.WaitForFirstRung(key);
  ASSERT_TRUE(first.ok());
  ASSERT_GE((*first)->samples().size(), 1u);
  EXPECT_EQ((*first)->samples()[0].size(), 1000u);
  auto mid_build = manager.GetStatus(key);
  ASSERT_TRUE(mid_build.ok());
  EXPECT_FALSE(mid_build->done);  // the 500k rung cannot have finished
  EXPECT_LT(mid_build->rungs_ready, mid_build->rungs_total);

  // A session answers real plot requests from the partial ladder.
  InteractiveSession session(d, &manager, key, VizTimeModel{1e-6, 0.0});
  InteractiveSession::PlotRequest req;
  req.time_budget_seconds = 3600.0;  // everything built would fit
  auto plot = session.RequestPlot(req);
  EXPECT_GE(plot.sample_points_in_viewport, 1000u);
  EXPECT_LE(plot.catalog_sample_size, 10000u);  // largest rung absent
  EXPECT_LT(plot.catalog_rungs_ready, plot.catalog_rungs_total);

  // Release the gate: the ladder completes and the same session now
  // upgrades to the 500k rung without being rebuilt.
  gate.Release();
  ASSERT_TRUE(manager.WaitUntilDone(key).ok());
  auto upgraded = session.RequestPlot(req);
  EXPECT_EQ(upgraded.catalog_sample_size, kMillion / 2);
  EXPECT_EQ(upgraded.catalog_rungs_ready, upgraded.catalog_rungs_total);
}

TEST(CatalogManagerTest, SessionBlocksOnlyUntilFirstRung) {
  CatalogManager manager(1);
  CatalogKey key{"geo"};
  auto d = std::make_shared<Dataset>(test::Skewed(5000));
  d->CacheBounds();
  Gate gate;  // gate all rungs
  ASSERT_TRUE(manager
                  .StartBuild(key, d, GatedFactory(6, 0, gate),
                              NoDensityLadder({100, 2000}))
                  .ok());
  InteractiveSession session(d, &manager, key, VizTimeModel{1e-6, 0.0});

  // RequestPlot from another thread: it must stay blocked while no rung
  // exists, then produce a plot as soon as the first rung lands.
  InteractiveSession::PlotRequest req;
  req.time_budget_seconds = 3600.0;
  auto pending = std::async(std::launch::async,
                            [&]() { return session.RequestPlot(req); });
  EXPECT_EQ(pending.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  gate.Release();
  auto plot = pending.get();
  EXPECT_GE(plot.sample_points_in_viewport, 100u);
}

TEST(CatalogManagerTest, SessionOfADroppedKeyGetsNotFound) {
  // A session can outlive its key: PlotService hands a table's session
  // out before a concurrent DropTable lands. Plot then answers NotFound
  // instead of aborting the process.
  CatalogManager manager(1);
  CatalogKey key{"geo"};
  auto d = std::make_shared<Dataset>(test::Skewed(3000));
  d->CacheBounds();
  ASSERT_TRUE(manager
                  .StartBuild(key, d, UniformFactory(9),
                              NoDensityLadder({100, 500}))
                  .ok());
  ASSERT_TRUE(manager.WaitUntilDone(key).ok());
  InteractiveSession session(d, &manager, key, VizTimeModel{1e-6, 0.0});
  InteractiveSession::PlotRequest req;
  auto served = session.Plot(req);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->catalog_rungs_ready, 2u);

  ASSERT_TRUE(manager.Drop(key).ok());
  auto dropped = session.Plot(req);
  EXPECT_EQ(dropped.status().code(), StatusCode::kNotFound)
      << dropped.status().ToString();
}

TEST(CatalogManagerTest, RejectsNullDataset) {
  CatalogManager manager(1);
  EXPECT_FALSE(manager
                   .StartBuild(CatalogKey{"t"}, nullptr, UniformFactory(7),
                               NoDensityLadder({10}))
                   .ok());
}

// ---------------------------------------------------------------------------
// Persistence lifecycle: save, load, evict under budget, reload.

TEST(CatalogManagerTest, SaveThenLoadServesIdenticalLadder) {
  test::ScopedTempFile file("vas_manager_saved.vascat");
  auto d = std::make_shared<Dataset>(test::Skewed(2000));
  d->CacheBounds();
  CatalogKey key{"geo", "x", "y"};

  CatalogManager builder_side(2);
  ASSERT_TRUE(builder_side
                  .StartBuild(key, d, UniformFactory(9),
                              NoDensityLadder({100, 800}))
                  .ok());
  ASSERT_TRUE(builder_side.SaveCatalog(key, file.path()).ok());
  auto built = builder_side.WaitUntilDone(key);
  ASSERT_TRUE(built.ok());

  // A fresh manager (think: a restarted server) loads the file and
  // serves the exact same ladder without rebuilding.
  CatalogManager serving_side(1);
  ASSERT_TRUE(serving_side.LoadCatalog(key, d, file.path()).ok());
  auto loaded = serving_side.Snapshot(key);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ((*loaded)->samples().size(), (*built)->samples().size());
  for (size_t r = 0; r < (*built)->samples().size(); ++r) {
    EXPECT_EQ((*loaded)->samples()[r].ids, (*built)->samples()[r].ids);
  }
  auto status = serving_side.GetStatus(key);
  ASSERT_TRUE(status.ok());
  EXPECT_TRUE(status->done);
  EXPECT_TRUE(status->resident);
  EXPECT_EQ(status->rungs_total, 2u);
}

TEST(CatalogManagerTest, SaveCatalogOfUnknownKeyIsNotFound) {
  CatalogManager manager(1);
  EXPECT_EQ(manager.SaveCatalog(CatalogKey{"nope"}, "/tmp/x").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(manager
                .LoadCatalog(CatalogKey{"nope"}, nullptr,
                             "/nonexistent/file.vascat")
                .code(),
            StatusCode::kIoError);

  // A retired CAT1 file is refused as a file problem, with or without a
  // dataset, and registers nothing.
  test::ScopedTempFile cat1("vas_manager_cat1.vascat");
  auto d = std::make_shared<Dataset>(test::Skewed(2000));
  UniformReservoirSampler sampler(3);
  SampleCatalog catalog(*d, sampler, NoDensityLadder({100, 800}));
  ASSERT_TRUE(test::WriteCatalogV1(catalog, cat1.path()).ok());
  for (const auto& dataset : {std::shared_ptr<Dataset>(), d}) {
    Status refused = manager.LoadCatalog(CatalogKey{"nope"}, dataset,
                                         cat1.path());
    EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(refused.ToString().find("not a CAT2 catalog"),
              std::string::npos)
        << refused.ToString();
  }
  EXPECT_EQ(manager.GetStatus(CatalogKey{"nope"}).status().code(),
            StatusCode::kNotFound);
}

TEST(CatalogManagerTest, AddCatalogValidatesAgainstDataset) {
  CatalogManager manager(1);
  auto d = std::make_shared<Dataset>(test::Skewed(100));
  SampleSet rung;
  rung.method = "bogus";
  rung.ids = {0, 5, 1000};  // 1000 is out of range for 100 rows
  EXPECT_EQ(manager
                .AddCatalog(CatalogKey{"t"}, d,
                            SampleCatalog({rung}))
                .code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(manager.AddCatalog(CatalogKey{"t"}, d, SampleCatalog({})).code(),
            StatusCode::kInvalidArgument);
}

TEST(CatalogManagerTest, EvictsLruUnderBudgetAndReloadsOnAccess) {
  auto d = std::make_shared<Dataset>(test::Skewed(4000));
  d->CacheBounds();
  CatalogManager::Options options;
  options.num_threads = 2;
  // Roomy enough for one ~{100,800}-rung ladder, not for two.
  options.memory_budget_bytes = 12 * 1024;
  CatalogManager manager(options);

  CatalogKey k1{"first"};
  CatalogKey k2{"second"};
  ASSERT_TRUE(manager
                  .StartBuild(k1, d, UniformFactory(1),
                              NoDensityLadder({100, 800}))
                  .ok());
  auto before = manager.WaitUntilDone(k1);
  ASSERT_TRUE(before.ok());
  std::vector<std::vector<size_t>> pre_evict_ids;
  for (const SampleSet& s : (*before)->samples()) {
    pre_evict_ids.push_back(s.ids);
  }

  ASSERT_TRUE(manager
                  .StartBuild(k2, d, UniformFactory(2),
                              NoDensityLadder({100, 800}))
                  .ok());
  ASSERT_TRUE(manager.WaitUntilDone(k2).ok());

  // Finalizing k2 pushed the total over budget: k1 (least recently
  // used) must be spilled — asynchronously, so wait for the write.
  ASSERT_TRUE(EvictedWithin(manager, k1));
  auto s2 = manager.GetStatus(k2);
  ASSERT_TRUE(s2.ok());
  EXPECT_TRUE(s2->resident);
  auto stats = manager.memory_stats();
  EXPECT_GE(Count(manager, "vas_catalog_evictions_total"), 1);
  EXPECT_LE(stats.resident_bytes, stats.budget_bytes);

  // The next access reloads k1 transparently and serves the exact rung
  // ids the pre-evict snapshot held.
  auto after = manager.Snapshot(k1);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ((*after)->samples().size(), pre_evict_ids.size());
  for (size_t r = 0; r < pre_evict_ids.size(); ++r) {
    EXPECT_EQ((*after)->samples()[r].ids, pre_evict_ids[r]);
  }
  EXPECT_GE(Count(manager, "vas_catalog_reloads_total"), 1);
}

TEST(CatalogManagerTest, ManagerBackedSessionSurvivesEvictReloadCycle) {
  auto d = std::make_shared<Dataset>(test::Skewed(3000));
  d->CacheBounds();
  CatalogManager::Options options;
  options.num_threads = 1;
  options.memory_budget_bytes = 12 * 1024;
  CatalogManager manager(options);

  CatalogKey key{"session"};
  ASSERT_TRUE(manager
                  .StartBuild(key, d, UniformFactory(3),
                              NoDensityLadder({200, 1000}))
                  .ok());
  ASSERT_TRUE(manager.WaitUntilDone(key).ok());
  InteractiveSession session(d, &manager, key, VizTimeModel{1e-6, 0.0});
  InteractiveSession::PlotRequest req;
  req.time_budget_seconds = 3600.0;
  const Rect b = d->Bounds();
  req.viewport = Rect::Of(b.min_x, b.min_y, b.Center().x, b.Center().y);
  auto first = session.RequestPlot(req);
  EXPECT_EQ(first.catalog_sample_size, 1000u);
  auto served = manager.Snapshot(key);
  ASSERT_TRUE(served.ok());
  size_t inside = 0;
  for (size_t id : (*served)->samples().back().ids) {
    inside += req.viewport.Contains(d->points[id]) ? 1 : 0;
  }
  EXPECT_EQ(first.sample_points_in_viewport, inside);

  // Force the session's ladder out of memory, then plot again: the
  // session must transparently reload and count the same tuples from
  // the layout read back with it.
  CatalogKey other{"other"};
  ASSERT_TRUE(manager
                  .StartBuild(other, d, UniformFactory(4),
                              NoDensityLadder({200, 1000}))
                  .ok());
  ASSERT_TRUE(manager.WaitUntilDone(other).ok());
  ASSERT_TRUE(manager.Snapshot(other).ok());  // touch: session key is LRU
  ASSERT_TRUE(EvictedWithin(manager, key));

  auto again = session.RequestPlot(req);
  EXPECT_EQ(again.catalog_sample_size, first.catalog_sample_size);
  EXPECT_EQ(again.sample_points_in_viewport, inside);
  EXPECT_GE(Count(manager, "vas_catalog_reloads_total"), 1);
}

TEST(CatalogManagerTest, ConcurrentSnapshotsDuringEvictionAreSafe) {
  // Three catalogs under a budget that fits roughly one: every access
  // can trigger an evict (of someone else) + reload. Hammer Snapshot
  // from several threads; under TSan this also proves the transitions
  // are race-free, and every caller must always see a complete ladder.
  auto d = std::make_shared<Dataset>(test::Skewed(2000));
  d->CacheBounds();
  CatalogManager::Options options;
  options.num_threads = 2;
  options.memory_budget_bytes = 8 * 1024;
  CatalogManager manager(options);

  std::vector<CatalogKey> keys = {CatalogKey{"a"}, CatalogKey{"b"},
                                  CatalogKey{"c"}};
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(manager
                    .StartBuild(keys[i], d, UniformFactory(10 + i),
                                NoDensityLadder({100, 600}))
                    .ok());
    ASSERT_TRUE(manager.WaitUntilDone(keys[i]).ok());
  }
  // Finishing "b" spilled "a", possibly on a pool thread; wait out that
  // write so the threads below start from a spilled key, and the first
  // access to it reloads.
  ASSERT_TRUE(EvictedWithin(manager, keys[0]));

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < 50; ++i) {
        const CatalogKey& key = keys[(t + i) % keys.size()];
        auto snapshot = manager.Snapshot(key);
        if (!snapshot.ok() || (*snapshot)->samples().size() != 2u) {
          failed = true;
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_GE(Count(manager, "vas_catalog_evictions_total"), 1);
  EXPECT_GE(Count(manager, "vas_catalog_reloads_total"), 1);
}

TEST(CatalogManagerTest, FinishedBuildsEnterAccountingWithoutAnyAccess) {
  // The memory budget must see builds that finish but are never
  // queried: a finalize task queued behind the rung tasks folds the
  // ladder into the residency accounting on its own.
  CatalogManager manager(1);
  auto d = std::make_shared<Dataset>(test::Skewed(1000));
  d->CacheBounds();
  ASSERT_TRUE(manager
                  .StartBuild(CatalogKey{"idle"}, d, UniformFactory(8),
                              NoDensityLadder({100, 500}))
                  .ok());
  // No Snapshot/Wait* call anywhere: the accounting must still appear.
  for (int i = 0; i < 500 && manager.memory_stats().resident_bytes == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(manager.memory_stats().resident_bytes, 0u);
  auto status = manager.GetStatus(CatalogKey{"idle"});
  ASSERT_TRUE(status.ok());
  EXPECT_TRUE(status->done);
  EXPECT_TRUE(status->resident);
  EXPECT_GT(status->memory_bytes, 0u);
}

TEST(CatalogManagerTest, CollidingSanitizedKeysSpillToDistinctFiles) {
  // "t:1" and "t_1" flatten to the same filename fragment; the spill
  // paths must still be distinct or the two ladders would overwrite
  // each other on disk and reload each other's samples.
  auto d = std::make_shared<Dataset>(test::Skewed(2000));
  d->CacheBounds();
  CatalogManager::Options options;
  options.num_threads = 1;
  options.memory_budget_bytes = 1;  // evict everything not in use
  CatalogManager manager(options);

  CatalogKey colon{"t:1"};
  CatalogKey underscore{"t_1"};
  ASSERT_TRUE(manager
                  .StartBuild(colon, d, UniformFactory(21),
                              NoDensityLadder({100, 400}))
                  .ok());
  ASSERT_TRUE(manager
                  .StartBuild(underscore, d, UniformFactory(22),
                              NoDensityLadder({100, 400}))
                  .ok());
  auto colon_before = manager.WaitUntilDone(colon);
  auto underscore_before = manager.WaitUntilDone(underscore);
  ASSERT_TRUE(colon_before.ok());
  ASSERT_TRUE(underscore_before.ok());
  // Different seeds: the two ladders genuinely differ.
  ASSERT_NE((*colon_before)->samples()[0].ids,
            (*underscore_before)->samples()[0].ids);

  // Bounce both through spill + reload a few times; each must always
  // come back with its own ids. Spill writes land asynchronously, so
  // wait for each eviction before snapshotting — otherwise a slow
  // write (TSan) lets the snapshot serve the still-resident ladder
  // and the round never exercises the reload at all.
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(EvictedWithin(manager, colon));
    auto colon_after = manager.Snapshot(colon);
    ASSERT_TRUE(colon_after.ok());
    EXPECT_EQ((*colon_after)->samples()[0].ids,
              (*colon_before)->samples()[0].ids);
    ASSERT_TRUE(EvictedWithin(manager, underscore));
    auto underscore_after = manager.Snapshot(underscore);
    ASSERT_TRUE(underscore_after.ok());
    EXPECT_EQ((*underscore_after)->samples()[0].ids,
              (*underscore_before)->samples()[0].ids);
  }
  EXPECT_GE(Count(manager, "vas_catalog_evictions_total"), 2);
}

TEST(CatalogManagerTest, DropUnregistersAndAllowsReRegistration) {
  CatalogManager manager(1);
  CatalogKey key{"geo"};
  auto d = std::make_shared<Dataset>(test::Skewed(500));
  d->CacheBounds();
  ASSERT_TRUE(manager
                  .StartBuild(key, d, UniformFactory(1),
                              NoDensityLadder({50}))
                  .ok());
  ASSERT_TRUE(manager.WaitUntilDone(key).ok());
  // A snapshot handed out before Drop stays valid afterwards.
  auto held = manager.Snapshot(key);
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(manager.Drop(key).ok());
  EXPECT_EQ(manager.Snapshot(key).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(manager.Drop(key).code(), StatusCode::kNotFound);
  EXPECT_EQ((*held)->samples().size(), 1u);
  // The key is free again.
  EXPECT_TRUE(manager
                  .StartBuild(key, d, UniformFactory(2),
                              NoDensityLadder({50}))
                  .ok());
}

// Regression for the pool re-entrancy deadlock: a rung build task runs
// on the manager's pool and its sampler shards onto that same pool.
// Before ParallelInterchangeSampler learned to run shards inline when
// already on a worker, shards >= free workers deadlocked the build.
TEST(CatalogManagerTest, RungBuildMayShardOntoTheManagersOwnPool) {
  auto d = std::make_shared<Dataset>(test::Skewed(3000));
  d->CacheBounds();
  CatalogManager manager(1);  // one worker: zero free workers mid-rung
  ParallelInterchangeSampler::Options popt;
  popt.num_shards = 4;
  popt.base.max_passes = 1;
  popt.pool = &manager.pool();
  SamplerFactory factory = [popt]() {
    return std::make_unique<ParallelInterchangeSampler>(popt);
  };
  CatalogKey key{"sharded"};
  ASSERT_TRUE(manager
                  .StartBuild(key, d, std::move(factory),
                              NoDensityLadder({64, 256}))
                  .ok());
  auto catalog = manager.WaitUntilDone(key);
  ASSERT_TRUE(catalog.ok());
  ASSERT_EQ((*catalog)->samples().size(), 2u);
  EXPECT_EQ((*catalog)->samples()[0].size(), 64u);
  EXPECT_EQ((*catalog)->samples()[1].size(), 256u);
}

// Regression for on-lock spill writes (roadmap item): eviction used to
// serialize the victim's ladder to the spill file while holding the
// manager mutex, stalling every other key's access for the write's
// duration. Spills now run off-lock: victims are selected under the
// mutex, written with no lock held, and completed under a brief
// re-lock. These tests hammer the off-lock window — under TSan they
// are the race check for the spilling/spill_valid state machine.
TEST(CatalogManagerTest, ConcurrentAccessAcrossKeysWhileSpillsAreInFlight) {
  // Budget fits one of four ladders, so nearly every access evicts a
  // different key (queueing an off-lock write) and reloads its own.
  // Every thread must always observe complete, correct ladders.
  auto d = std::make_shared<Dataset>(test::Skewed(6000));
  d->CacheBounds();
  CatalogManager::Options options;
  options.num_threads = 2;
  options.memory_budget_bytes = 24 * 1024;
  CatalogManager manager(options);

  std::vector<CatalogKey> keys;
  std::vector<std::vector<size_t>> smallest_rung_ids;
  for (int i = 0; i < 4; ++i) {
    keys.push_back(CatalogKey{"spill" + std::to_string(i)});
    ASSERT_TRUE(manager
                    .StartBuild(keys.back(), d, UniformFactory(20 + i),
                                NoDensityLadder({200, 1500}))
                    .ok());
    auto built = manager.WaitUntilDone(keys.back());
    ASSERT_TRUE(built.ok());
    smallest_rung_ids.push_back((*built)->samples()[0].ids);
  }

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 6; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < 40; ++i) {
        size_t at = (t + i) % keys.size();
        auto snapshot = manager.Snapshot(keys[at]);
        if (!snapshot.ok() || (*snapshot)->samples().size() != 2u ||
            (*snapshot)->samples()[0].ids != smallest_rung_ids[at]) {
          failed = true;
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(failed.load());
  auto stats = manager.memory_stats();
  EXPECT_GE(Count(manager, "vas_catalog_evictions_total"), 3);
  EXPECT_GE(Count(manager, "vas_catalog_reloads_total"), 3);
  EXPECT_LE(stats.resident_bytes,
            stats.budget_bytes + 2 * 24 * 1024)
      << "residency may transiently exceed budget while writes are in "
         "flight, but never unboundedly";
}

// ---------------------------------------------------------------------------
// Paged (CAT2) backing: mmap'd loads, write-free eviction, partial
// views, and corrupt-backing isolation.

TEST(CatalogManagerTest, MappedCatalogEvictsWithoutRewritingItsSpill) {
  // A catalog whose CAT2 backing is current never pays a spill write:
  // eviction just drops the resident ladder and keeps the mapping.
  test::ScopedTempFile file("vas_manager_mapped.vascat");
  auto d = std::make_shared<Dataset>(test::Skewed(3000));
  d->CacheBounds();
  CatalogKey key{"mapped"};

  CatalogManager builder_side(2);
  ASSERT_TRUE(builder_side
                  .StartBuild(key, d, UniformFactory(31),
                              NoDensityLadder({100, 800}))
                  .ok());
  ASSERT_TRUE(builder_side.SaveCatalog(key, file.path()).ok());
  auto built = builder_side.WaitUntilDone(key);
  ASSERT_TRUE(built.ok());

  // Two keys served from the same CAT2 file under a budget that fits
  // neither: every access evicts the other key, and since both
  // backings are always current, no eviction ever writes a file.
  CatalogKey other{"mapped-too"};
  CatalogManager::Options options;
  options.num_threads = 1;
  options.memory_budget_bytes = 1;  // evict everything not in use
  CatalogManager manager(options);
  ASSERT_TRUE(manager.LoadCatalog(key, d, file.path()).ok());
  ASSERT_TRUE(manager.LoadCatalog(other, d, file.path()).ok());
  auto status = manager.GetStatus(key);
  ASSERT_TRUE(status.ok());
  EXPECT_TRUE(status->mapped) << "a CAT2 load should mmap, not read";
  EXPECT_GT(manager.memory_stats().mapped_bytes, 0u);
  EXPECT_EQ(Count(manager, "vas_catalog_spill_writes_total"), 0);

  for (int round = 0; round < 3; ++round) {
    for (const CatalogKey& k : {key, other}) {
      auto snapshot = manager.Snapshot(k);
      ASSERT_TRUE(snapshot.ok());
      ASSERT_EQ((*snapshot)->samples().size(), 2u);
      EXPECT_EQ((*snapshot)->samples()[0].ids, (*built)->samples()[0].ids);
      EXPECT_EQ((*snapshot)->samples()[1].ids, (*built)->samples()[1].ids);
    }
  }
  EXPECT_GE(Count(manager, "vas_catalog_evictions_total"), 2);
  EXPECT_EQ(Count(manager, "vas_catalog_spill_writes_total"), 0)
      << "evicting a catalog with current CAT2 backing must be free";

  // A built (never-saved) ladder has no backing yet, so its first
  // eviction does pay exactly one write; later ones are free again.
  CatalogKey fresh{"fresh"};
  ASSERT_TRUE(manager
                  .StartBuild(fresh, d, UniformFactory(32),
                              NoDensityLadder({100, 800}))
                  .ok());
  ASSERT_TRUE(manager.WaitUntilDone(fresh).ok());
  ASSERT_TRUE(manager.Snapshot(key).ok());  // evicts "fresh": must spill
  for (int i = 0;
       i < 500 && Count(manager, "vas_catalog_spill_writes_total") == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(Count(manager, "vas_catalog_spill_writes_total"), 1);
}

TEST(CatalogManagerTest, ViewForServesSpilledCatalogsWithoutReloading) {
  auto d = std::make_shared<Dataset>(test::Skewed(50000));
  d->CacheBounds();
  CatalogManager::Options options;
  options.num_threads = 1;
  options.memory_budget_bytes = 1;
  CatalogManager manager(options);
  CatalogKey key{"viewed"};
  CatalogKey pusher{"pusher"};
  ASSERT_TRUE(manager
                  .StartBuild(key, d, UniformFactory(41),
                              NoDensityLadder({200, 20000}))
                  .ok());
  auto built = manager.WaitUntilDone(key);
  ASSERT_TRUE(built.ok());
  // A second key's access makes "viewed" the eviction victim; wait out
  // the off-lock spill write, after which only the CAT2 backing
  // remains.
  ASSERT_TRUE(manager
                  .StartBuild(pusher, d, UniformFactory(42),
                              NoDensityLadder({100}))
                  .ok());
  ASSERT_TRUE(manager.WaitUntilDone(pusher).ok());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(manager.Snapshot(pusher).ok());
    auto status = manager.GetStatus(key);
    ASSERT_TRUE(status.ok());
    if (!status->resident) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_FALSE(manager.GetStatus(key)->resident);
  const int64_t reloads_before = Count(manager, "vas_catalog_reloads_total");

  auto view = manager.ViewFor(key);
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE(view->partial()) << "spilled catalogs should serve mapped";
  ASSERT_EQ(view->rung_count(), 2u);
  EXPECT_EQ(view->rung_size(0), 200u);
  EXPECT_EQ(view->rung_size(1), 20000u);

  // A small viewport materializes a strict subset of the big rung,
  // touching only part of the file.
  Rect bounds = d->Bounds();
  Rect viewport = Rect::Of(bounds.min_x + bounds.width() * 0.45,
                           bounds.min_y + bounds.height() * 0.45,
                           bounds.min_x + bounds.width() * 0.55,
                           bounds.min_y + bounds.height() * 0.55);
  auto subset = view->MaterializeForRect(1, viewport);
  ASSERT_TRUE(subset.ok());
  EXPECT_LT(subset->size(), 20000u);
  auto whole = view->MaterializeRung(1);
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(whole->ids, (*built)->samples()[1].ids);

  auto stats = manager.memory_stats();
  EXPECT_EQ(Count(manager, "vas_catalog_reloads_total"), reloads_before)
      << "serving through a view must not trigger a full reload";
  EXPECT_GT(stats.mapped_bytes, 0u);
  EXPECT_GT(stats.touched_page_bytes, 0u);
  EXPECT_LT(stats.touched_page_bytes, stats.mapped_bytes);

  // Snapshot still reloads fully on demand, and a resident catalog
  // yields a resident (non-partial) view.
  auto reloaded = manager.Snapshot(key);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_GE(Count(manager, "vas_catalog_reloads_total"), reloads_before + 1);
  auto resident_view = manager.ViewFor(key);
  ASSERT_TRUE(resident_view.ok());
  ASSERT_TRUE(resident_view->valid());
}

TEST(CatalogManagerTest, CorruptSpillFileSurfacesAsCleanError) {
  test::ScopedTempFile file("vas_manager_corrupt.vascat");
  auto d = std::make_shared<Dataset>(test::Skewed(2000));
  d->CacheBounds();
  CatalogKey key{"corrupt"};
  {
    CatalogManager builder_side(1);
    ASSERT_TRUE(builder_side
                    .StartBuild(key, d, UniformFactory(51),
                                NoDensityLadder({600}))
                    .ok());
    ASSERT_TRUE(builder_side.SaveCatalog(key, file.path()).ok());
  }
  // Flip a bit inside the first data page. Page CRCs are lazy, so the
  // load (which only parses metadata) still succeeds...
  {
    std::fstream io(file.path(),
                    std::ios::binary | std::ios::in | std::ios::out);
    io.seekg(4096 + 16);
    char byte = 0;
    io.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    io.seekp(4096 + 16);
    io.write(&byte, 1);
  }
  CatalogManager manager(1);
  ASSERT_TRUE(manager.LoadCatalog(key, d, file.path()).ok());

  // ...but materializing through the backing must fail with a clean
  // Status (never bad ids), and the manager must survive the failure.
  auto snapshot = manager.Snapshot(key);
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(), StatusCode::kInternal);
  EXPECT_NE(snapshot.status().ToString().find("spill file corrupt"),
            std::string::npos)
      << snapshot.status().ToString();
  EXPECT_EQ(manager.Snapshot(key).status().code(), StatusCode::kInternal);
  auto status = manager.GetStatus(key);
  ASSERT_TRUE(status.ok());
  EXPECT_FALSE(status->resident);

  // Structural corruption (a truncated file) is caught at load time.
  std::filesystem::resize_file(file.path(), 200);
  CatalogManager fresh(1);
  EXPECT_FALSE(fresh.LoadCatalog(CatalogKey{"t"}, d, file.path()).ok());
}

TEST(CatalogManagerTest, ReadBackRefusesIdsBeyondTheDataset) {
  // A spill file whose pages pass their CRCs but whose ids do not fit
  // the entry's dataset must never reach a session. The read-back checks
  // each id as it reads it: an id past the recorded largest one, and a
  // recorded largest id past the dataset, both fail it as "spill file
  // corrupt" and count as read failures.
  auto d = std::make_shared<Dataset>(test::Skewed(3000));
  d->CacheBounds();
  const Dataset bigger = test::Skewed(9000);
  CatalogKey key{"swapped"};
  for (const bool past_recorded_max : {true, false}) {
    SCOPED_TRACE(past_recorded_max ? "id past the recorded max"
                                   : "recorded max past the dataset");
    test::ScopedTempFile spill_dir("catalog_manager_swapped_spills");
    ASSERT_TRUE(std::filesystem::create_directory(spill_dir.path()));
    CatalogManager::Options options;
    options.num_threads = 1;
    options.memory_budget_bytes = 1;  // evict everything not in use
    options.spill_dir = spill_dir.path();
    CatalogManager manager(options);
    ASSERT_TRUE(manager
                    .StartBuild(key, d, UniformFactory(71),
                                NoDensityLadder({100, 800}))
                    .ok());
    ASSERT_TRUE(manager.WaitUntilDone(key).ok());
    CatalogKey pusher{"pusher"};
    ASSERT_TRUE(manager
                    .StartBuild(pusher, d, UniformFactory(72),
                                NoDensityLadder({100}))
                    .ok());
    ASSERT_TRUE(manager.WaitUntilDone(pusher).ok());
    ASSERT_TRUE(EvictedWithin(manager, key));
    std::string spill_path;
    for (const auto& file :
         std::filesystem::directory_iterator(spill_dir.path())) {
      if (file.path().filename().string().find("_swapped_") !=
          std::string::npos) {
        spill_path = file.path().string();
      }
    }
    ASSERT_FALSE(spill_path.empty());

    if (past_recorded_max) {
      // Overwrite data page 1's first slot, rung 0's first id, and
      // re-seal the page's CRC. The footer's second u64, 40 bytes from
      // the end, is the page size.
      std::fstream io(spill_path,
                      std::ios::binary | std::ios::in | std::ios::out);
      io.seekg(-40, std::ios::end);
      uint64_t page_size = 0;
      io.read(reinterpret_cast<char*>(&page_size), sizeof(page_size));
      std::string page(page_size, '\0');
      io.seekg(static_cast<std::streamoff>(page_size));
      io.read(page.data(), static_cast<std::streamsize>(page_size));
      const uint64_t bad_id = d->size() + 5;
      std::memcpy(page.data() + 8, &bad_id, sizeof(bad_id));
      uint32_t payload_len = 0;
      std::memcpy(&payload_len, page.data() + 4, sizeof(payload_len));
      const uint32_t crc = Crc32(page.data() + 8, payload_len);
      std::memcpy(page.data(), &crc, sizeof(crc));
      io.seekp(static_cast<std::streamoff>(page_size));
      io.write(page.data(), static_cast<std::streamsize>(page_size));
      ASSERT_TRUE(io.good());
    } else {
      // A ladder of the bigger dataset, whose ids run past this one's.
      UniformReservoirSampler sampler(73);
      SampleCatalog swapped(bigger, sampler, NoDensityLadder({100, 800}));
      ASSERT_GE(swapped.samples().back().ids.size(), 800u);
      ASSERT_TRUE(WriteCatalogPaged(swapped, spill_path).ok());
    }

    auto snapshot = manager.Snapshot(key);
    ASSERT_FALSE(snapshot.ok());
    EXPECT_EQ(snapshot.status().code(), StatusCode::kInternal);
    EXPECT_NE(snapshot.status().ToString().find("spill file corrupt"),
              std::string::npos)
        << snapshot.status().ToString();
    EXPECT_NE(snapshot.status().ToString().find("out of dataset range"),
              std::string::npos)
        << snapshot.status().ToString();
    const obs::MetricsRegistry& registry = *manager.metrics_registry();
    EXPECT_EQ(registry.Total("vas_catalog_load_failures_total",
                             {{"stage", "read"}}),
              1);
    EXPECT_EQ(Count(manager, "vas_catalog_reloads_total"), 0);
    EXPECT_FALSE(manager.GetStatus(key)->resident);
  }
}

TEST(CatalogManagerTest, EveryAccessorReportsADamagedSpillFileTheSameWay) {
  // A spill file that does not open as CAT2 — cut short, or replaced by
  // a retired CAT1 copy of the same ladder — must fail every accessor
  // with the same Internal status, count no reload, and leave the entry
  // spilled.
  auto d = std::make_shared<Dataset>(test::Skewed(3000));
  d->CacheBounds();
  CatalogKey key{"damaged"};
  for (const bool truncate : {true, false}) {
    SCOPED_TRACE(truncate ? "truncated" : "CAT1 copy");
    test::ScopedTempFile spill_dir("catalog_manager_damaged_spills");
    ASSERT_TRUE(std::filesystem::create_directory(spill_dir.path()));
    CatalogManager::Options options;
    options.num_threads = 1;
    options.memory_budget_bytes = 1;  // evict everything not in use
    options.spill_dir = spill_dir.path();
    CatalogManager manager(options);
    ASSERT_TRUE(manager
                    .StartBuild(key, d, UniformFactory(61),
                                NoDensityLadder({100, 800}))
                    .ok());
    auto built = manager.WaitUntilDone(key);
    ASSERT_TRUE(built.ok());
    // Finishing a second ladder makes "damaged" the eviction victim.
    CatalogKey pusher{"pusher"};
    ASSERT_TRUE(manager
                    .StartBuild(pusher, d, UniformFactory(62),
                                NoDensityLadder({100}))
                    .ok());
    ASSERT_TRUE(manager.WaitUntilDone(pusher).ok());
    ASSERT_TRUE(EvictedWithin(manager, key));

    std::string spill_path;
    for (const auto& file :
         std::filesystem::directory_iterator(spill_dir.path())) {
      if (file.path().filename().string().find("_damaged_") !=
          std::string::npos) {
        spill_path = file.path().string();
      }
    }
    ASSERT_FALSE(spill_path.empty());
    if (truncate) {
      std::filesystem::resize_file(spill_path,
                                   std::filesystem::file_size(spill_path) / 2);
    } else {
      ASSERT_TRUE(test::WriteCatalogV1(**built, spill_path).ok());
    }

    auto expect_corrupt = [](const Status& status) {
      EXPECT_EQ(status.code(), StatusCode::kInternal);
      EXPECT_NE(status.ToString().find("spill file corrupt"),
                std::string::npos)
          << status.ToString();
    };
    expect_corrupt(manager.ViewFor(key).status());
    expect_corrupt(manager.Snapshot(key).status());
    expect_corrupt(manager.WaitForFirstRung(key).status());
    expect_corrupt(manager.WaitUntilDone(key).status());
    const std::string saved = spill_dir.path() + "/saved.vascat";
    expect_corrupt(manager.SaveCatalog(key, saved));
    EXPECT_FALSE(std::filesystem::exists(saved));

    EXPECT_EQ(Count(manager, "vas_catalog_reloads_total"), 0);
    // Each of the five calls failed to open the file, and each counts.
    const obs::MetricsRegistry& registry = *manager.metrics_registry();
    EXPECT_EQ(registry.Total("vas_catalog_load_failures_total",
                             {{"stage", "open"}}),
              5);
    EXPECT_EQ(registry.Total("vas_catalog_load_failures_total",
                             {{"stage", "read"}}),
              0);
    auto status = manager.GetStatus(key);
    ASSERT_TRUE(status.ok());
    EXPECT_FALSE(status->resident);
    EXPECT_FALSE(status->mapped);
  }
}

TEST(CatalogManagerTest, FailedSpillKeepsTheLadderResidentAndCountsIt) {
  // A spill dir below a regular file fails every spill write with
  // ENOTDIR (even as root). Dropping an unpersisted ladder would lose
  // it, so both ladders must stay resident and serve their own ids,
  // over budget; the failures are counted and no spill write is.
  test::ScopedTempFile blocker("catalog_manager_spill_blocker");
  std::ofstream(blocker.path()) << "a regular file, not a directory";
  auto d = std::make_shared<Dataset>(test::Skewed(3000));
  d->CacheBounds();
  CatalogManager::Options options;
  options.num_threads = 1;
  options.memory_budget_bytes = 1;  // evict everything not in use
  options.spill_dir = blocker.path() + "/spills";
  CatalogManager manager(options);

  const std::vector<CatalogKey> keys = {CatalogKey{"first"},
                                        CatalogKey{"second"}};
  std::vector<std::shared_ptr<const SampleCatalog>> built;
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(manager
                    .StartBuild(keys[i], d, UniformFactory(61 + i),
                                NoDensityLadder({100, 800}))
                    .ok());
    auto done = manager.WaitUntilDone(keys[i]);
    ASSERT_TRUE(done.ok());
    built.push_back(*done);
  }
  // Each access makes the other key the eviction victim, and every
  // attempt to spill it fails.
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < keys.size(); ++i) {
      auto snapshot = manager.Snapshot(keys[i]);
      ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
      ASSERT_EQ((*snapshot)->samples().size(), 2u);
      for (size_t r = 0; r < 2; ++r) {
        EXPECT_EQ((*snapshot)->samples()[r].ids, built[i]->samples()[r].ids);
      }
    }
  }
  for (int i = 0;
       i < 500 && Count(manager, "vas_catalog_spill_failures_total") == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(Count(manager, "vas_catalog_spill_failures_total"), 1);
  EXPECT_EQ(Count(manager, "vas_catalog_spill_writes_total"), 0);
  EXPECT_EQ(Count(manager, "vas_catalog_evictions_total"), 0);
  for (const CatalogKey& key : keys) {
    auto status = manager.GetStatus(key);
    ASSERT_TRUE(status.ok());
    EXPECT_TRUE(status->resident) << key.ToString();
  }
  EXPECT_GT(manager.memory_stats().resident_bytes, options.memory_budget_bytes)
      << "the budget is best-effort when spills fail";
}

TEST(CatalogManagerTest, DropRacingAnInFlightSpillLeavesNoFiles) {
  // Drop() may erase an entry while PerformSpills is writing its
  // ladder; the writer detects the unmapped entry and deletes the file
  // it just created. After the churn the spill dir must hold nothing.
  test::ScopedTempFile dir_guard("catalog_manager_offlock_spills");
  std::filesystem::create_directory(dir_guard.path());
  {
    auto d = std::make_shared<Dataset>(test::Skewed(4000));
    d->CacheBounds();
    CatalogManager::Options options;
    options.num_threads = 2;
    options.memory_budget_bytes = 10 * 1024;
    options.spill_dir = dir_guard.path();
    CatalogManager manager(options);

    for (int round = 0; round < 3; ++round) {
      std::vector<CatalogKey> keys;
      for (int i = 0; i < 3; ++i) {
        keys.push_back(CatalogKey{"churn" + std::to_string(i)});
        ASSERT_TRUE(manager
                        .StartBuild(keys.back(), d, UniformFactory(7 + i),
                                    NoDensityLadder({150, 900}))
                        .ok());
      }
      // Touch every key so evictions interleave with the accesses, then
      // drop them all while spill writes may still be in flight.
      std::thread toucher([&manager, keys]() {
        for (int i = 0; i < 20; ++i) {
          auto snapshot = manager.Snapshot(keys[i % keys.size()]);
          (void)snapshot;
        }
      });
      for (const CatalogKey& key : keys) {
        ASSERT_TRUE(manager.WaitUntilDone(key).ok());
      }
      toucher.join();
      for (const CatalogKey& key : keys) {
        ASSERT_TRUE(manager.Drop(key).ok());
      }
      EXPECT_EQ(manager.memory_stats().resident_bytes, 0u);
    }
    // Manager destruction removes whatever spill files remain.
  }
  size_t leftovers = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator(dir_guard.path())) {
    ++leftovers;
  }
  EXPECT_EQ(leftovers, 0u) << "spill files leaked past Drop/destruction";
  std::filesystem::remove_all(dir_guard.path());
}

}  // namespace
}  // namespace vas
