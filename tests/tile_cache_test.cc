// TileCache: the sharded byte-budgeted LRU fronting tile renders.
// Covers entry and byte counts, LRU eviction under the per-shard budget
// and the eviction counts Put returns, the oversized-entry guarantee (a
// tile larger than the budget still serves once), prefix invalidation
// (the dropped-table path), and concurrent mixed traffic (the TSan
// target).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/tile_cache.h"

namespace vas {
namespace {

std::shared_ptr<const std::string> Bytes(size_t n, char fill = 'x') {
  return std::make_shared<const std::string>(n, fill);
}

TileCache::Options SingleShard(size_t budget) {
  TileCache::Options options;
  options.budget_bytes = budget;
  options.shards = 1;  // deterministic LRU order for eviction tests
  return options;
}

TEST(TileCacheTest, MissThenHit) {
  TileCache cache(SingleShard(1 << 20));
  EXPECT_EQ(cache.Get("a"), nullptr);
  auto value = Bytes(100);
  EXPECT_EQ(cache.Put("a", value), 0u);
  auto got = cache.Get("a");
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got.get(), value.get()) << "cache must serve the shared bytes";
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_GT(cache.bytes(), 100u);
}

TEST(TileCacheTest, PutReplacesExistingKey) {
  TileCache cache(SingleShard(1 << 20));
  cache.Put("a", Bytes(10, '1'));
  cache.Put("a", Bytes(20, '2'));
  auto got = cache.Get("a");
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->size(), 20u);
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(TileCacheTest, EvictsLeastRecentlyUsedUnderBudget) {
  // Budget fits two ~1KiB entries. Touch "a" so "b" is the LRU victim
  // when "c" arrives.
  TileCache cache(SingleShard(2 * 1200));
  cache.Put("a", Bytes(1024));
  cache.Put("b", Bytes(1024));
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.Put("c", Bytes(1024)), 1u);
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.Get("b"), nullptr) << "LRU entry must be evicted";
  EXPECT_NE(cache.Get("c"), nullptr);
  EXPECT_EQ(cache.entries(), 2u);
}

TEST(TileCacheTest, OversizedEntryStillServesOnce) {
  TileCache cache(SingleShard(256));
  auto huge = Bytes(4096);
  EXPECT_EQ(cache.Put("huge", huge), 0u);
  // Its own Put must not evict it; the next Put may.
  auto got = cache.Get("huge");
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got.get(), huge.get());
  EXPECT_EQ(cache.Put("next", Bytes(16)), 1u);
  EXPECT_EQ(cache.Get("huge"), nullptr);
}

TEST(TileCacheTest, EvictedBytesSurviveWhileAResponseHoldsThem) {
  TileCache cache(SingleShard(256));
  cache.Put("tile", Bytes(2048, 't'));
  auto in_flight = cache.Get("tile");
  ASSERT_NE(in_flight, nullptr);
  cache.Put("other", Bytes(2048));  // evicts "tile"
  EXPECT_EQ(cache.Get("tile"), nullptr);
  // The response in flight still owns the bytes.
  EXPECT_EQ(in_flight->size(), 2048u);
  EXPECT_EQ((*in_flight)[0], 't');
}

TEST(TileCacheTest, InvalidatePrefixDropsOnlyThatNamespace) {
  // Several shards: invalidation must sweep all of them.
  TileCache::Options options;
  options.budget_bytes = 1 << 20;
  options.shards = 4;
  TileCache cache(options);
  for (int i = 0; i < 8; ++i) {
    cache.Put("taxi\n0/0/" + std::to_string(i), Bytes(64));
    cache.Put("geo\n0/0/" + std::to_string(i), Bytes(64));
  }
  EXPECT_EQ(cache.InvalidatePrefix("taxi\n"), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(cache.Get("taxi\n0/0/" + std::to_string(i)), nullptr);
    EXPECT_NE(cache.Get("geo\n0/0/" + std::to_string(i)), nullptr);
  }
  EXPECT_EQ(cache.entries(), 8u);
  EXPECT_EQ(cache.InvalidatePrefix("taxi\n"), 0u);
}

TEST(TileCacheTest, ConcurrentMixedTrafficIsSafe) {
  // Readers, writers, and an invalidator hammer a small budget so
  // eviction churns constantly; under TSan this is the race check, and
  // every returned value must be intact (the key's fill byte).
  TileCache::Options options;
  options.budget_bytes = 64 * 1024;
  options.shards = 4;
  TileCache cache(options);
  std::atomic<bool> corrupt{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, &corrupt, t]() {
      for (int i = 0; i < 400; ++i) {
        std::string key = "t" + std::to_string(t % 2) + "\n" +
                          std::to_string(i % 37);
        char fill = static_cast<char>('a' + (i % 37) % 26);
        cache.Put(key, Bytes(1024, fill));
        if (auto got = cache.Get(key)) {
          if (got->size() != 1024 || (*got)[0] != fill) corrupt = true;
        }
        if (i % 100 == 99) cache.InvalidatePrefix("t0\n");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(corrupt.load());
  // Every shard evicted back under its slice of the budget.
  EXPECT_LE(cache.bytes(), options.budget_bytes);
}

}  // namespace
}  // namespace vas
