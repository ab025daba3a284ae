#include "service/tile_cache.h"

#include <algorithm>
#include <functional>

#include "util/logging.h"

namespace vas {

TileCache::TileCache(const Options& options) {
  size_t shard_count = std::max<size_t>(1, options.shards);
  shard_budget_ = std::max<size_t>(1, options.budget_bytes / shard_count);
  shards_.reserve(shard_count);
  for (size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

TileCache::Shard& TileCache::ShardFor(const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

std::shared_ptr<const std::string> TileCache::Get(const std::string& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) return nullptr;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->second;
}

size_t TileCache::Put(const std::string& key,
                      std::shared_ptr<const std::string> value) {
  VAS_CHECK(value != nullptr);
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    shard.bytes -= EntryBytes(key, *it->second->second);
    shard.lru.erase(it->second);
    shard.index.erase(it);
  }
  shard.bytes += EntryBytes(key, *value);
  shard.lru.emplace_front(key, std::move(value));
  shard.index[key] = shard.lru.begin();
  // Evict LRU-first, never the entry just inserted (size() > 1 guard).
  size_t evicted = 0;
  while (shard.bytes > shard_budget_ && shard.lru.size() > 1) {
    auto& victim = shard.lru.back();
    shard.bytes -= EntryBytes(victim.first, *victim.second);
    shard.index.erase(victim.first);
    shard.lru.pop_back();
    ++evicted;
  }
  return evicted;
}

size_t TileCache::InvalidatePrefix(const std::string& prefix) {
  size_t dropped = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto it = shard->lru.begin(); it != shard->lru.end();) {
      if (it->first.compare(0, prefix.size(), prefix) == 0) {
        shard->bytes -= EntryBytes(it->first, *it->second);
        shard->index.erase(it->first);
        it = shard->lru.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
  }
  return dropped;
}

size_t TileCache::entries() const {
  size_t entries = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    entries += shard->lru.size();
  }
  return entries;
}

size_t TileCache::bytes() const {
  size_t bytes = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    bytes += shard->bytes;
  }
  return bytes;
}

}  // namespace vas
