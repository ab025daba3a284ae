// Sharded, byte-budgeted LRU cache of encoded tiles. The serving hot
// path is Get/Put of immutable PNG byte strings; sharding by key hash
// keeps concurrent tile requests from serializing on one mutex, and the
// byte budget bounds the server's render-cache footprint the same way
// CatalogManager's budget bounds resident ladders.
//
// Values are shared_ptr<const string> so an entry evicted (or dropped
// with its table) while a response is still being written stays alive
// until that response completes. Hit, miss, eviction and invalidation
// counts live in the caller's metrics registry: Put and
// InvalidatePrefix return what they dropped.
#ifndef VAS_SERVICE_TILE_CACHE_H_
#define VAS_SERVICE_TILE_CACHE_H_

#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace vas {

class TileCache {
 public:
  struct Options {
    /// Total bytes of cached tiles across all shards; the budget is
    /// split evenly, so one hot shard evicts independently of the rest.
    size_t budget_bytes = 64ull << 20;
    size_t shards = 8;
  };

  explicit TileCache(const Options& options);

  TileCache(const TileCache&) = delete;
  TileCache& operator=(const TileCache&) = delete;

  /// The cached bytes for `key`, or null on miss. A hit marks the entry
  /// most recently used in its shard.
  std::shared_ptr<const std::string> Get(const std::string& key);

  /// Inserts (or replaces) `key`, then evicts least-recently-used
  /// entries until the shard is back under its budget slice. The entry
  /// just inserted is never evicted by its own Put, so a tile larger
  /// than the budget still serves once. Returns the number of entries
  /// evicted.
  size_t Put(const std::string& key, std::shared_ptr<const std::string> value);

  /// Drops every entry whose key starts with `prefix` (prefix = one
  /// table's key space, when the table is dropped). Returns the number
  /// of entries dropped.
  size_t InvalidatePrefix(const std::string& prefix);

  /// Entries and their approximate bytes across shards (racy snapshots
  /// by nature).
  size_t entries() const;
  size_t bytes() const;

 private:
  struct Shard {
    mutable std::mutex mu;
    /// Front = most recently used.
    std::list<std::pair<std::string, std::shared_ptr<const std::string>>> lru;
    std::unordered_map<
        std::string,
        std::list<std::pair<std::string,
                            std::shared_ptr<const std::string>>>::iterator>
        index;
    size_t bytes = 0;
  };

  /// Approximate footprint of one entry (key + bytes + bookkeeping).
  static size_t EntryBytes(const std::string& key, const std::string& value) {
    return key.size() + value.size() + 64;
  }

  Shard& ShardFor(const std::string& key);

  size_t shard_budget_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace vas

#endif  // VAS_SERVICE_TILE_CACHE_H_
