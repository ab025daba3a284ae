// Asynchronous catalog service: the process-wide registry mapping a
// named (table, column-pair) to its sample-catalog build. This is the
// paper's offline index store (§II-A, Figure 3) turned into a serving
// component — builds are submitted once, run in the background on a
// shared ThreadPool, and queries always see the best ladder built so
// far, so a session can start plotting from the smallest rung while the
// larger rungs are still sampling.
//
// Catalogs have a full lifecycle: a finished ladder can be saved to a
// catalog file (SaveCatalog), a previously saved ladder can be
// registered without rebuilding (LoadCatalog / AddCatalog), and under a
// configured memory budget cold catalogs are transparently spilled to
// disk and reloaded on their next access — so the set of catalogs a
// server holds is bounded by disk, not RAM.
//
// Spills are written in the paged CAT2 format (engine/catalog_store),
// each rung laid out by grid cell as it was published. Because finished
// ladders are immutable, a current backing file makes eviction free:
// the victim's in-memory ladder is simply dropped (no serialization),
// and eviction prefers such victims over ones whose ladder would first
// have to be written — cost-aware, not purely LRU. A spilled ladder can
// be served two ways: Snapshot()/WaitFor* rematerialize the whole
// ladder (the classic path), while ViewFor() hands out a CatalogView
// over the mmap'd store so tile rendering faults in only the pages
// whose grid cells intersect the viewport.
#ifndef VAS_ENGINE_CATALOG_MANAGER_H_
#define VAS_ENGINE_CATALOG_MANAGER_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/catalog_store.h"
#include "engine/sample_catalog.h"
#include "obs/metrics.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace vas {

/// Identifies one indexed plot: a table and the two columns it plots.
/// The catalog is per column pair — the same table may have several.
struct CatalogKey {
  std::string table;
  std::string x = "x";
  std::string y = "y";

  /// "table/x:y" — the stable name used in logs and tool output.
  std::string ToString() const { return table + "/" + x + ":" + y; }

  friend bool operator<(const CatalogKey& a, const CatalogKey& b) {
    if (a.table != b.table) return a.table < b.table;
    if (a.x != b.x) return a.x < b.x;
    return a.y < b.y;
  }
  friend bool operator==(const CatalogKey& a, const CatalogKey& b) {
    return a.table == b.table && a.x == b.x && a.y == b.y;
  }
};

/// Owns named catalog builds and the worker pool they run on. All
/// methods are thread-safe. The destructor blocks until every in-flight
/// rung task has finished, then deletes the spill files it created.
class CatalogManager {
 public:
  struct Options {
    /// Build pool size; 0 = hardware concurrency.
    size_t num_threads = 0;
    /// Total bytes of finished catalogs kept resident; exceeding the
    /// budget spills least-recently-used catalogs to disk. 0 disables
    /// eviction. In-flight builds and the most recently used catalog
    /// are never evicted, so a budget smaller than one ladder degrades
    /// to "one catalog resident at a time".
    size_t memory_budget_bytes = 0;
    /// Directory for spill files; empty = the system temp directory.
    std::string spill_dir;
    /// Metrics sink for rung/spill/eviction counters, build-pool queue
    /// instrumentation, and the resident/mapped/touched byte gauges.
    /// Null = a private registry owned by this manager (counters still
    /// count, readable by name via metrics_registry(); they are just
    /// not exported anywhere).
    obs::MetricsRegistry* registry = nullptr;
  };

  /// Build progress for one key.
  struct BuildStatus {
    size_t rungs_ready = 0;
    size_t rungs_total = 0;
    bool done = false;
    /// Whether the finished ladder is currently in memory (false while
    /// spilled; meaningless before done).
    bool resident = false;
    /// Whether a paged backing file is currently mmap'd for this key.
    bool mapped = false;
    /// Approximate footprint of the finished ladder (0 while building).
    size_t memory_bytes = 0;
  };

  /// Aggregate byte accounting across every key. Event counts
  /// (evictions, reloads, spill writes) live only in the registry.
  struct MemoryStats {
    size_t budget_bytes = 0;
    size_t resident_bytes = 0;
    /// Total file bytes of currently mmap'd catalog stores.
    size_t mapped_bytes = 0;
    /// Bytes of mapped pages actually faulted in (CRC-verified) so far
    /// — the real memory cost of serving through mapped stores.
    size_t touched_page_bytes = 0;
  };

  /// `num_threads` sizes the shared build pool; 0 = hardware
  /// concurrency. No memory budget: catalogs stay resident forever.
  explicit CatalogManager(size_t num_threads = 0);
  explicit CatalogManager(const Options& options);
  ~CatalogManager();

  CatalogManager(const CatalogManager&) = delete;
  CatalogManager& operator=(const CatalogManager&) = delete;

  /// Registers `key` and submits its rung builds to the pool,
  /// returning immediately. The dataset is shared with the build tasks
  /// and must not be mutated while the build runs. InvalidArgument when
  /// the key is already registered.
  Status StartBuild(const CatalogKey& key,
                    std::shared_ptr<const Dataset> dataset,
                    SamplerFactory sampler_factory,
                    SampleCatalog::Options options);

  /// Registers an already-built ladder (e.g. one reloaded from a
  /// catalog file) so it serves without rebuilding. The ids are
  /// validated against the dataset, and rungs that arrive without a
  /// layout are laid out against it. InvalidArgument for an empty
  /// ladder or an already-registered key.
  Status AddCatalog(const CatalogKey& key,
                    std::shared_ptr<const Dataset> dataset,
                    SampleCatalog catalog);

  /// Registers the CAT2 catalog file at `path` under `key` — the
  /// cold-start path: serving begins at disk-load cost instead of
  /// rebuild cost. The file is mmap'd and registered *without*
  /// materializing (the first full snapshot pays the load; ViewFor
  /// serves tiles straight from the mapping). Any other file is
  /// InvalidArgument, as CatalogStore::Open reports it. The file at
  /// `path` stays owned by the caller and is never deleted by Drop() or
  /// the destructor.
  Status LoadCatalog(const CatalogKey& key,
                     std::shared_ptr<const Dataset> dataset,
                     const std::string& path);

  /// Blocks until `key`'s ladder is complete and writes it to `path`.
  Status SaveCatalog(const CatalogKey& key, const std::string& path);

  /// Unregisters `key` and deletes its spill file. Snapshots already
  /// handed out stay valid (they share ownership of the ladder); the
  /// key may be registered again afterwards. NotFound when absent.
  /// FailedPrecondition while the key's build is still running.
  Status Drop(const CatalogKey& key);

  /// Build progress; NotFound for unregistered keys.
  StatusOr<BuildStatus> GetStatus(const CatalogKey& key) const;

  /// The catalog of every rung finished so far — the "best currently
  /// available" ladder. A finished catalog that was evicted is
  /// transparently reloaded from its spill file. NotFound for
  /// unregistered keys, FailedPrecondition while no rung has landed
  /// yet.
  StatusOr<std::shared_ptr<const SampleCatalog>> Snapshot(
      const CatalogKey& key) const;

  /// Blocks until the first (smallest) rung is servable, reloading an
  /// evicted ladder if needed. NotFound for unregistered keys.
  StatusOr<std::shared_ptr<const SampleCatalog>> WaitForFirstRung(
      const CatalogKey& key) const;

  /// Blocks until the whole ladder for `key` is built.
  StatusOr<std::shared_ptr<const SampleCatalog>> WaitUntilDone(
      const CatalogKey& key) const;

  /// A servable view of `key`'s best available ladder, waiting for the
  /// first rung like WaitForFirstRung — but a spilled ladder is served
  /// through its mmap'd CAT2 store *without* rematerializing, so a tile
  /// render afterwards touches only the pages its viewport's cells
  /// intersect.
  StatusOr<CatalogView> ViewFor(const CatalogKey& key) const;

  /// Memory accounting snapshot (racy by nature, exact under quiesce).
  MemoryStats memory_stats() const;

  /// The registry the manager's counters and gauges live in
  /// (Options.registry, or the manager's private one).
  obs::MetricsRegistry* metrics_registry() const { return registry_; }

  /// The shared build pool — samplers that shard internally (e.g.
  /// ParallelInterchangeSampler) may reuse it instead of spawning their
  /// own: they detect via ThreadPool::IsWorkerThread() that a rung task
  /// is already running here and fall back to inline shards, so sharing
  /// cannot deadlock.
  ThreadPool& pool() { return pool_; }

 private:
  /// One registered catalog. State transitions (build finishing, spill,
  /// reload) happen under the manager mutex; the entry itself is
  /// reference-counted so a concurrent Drop() can never dangle an
  /// accessor (handles outlive map erasure).
  struct Entry {
    std::shared_ptr<const vas::Dataset> dataset;
    size_t rungs_total = 0;
    /// Live build; shared so waiters can block without holding the
    /// manager mutex. Null once the ladder is finalized.
    std::shared_ptr<SampleCatalog::Builder> builder;
    /// The finished ladder; null while spilled to disk.
    std::shared_ptr<const SampleCatalog> catalog;
    /// The mmap'd paged backing file, opened lazily the first time a
    /// spilled ladder is served through ViewFor (or reloaded). Non-null
    /// only while spill_valid.
    std::shared_ptr<const CatalogStore> store;
    /// Spill file holding a current copy of the ladder (catalogs are
    /// immutable once finished, so one write serves every eviction).
    std::string spill_path;
    bool spill_valid = false;
    /// Whether spill_path was created by this manager (and is therefore
    /// ours to delete). False for user-supplied files registered via
    /// LoadCatalog.
    bool owns_spill_file = true;
    /// A spill write for this entry is in flight off-lock; the entry
    /// stays resident (and servable) until the write completes, and no
    /// second eviction may select it meanwhile.
    bool spilling = false;
    size_t bytes = 0;
    uint64_t last_used = 0;
  };

  enum class WaitMode { kNone, kFirstRung, kAll };

  /// Handle lookup; null when absent.
  std::shared_ptr<Entry> FindEntry(const CatalogKey& key) const;

  /// The one path from a key to servable rungs, shared by every
  /// accessor; NotFound when `entry` is null. While the build runs it
  /// waits per `mode` with no manager lock held and serves the
  /// builder's snapshot; a build that completes meanwhile is finalized
  /// and served as finished. A finished ladder is served resident; a
  /// spilled one is read back into memory when `in_memory`
  /// (ReloadLocked) and served from its mapped file otherwise
  /// (EnsureStoreLocked). Evictions a reload displaces are written
  /// off-lock before returning.
  StatusOr<CatalogView> Resolve(const CatalogKey& key,
                                const std::shared_ptr<Entry>& entry,
                                WaitMode mode, bool in_memory) const;

  /// Registers `entry` under `key`; InvalidArgument when taken.
  Status Insert(const CatalogKey& key, std::shared_ptr<Entry> entry);

  /// Moves a finished build's product into the entry. Idempotent across
  /// racing callers; `builder` is the build the caller observed done.
  /// An entry `Drop()`ed while the wait was in flight still receives
  /// its ladder (handles keep serving) but is excluded from residency
  /// accounting.
  void Finalize(const CatalogKey& key, const std::shared_ptr<Entry>& entry,
                const std::shared_ptr<SampleCatalog::Builder>& builder) const;

  /// Marks `entry` most recently used. Caller holds mu_.
  void TouchLocked(Entry& entry) const;

  /// One eviction whose ladder still needs writing to disk. Selected
  /// under the manager mutex, written with no lock held.
  struct SpillJob {
    CatalogKey key;
    std::shared_ptr<Entry> entry;
    std::shared_ptr<const SampleCatalog> catalog;
    std::string path;
  };

  /// Selects victims until the budget holds, never touching `keep`,
  /// entries still building, or entries already spilling. Caller holds
  /// mu_. Selection is cost-aware: among evictable entries, ones whose
  /// backing file is already current (eviction = dropping the in-memory
  /// ladder, write-free) are preferred — LRU-ordered — over entries
  /// that would first need serializing; the latter are marked
  /// `spilling` and appended to `jobs` for the caller to write *after
  /// releasing the mutex* (PerformSpills) — serialization never blocks
  /// other keys' access.
  void EnforceBudgetLocked(const Entry* keep,
                           std::vector<SpillJob>* jobs) const;

  /// Writes each job's ladder to its spill file with no lock held, then
  /// re-locks briefly to complete (or on write failure, abort) the
  /// eviction. A job whose entry was Drop()ed mid-write deletes the
  /// file it just created. Callers run this on their own thread before
  /// returning, so eviction post-conditions are unchanged.
  void PerformSpills(std::vector<SpillJob> jobs) const;

  /// Reads the entry's CAT2 backing file back into memory through its
  /// store, each rung with the layout stored in the file, and checks
  /// the ids against the entry's dataset. A read-back that fails its
  /// CRC or id checks is "spill file corrupt", counted in
  /// vas_catalog_load_failures_total{stage="read"}. Caller holds mu_;
  /// the disk read runs under the mutex, which serializes reloads
  /// across keys — acceptable because reloads are cache misses, and it
  /// keeps every state transition on one lock. Evictions the reload
  /// itself triggers land in `jobs` for the caller to write off-lock.
  Status ReloadLocked(const CatalogKey& key, Entry& entry,
                      std::vector<SpillJob>* jobs) const;

  /// Opens (mmaps) the entry's backing file if not already open. The
  /// file is CAT2: either a spill this manager wrote or a user's CAT2
  /// file LoadCatalog registered. Internal when the entry has no
  /// current backing file or the file does not open as a store ("spill
  /// file corrupt", counted in vas_catalog_load_failures_total{stage=
  /// "open"}). Caller holds mu_.
  Status EnsureStoreLocked(const CatalogKey& key, Entry& entry) const;

  const Options options_;
  /// Per-manager token so concurrent processes sharing a spill dir
  /// cannot clobber each other's files.
  const std::string spill_token_;
  // Declared before pool_ so the build pool can register its queue
  // metrics against the resolved registry.
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* registry_ = nullptr;
  // Declared before entries_ so builders (which wait for their tasks)
  // are destroyed before the pool the tasks run on.
  ThreadPool pool_;
  mutable std::mutex mu_;
  std::map<CatalogKey, std::shared_ptr<Entry>> entries_;
  mutable uint64_t use_clock_ = 0;
  /// Makes spill paths unique even when distinct keys sanitize to the
  /// same filename fragment.
  mutable uint64_t spill_seq_ = 0;
  mutable size_t resident_bytes_ = 0;
  /// Event counters live only in the registry — the same objects
  /// /metrics renders, and that /status reads back by name. Free
  /// evictions drop an already-persisted ladder; spill evictions paid a
  /// serialization first. Evictions of ladders whose backing file is
  /// already current don't write, so evictions can exceed spill writes.
  obs::Counter* rungs_built_ = nullptr;
  obs::Counter* evictions_free_ = nullptr;
  obs::Counter* evictions_spill_ = nullptr;
  obs::Counter* reloads_count_ = nullptr;
  obs::Counter* spill_writes_count_ = nullptr;
  obs::Counter* spill_failures_count_ = nullptr;
  /// Failed loads of a backing file: it did not open, or a read-back
  /// failed. Each failed access counts again; nothing is remembered.
  obs::Counter* load_failures_open_ = nullptr;
  obs::Counter* load_failures_read_ = nullptr;
};

}  // namespace vas

#endif  // VAS_ENGINE_CATALOG_MANAGER_H_
