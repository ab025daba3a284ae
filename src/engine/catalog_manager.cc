#include "engine/catalog_manager.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <random>
#include <utility>

#include "engine/catalog_io.h"
#include "engine/catalog_store.h"
#include "obs/log.h"

namespace vas {

namespace {

/// Spill files live in one shared directory; a per-manager token keeps
/// concurrent managers (or processes) from clobbering each other.
/// std::random_device may legally be deterministic, so the clock is
/// folded in — two processes can then only collide by also starting on
/// the same tick.
std::string MakeSpillToken() {
  uint64_t entropy = (static_cast<uint64_t>(std::random_device{}()) << 32) ^
                     static_cast<uint64_t>(std::random_device{}());
  entropy ^= static_cast<uint64_t>(std::chrono::high_resolution_clock::now()
                                       .time_since_epoch()
                                       .count());
  return std::to_string(entropy);
}

std::string ResolveSpillDir(const std::string& configured) {
  if (!configured.empty()) return configured;
  std::error_code ec;
  auto dir = std::filesystem::temp_directory_path(ec);
  return ec ? std::string(".") : dir.string();
}

/// "table/x:y" with path-hostile characters flattened, so the key stays
/// readable in the spill directory.
std::string SanitizeForFilename(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    if (!keep) c = '_';
  }
  return out;
}

/// The ladder of a view resolved in memory, as the snapshot accessors
/// return it.
StatusOr<std::shared_ptr<const SampleCatalog>> ResidentLadder(
    StatusOr<CatalogView> view) {
  if (!view.ok()) return view.status();
  return view->resident();
}

}  // namespace

CatalogManager::CatalogManager(size_t num_threads)
    : CatalogManager(Options{num_threads, 0, std::string(), nullptr}) {}

CatalogManager::CatalogManager(const Options& options)
    : options_(Options{options.num_threads, options.memory_budget_bytes,
                       ResolveSpillDir(options.spill_dir),
                       options.registry}),
      spill_token_(MakeSpillToken()),
      owned_registry_(options.registry == nullptr
                          ? std::make_unique<obs::MetricsRegistry>()
                          : nullptr),
      registry_(options.registry != nullptr ? options.registry
                                            : owned_registry_.get()),
      pool_(options.num_threads, registry_, "catalog_build") {
  rungs_built_ = registry_->GetCounter(
      "vas_catalog_rungs_built_total",
      "Sample-catalog rungs finished by the build pool.");
  evictions_free_ = registry_->GetCounter(
      "vas_catalog_evictions_total",
      "Catalogs evicted from the residency budget, by whether the "
      "eviction needed a spill write first.",
      {{"kind", "free"}});
  evictions_spill_ = registry_->GetCounter(
      "vas_catalog_evictions_total",
      "Catalogs evicted from the residency budget, by whether the "
      "eviction needed a spill write first.",
      {{"kind", "spill"}});
  reloads_count_ = registry_->GetCounter(
      "vas_catalog_reloads_total",
      "Spilled catalogs read back into memory on access.");
  spill_writes_count_ = registry_->GetCounter(
      "vas_catalog_spill_writes_total", "Spill files written to disk.");
  spill_failures_count_ = registry_->GetCounter(
      "vas_catalog_spill_failures_total",
      "Spill writes that failed; the ladder stayed resident.");
  const char* load_failures_help =
      "Backing catalog files that failed to load, by stage: open (the "
      "file does not open as a catalog store) or read (a read-back "
      "failed its CRC or id checks).";
  load_failures_open_ = registry_->GetCounter(
      "vas_catalog_load_failures_total", load_failures_help,
      {{"stage", "open"}});
  load_failures_read_ = registry_->GetCounter(
      "vas_catalog_load_failures_total", load_failures_help,
      {{"stage", "read"}});
  registry_->SetCallbackGauge(
      "vas_catalog_resident_bytes",
      "Bytes of finished catalog ladders currently held in memory.", {},
      [this]() {
        std::lock_guard<std::mutex> lock(mu_);
        return static_cast<int64_t>(resident_bytes_);
      });
  registry_->SetCallbackGauge(
      "vas_catalog_mapped_bytes",
      "Total file bytes of currently mmap'd catalog stores.", {}, [this]() {
        return static_cast<int64_t>(memory_stats().mapped_bytes);
      });
  registry_->SetCallbackGauge(
      "vas_catalog_touched_page_bytes",
      "Bytes of mapped catalog pages actually faulted in (CRC-verified).",
      {}, [this]() {
        return static_cast<int64_t>(memory_stats().touched_page_bytes);
      });
}

CatalogManager::~CatalogManager() {
  // The gauge callbacks capture `this`; unhook them before any member
  // is torn down in case the registry outlives this manager.
  registry_->RemoveCallbackGauge("vas_catalog_resident_bytes", {});
  registry_->RemoveCallbackGauge("vas_catalog_mapped_bytes", {});
  registry_->RemoveCallbackGauge("vas_catalog_touched_page_bytes", {});
  // Drain the pool first: every rung task and finalize task completes
  // before spill cleanup, so a late finalization cannot create a spill
  // file after we removed them. Spill files are cache state owned by
  // this manager.
  pool_.Shutdown();
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, entry] : entries_) {
    // User-supplied catalog files registered via LoadCatalog are not
    // ours to delete; only manager-created spill files are cache state.
    if (!entry->spill_path.empty() && entry->owns_spill_file) {
      std::remove(entry->spill_path.c_str());
    }
  }
}

Status CatalogManager::Insert(const CatalogKey& key,
                              std::shared_ptr<Entry> entry) {
  auto [it, inserted] = entries_.try_emplace(key, std::move(entry));
  if (!inserted) {
    return Status::InvalidArgument("catalog already registered: " +
                                   key.ToString());
  }
  TouchLocked(*it->second);
  return Status::OK();
}

Status CatalogManager::StartBuild(const CatalogKey& key,
                                  std::shared_ptr<const vas::Dataset> dataset,
                                  SamplerFactory sampler_factory,
                                  SampleCatalog::Options options) {
  if (dataset == nullptr) {
    return Status::InvalidArgument("null dataset for " + key.ToString());
  }
  auto entry = std::make_shared<Entry>();
  entry->dataset = dataset;
  entry->builder = std::make_shared<SampleCatalog::Builder>(
      std::move(dataset), std::move(sampler_factory), std::move(options),
      &pool_, [counter = rungs_built_](size_t, size_t) {
        counter->Increment();
      });
  entry->rungs_total = entry->builder->rungs_total();
  {
    std::lock_guard<std::mutex> lock(mu_);
    VAS_RETURN_IF_ERROR(Insert(key, entry));
  }
  // Outside the map lock: submission is cheap, but a null pool would
  // build inline and serving queries must not stall behind it.
  entry->builder->Start();
  // Eager finalization: fold the finished ladder into the residency
  // accounting even when no query ever touches this key — otherwise it
  // would sit inside the Builder, invisible to the memory budget. The
  // task is queued behind this build's rung tasks, so it only ever
  // waits on rungs already running on other workers (never on queued
  // work) and cannot deadlock the pool.
  pool_.Submit([this, key, entry, builder = entry->builder]() {
    builder->Wait();
    Finalize(key, entry, builder);
  });
  return Status::OK();
}

Status CatalogManager::AddCatalog(const CatalogKey& key,
                                  std::shared_ptr<const Dataset> dataset,
                                  SampleCatalog catalog) {
  if (dataset == nullptr) {
    return Status::InvalidArgument("null dataset for " + key.ToString());
  }
  if (catalog.samples().empty()) {
    return Status::InvalidArgument("empty catalog for " + key.ToString());
  }
  VAS_RETURN_IF_ERROR(ValidateCatalogAgainst(catalog, dataset->size()));
  VAS_RETURN_IF_ERROR(catalog.LayOut(*dataset));
  auto entry = std::make_shared<Entry>();
  entry->dataset = std::move(dataset);
  entry->rungs_total = catalog.samples().size();
  entry->catalog = std::make_shared<const SampleCatalog>(std::move(catalog));
  entry->bytes = CatalogMemoryBytes(*entry->catalog);
  std::vector<SpillJob> spills;
  {
    std::lock_guard<std::mutex> lock(mu_);
    VAS_RETURN_IF_ERROR(Insert(key, entry));
    resident_bytes_ += entry->bytes;
    EnforceBudgetLocked(entry.get(), &spills);
  }
  PerformSpills(std::move(spills));
  return Status::OK();
}

Status CatalogManager::LoadCatalog(const CatalogKey& key,
                                   std::shared_ptr<const Dataset> dataset,
                                   const std::string& path) {
  // File problems (missing, unreadable, not a CAT2 catalog) are
  // diagnosed before argument problems so callers see the actionable
  // error. The mapping registers cold, without materializing a single
  // rung: the metadata is enough to reject files whose ids cannot
  // belong to this dataset, and per-page CRCs and exact id range checks
  // happen lazily as pages are first touched.
  VAS_ASSIGN_OR_RETURN(std::shared_ptr<const CatalogStore> store,
                       CatalogStore::Open(path));
  if (dataset == nullptr) {
    return Status::InvalidArgument("null dataset for " + key.ToString());
  }
  for (size_t k = 0; k < store->rung_count(); ++k) {
    const CatalogStore::Rung& rung = store->rung(k);
    if (rung.count > 0 && rung.max_id >= dataset->size()) {
      return Status::InvalidArgument("catalog ids out of dataset range: " +
                                     path);
    }
  }
  auto entry = std::make_shared<Entry>();
  entry->dataset = std::move(dataset);
  entry->rungs_total = store->rung_count();
  entry->store = std::move(store);
  entry->spill_path = path;
  entry->spill_valid = true;
  entry->owns_spill_file = false;
  std::lock_guard<std::mutex> lock(mu_);
  return Insert(key, std::move(entry));
}

Status CatalogManager::SaveCatalog(const CatalogKey& key,
                                   const std::string& path) {
  std::shared_ptr<Entry> entry = FindEntry(key);
  VAS_ASSIGN_OR_RETURN(
      CatalogView view,
      Resolve(key, entry, WaitMode::kAll, /*in_memory=*/true));
  // The dataset is at hand, so saved files get real cell partitioning
  // (partial tile loads).
  CatalogWriteOptions options;
  options.dataset = entry->dataset.get();
  return WriteCatalogPaged(*view.resident(), path, options);
}

Status CatalogManager::Drop(const CatalogKey& key) {
  std::string spill_path;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      return Status::NotFound("no catalog registered: " + key.ToString());
    }
    Entry& entry = *it->second;
    if (entry.builder != nullptr && !entry.builder->done()) {
      return Status::FailedPrecondition("build still running: " +
                                        key.ToString());
    }
    if (entry.catalog != nullptr) resident_bytes_ -= entry.bytes;
    if (entry.owns_spill_file) spill_path = entry.spill_path;
    entries_.erase(it);
  }
  if (!spill_path.empty()) std::remove(spill_path.c_str());
  return Status::OK();
}

std::shared_ptr<CatalogManager::Entry> CatalogManager::FindEntry(
    const CatalogKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : it->second;
}

void CatalogManager::TouchLocked(Entry& entry) const {
  entry.last_used = ++use_clock_;
}

void CatalogManager::EnforceBudgetLocked(const Entry* keep,
                                         std::vector<SpillJob>* jobs) const {
  if (options_.memory_budget_bytes == 0) return;
  // Entries already spilling (here or on another thread) are as good as
  // evicted — count them out of the projected residency so this pass
  // queues only the additional evictions actually needed.
  size_t pending = 0;
  for (const auto& [key, entry] : entries_) {
    if (entry->spilling) pending += entry->bytes;
  }
  while (resident_bytes_ - pending > options_.memory_budget_bytes) {
    std::shared_ptr<Entry> victim;
    const CatalogKey* victim_key = nullptr;
    bool victim_free = false;
    for (const auto& [key, entry] : entries_) {
      if (entry.get() == keep || entry->builder != nullptr ||
          entry->catalog == nullptr || entry->spilling) {
        continue;
      }
      // Cost-aware selection: evicting an entry whose backing file is
      // current is free (drop the in-memory ladder, keep the mapping),
      // so any such entry beats any entry that would need a spill
      // write; within a cost class, least recently used wins.
      const bool free_evict = entry->spill_valid;
      const bool better =
          victim == nullptr || (free_evict && !victim_free) ||
          (free_evict == victim_free && entry->last_used < victim->last_used);
      if (better) {
        victim = entry;
        victim_key = &key;
        victim_free = free_evict;
      }
    }
    if (victim == nullptr) return;  // nothing evictable; budget best-effort
    if (victim->spill_valid) {
      // The backing file is already current: evict without touching
      // disk. (The mmap, if any, stays open — mapped pages are clean
      // file-backed memory the OS can reclaim, and the next tile
      // faults in only what it touches.)
      victim->catalog = nullptr;
      resident_bytes_ -= victim->bytes;
      evictions_free_->Increment();
      continue;
    }
    if (victim->spill_path.empty()) {
      // The sequence number keeps the path unique even when distinct
      // keys sanitize to the same name ("t:1" and "t_1" both flatten
      // to "t_1"); the sanitized key is readability only.
      victim->spill_path =
          options_.spill_dir + "/vas_spill_" + spill_token_ + "_" +
          std::to_string(++spill_seq_) + "_" +
          SanitizeForFilename(victim_key->ToString()) + ".vascat";
    }
    // The write itself happens off-lock (PerformSpills); until it
    // completes the ladder stays resident and servable.
    victim->spilling = true;
    pending += victim->bytes;
    jobs->push_back(
        SpillJob{*victim_key, victim, victim->catalog, victim->spill_path});
  }
}

void CatalogManager::PerformSpills(std::vector<SpillJob> jobs) const {
  for (SpillJob& job : jobs) {
    // The expensive serialization runs with no manager lock held, so
    // other keys' snapshots, builds, and reloads proceed concurrently.
    // Given the entry's dataset, the writer lays each rung out by
    // grid cell, so the file supports partial (per-cell) loads when
    // served back.
    CatalogWriteOptions options;
    options.dataset = job.entry->dataset.get();
    Status written = WriteCatalogPaged(*job.catalog, job.path, options);
    bool mapped = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      job.entry->spilling = false;
      auto it = entries_.find(job.key);
      mapped = it != entries_.end() && it->second == job.entry;
      if (written.ok() && mapped) {
        job.entry->spill_valid = true;
        spill_writes_count_->Increment();
        if (job.entry->catalog != nullptr) {
          job.entry->catalog = nullptr;
          resident_bytes_ -= job.entry->bytes;
          evictions_spill_->Increment();
        }
      }
    }
    if (!written.ok()) {
      // Dropping an unpersisted ladder would lose it for good; it stays
      // resident and the budget is best-effort.
      spill_failures_count_->Increment();
      obs::Log(obs::LogLevel::kWarn, "catalog spill failed",
               obs::LogFields()
                   .Add("catalog", job.key.ToString())
                   .Add("error", written.ToString()));
    } else if (!mapped) {
      // Drop() raced the write and already deleted its spill path; the
      // file just created would otherwise leak.
      std::remove(job.path.c_str());
    }
  }
}

Status CatalogManager::EnsureStoreLocked(const CatalogKey& key,
                                         Entry& entry) const {
  if (entry.store != nullptr) return Status::OK();
  if (!entry.spill_valid) {
    return Status::Internal("catalog neither resident nor spilled: " +
                            key.ToString());
  }
  auto store = CatalogStore::Open(entry.spill_path);
  if (!store.ok()) {
    load_failures_open_->Increment();
    return Status::Internal("spill file corrupt for " + key.ToString() +
                            ": " + store.status().ToString());
  }
  entry.store = std::move(store).value();
  return Status::OK();
}

Status CatalogManager::ReloadLocked(const CatalogKey& key, Entry& entry,
                                    std::vector<SpillJob>* jobs) const {
  // Reading back through the mapped store reuses its verified pages, and
  // each rung's layout comes with it from the file.
  VAS_RETURN_IF_ERROR(EnsureStoreLocked(key, entry));
  // A damaged (or swapped) spill file must never reach a session: ids
  // out of range for the entry's dataset would index out of bounds.
  // ReadAll checks each id as it reads it; against 0 rows it checks
  // none, and then any id at all is out of range.
  const size_t rows = entry.dataset->size();
  auto loaded = entry.store->ReadAll(rows);
  Status valid = loaded.status();
  if (valid.ok() && rows == 0) valid = ValidateCatalogAgainst(*loaded, 0);
  if (!valid.ok()) {
    load_failures_read_->Increment();
    return Status::Internal("spill file corrupt for " + key.ToString() +
                            ": " + valid.ToString());
  }
  entry.catalog =
      std::make_shared<const SampleCatalog>(std::move(loaded).value());
  entry.bytes = CatalogMemoryBytes(*entry.catalog);
  resident_bytes_ += entry.bytes;
  reloads_count_->Increment();
  EnforceBudgetLocked(&entry, jobs);
  return Status::OK();
}

void CatalogManager::Finalize(
    const CatalogKey& key, const std::shared_ptr<Entry>& entry,
    const std::shared_ptr<SampleCatalog::Builder>& builder) const {
  // Wait() returns immediately — the caller observed done() — and
  // yields the builder's final published snapshot.
  std::shared_ptr<const SampleCatalog> catalog = builder->Wait();
  std::vector<SpillJob> spills;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (entry->builder != builder) return;  // a racing caller finalized
    entry->builder = nullptr;
    entry->catalog = std::move(catalog);
    entry->bytes = CatalogMemoryBytes(*entry->catalog);
    // A concurrent Drop() may have unmapped the entry while we waited;
    // its handle still serves the finished ladder to in-flight callers,
    // but a ghost entry must not enter the residency accounting (the
    // bytes could never be evicted back out).
    auto it = entries_.find(key);
    if (it == entries_.end() || it->second != entry) return;
    resident_bytes_ += entry->bytes;
    TouchLocked(*entry);
    EnforceBudgetLocked(entry.get(), &spills);
  }
  PerformSpills(std::move(spills));
}

StatusOr<CatalogView> CatalogManager::Resolve(
    const CatalogKey& key, const std::shared_ptr<Entry>& entry,
    WaitMode mode, bool in_memory) const {
  if (entry == nullptr) {
    return Status::NotFound("no catalog registered: " + key.ToString());
  }
  std::unique_lock<std::mutex> lock(mu_);
  while (entry->builder != nullptr) {
    std::shared_ptr<SampleCatalog::Builder> builder = entry->builder;
    lock.unlock();
    // Build in flight: wait (or peek) against the builder with no
    // manager lock held, so other keys keep serving.
    std::shared_ptr<const SampleCatalog> snapshot;
    switch (mode) {
      case WaitMode::kNone:
        snapshot = builder->Snapshot();
        break;
      case WaitMode::kFirstRung:
        snapshot = builder->WaitForRung(1);
        break;
      case WaitMode::kAll:
        snapshot = builder->Wait();
        break;
    }
    if (!builder->done()) {
      if (snapshot == nullptr) {
        return Status::FailedPrecondition("no rung built yet: " +
                                          key.ToString());
      }
      return CatalogView(std::move(snapshot));
    }
    // The ladder just completed: move the product out of the builder
    // (freeing its working copy) and serve it below.
    Finalize(key, entry, builder);
    lock.lock();
  }
  // Finished (or registered pre-built). An entry unmapped by a
  // concurrent Drop() still serves its in-memory ladder to this
  // in-flight handle, but is gone once spilled (Drop deleted the spill
  // file) and never re-enters the LRU accounting.
  auto it = entries_.find(key);
  const bool mapped = it != entries_.end() && it->second == entry;
  std::vector<SpillJob> spills;
  if (entry->catalog == nullptr) {
    if (!mapped) {
      return Status::NotFound("no catalog registered: " + key.ToString());
    }
    // A reload queues evictions only once it has succeeded, so an error
    // returned here leaves no spill job behind.
    VAS_RETURN_IF_ERROR(in_memory ? ReloadLocked(key, *entry, &spills)
                                  : EnsureStoreLocked(key, *entry));
  }
  if (mapped) TouchLocked(*entry);
  // A spilled ladder served through its mapping stays cold: a tile
  // render afterwards faults in only the pages its cells intersect.
  StatusOr<CatalogView> view =
      entry->catalog != nullptr
          ? CatalogView(entry->catalog)
          : CatalogView(entry->store, entry->dataset->size());
  lock.unlock();
  // Evictions the reload displaced are written only after the lock is
  // released — the whole point of off-lock spilling.
  PerformSpills(std::move(spills));
  return view;
}

StatusOr<CatalogView> CatalogManager::ViewFor(const CatalogKey& key) const {
  return Resolve(key, FindEntry(key), WaitMode::kFirstRung,
                 /*in_memory=*/false);
}

StatusOr<CatalogManager::BuildStatus> CatalogManager::GetStatus(
    const CatalogKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return Status::NotFound("no catalog registered: " + key.ToString());
  }
  const Entry& entry = *it->second;
  BuildStatus status;
  status.rungs_total = entry.rungs_total;
  if (entry.builder != nullptr) {
    status.rungs_ready = entry.builder->rungs_ready();
    status.done = entry.builder->done();
  } else {
    status.rungs_ready = entry.rungs_total;
    status.done = true;
    status.resident = entry.catalog != nullptr;
    status.mapped = entry.store != nullptr;
    status.memory_bytes = entry.bytes;
  }
  return status;
}

StatusOr<std::shared_ptr<const SampleCatalog>> CatalogManager::Snapshot(
    const CatalogKey& key) const {
  return ResidentLadder(
      Resolve(key, FindEntry(key), WaitMode::kNone, /*in_memory=*/true));
}

StatusOr<std::shared_ptr<const SampleCatalog>>
CatalogManager::WaitForFirstRung(const CatalogKey& key) const {
  return ResidentLadder(
      Resolve(key, FindEntry(key), WaitMode::kFirstRung, /*in_memory=*/true));
}

StatusOr<std::shared_ptr<const SampleCatalog>> CatalogManager::WaitUntilDone(
    const CatalogKey& key) const {
  return ResidentLadder(
      Resolve(key, FindEntry(key), WaitMode::kAll, /*in_memory=*/true));
}

CatalogManager::MemoryStats CatalogManager::memory_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  MemoryStats stats;
  stats.budget_bytes = options_.memory_budget_bytes;
  stats.resident_bytes = resident_bytes_;
  for (const auto& [key, entry] : entries_) {
    if (entry->store != nullptr) {
      stats.mapped_bytes += entry->store->file_bytes();
      stats.touched_page_bytes += entry->store->touched_bytes();
    }
  }
  return stats;
}

}  // namespace vas
