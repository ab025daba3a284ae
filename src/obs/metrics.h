// Dependency-free metrics registry: the single source of truth for
// every counter the server reports. Components increment Counter /
// Gauge / Histogram objects on their hot paths (per-thread-sharded
// relaxed atomics, so concurrent writers never contend on a cache
// line), and the registry renders everything as Prometheus text
// exposition for GET /metrics. /stats-style JSON endpoints read the
// *same* families back by name (Total), so the two surfaces can never
// disagree.
//
// Naming convention: `vas_<layer>_<what>[_total]` with unit suffixes
// spelled out (`_ns`, `_bytes`); labels distinguish variants of one
// family (`vas_tile_render_ns{style="scatter"}`). Durations are
// observed in nanoseconds against LatencyBoundariesNs().
//
// A process-wide kill switch (SetMetricsEnabled) turns every
// Increment/Observe/Set into a cheap no-op — benches use it to measure
// instrumentation overhead against the same binary.
#ifndef VAS_OBS_METRICS_H_
#define VAS_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace vas::obs {

/// Process-wide instrumentation switch. Disabled, every metric write
/// returns after one relaxed load; reads (Value/Render) still work on
/// whatever was recorded while enabled.
bool MetricsEnabled();
void SetMetricsEnabled(bool enabled);

/// Label key/value pairs identifying one child of a metric family.
/// Order matters for identity; callers should pass a consistent order.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

namespace internal {
/// Shard count for per-thread striping. Power of two; each thread
/// hashes to one shard for its whole life, so concurrent writers on
/// different threads usually touch different cache lines.
constexpr size_t kShards = 16;
size_t ShardIndex();
}  // namespace internal

/// Monotonically increasing event count. Lock-free, write-sharded.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(uint64_t n = 1) {
    if (!MetricsEnabled()) return;
    shards_[internal::ShardIndex()].v.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  Shard shards_[internal::kShards];
};

/// Point-in-time signed value (queue depth, open connections).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) {
    if (!MetricsEnabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void Add(int64_t delta) {
    if (!MetricsEnabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-boundary histogram over uint64 values (nanoseconds by
/// convention). Observe() is lock-free and write-sharded like Counter;
/// Quantile() interpolates within the landing bucket, which is exact
/// enough for p95/p99 over exponential boundaries.
class Histogram {
 public:
  /// `boundaries` are inclusive upper bounds, strictly ascending;
  /// values above the last boundary land in the implicit +Inf bucket.
  explicit Histogram(std::vector<uint64_t> boundaries);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(uint64_t value);

  uint64_t TotalCount() const;
  /// Sum of observed values (same unit as the observations).
  uint64_t Sum() const;
  /// Per-bucket (non-cumulative) counts; the last entry is +Inf.
  std::vector<uint64_t> BucketCounts() const;
  const std::vector<uint64_t>& boundaries() const { return boundaries_; }

  /// Approximate q-quantile (0 < q <= 1) of the observed values,
  /// linearly interpolated inside the landing bucket. Returns 0 with
  /// no observations; values in the +Inf bucket report the last
  /// boundary (the histogram cannot resolve beyond it).
  double Quantile(double q) const;

 private:
  struct alignas(64) Shard {
    /// buckets[0..n-1] per boundary, buckets[n] = +Inf overflow.
    std::vector<std::atomic<uint64_t>> buckets;
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> count{0};
  };
  const std::vector<uint64_t> boundaries_;
  std::vector<Shard> shards_;
};

/// The default duration boundaries: 1µs .. 10s in a 1/2.5/5 decade
/// ladder, in nanoseconds — wide enough for queue waits and cold
/// renders alike.
const std::vector<uint64_t>& LatencyBoundariesNs();

/// Owns metric families and renders them as Prometheus text. Lookup /
/// registration takes a mutex (do it once at wiring time, not per
/// request); the returned pointers are valid for the registry's
/// lifetime and their write paths are lock-free.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the counter for (name, labels), creating the family on
  /// first use. `help` is recorded on first registration. Aborts when
  /// `name` is already registered as a different metric type.
  Counter* GetCounter(const std::string& name, const std::string& help,
                      const LabelSet& labels = {});
  Gauge* GetGauge(const std::string& name, const std::string& help,
                  const LabelSet& labels = {});
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          const LabelSet& labels = {},
                          const std::vector<uint64_t>& boundaries =
                              LatencyBoundariesNs());

  /// Registers a gauge whose value is computed at render time (e.g.
  /// resident bytes behind a component mutex). The callback must stay
  /// valid until RemoveCallbackGauge — components register in their
  /// constructor and remove in their destructor.
  void SetCallbackGauge(const std::string& name, const std::string& help,
                        const LabelSet& labels, std::function<int64_t()> fn);
  void RemoveCallbackGauge(const std::string& name, const LabelSet& labels);

  /// Sum over the children of family `name` whose labels include every
  /// pair in `match`: counter and gauge values, callback-gauge results,
  /// and histogram observation sums. 0 for an absent name, which is
  /// never registered as a side effect. Takes the registry mutex like
  /// RenderPrometheusText: it serves read-back surfaces (/stats,
  /// /status) and tests, not hot paths.
  int64_t Total(const std::string& name, const LabelSet& match = {}) const;

  /// Prometheus text exposition (format version 0.0.4): families
  /// sorted by name, each with # HELP / # TYPE, histogram children
  /// expanded to cumulative _bucket{le=...} / _sum / _count series.
  std::string RenderPrometheusText() const;

  /// Content-Type for RenderPrometheusText() responses.
  static const char* ExpositionContentType();

 private:
  enum class Kind { kCounter, kGauge, kHistogram, kCallbackGauge };
  struct Child {
    LabelSet labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<int64_t()> callback;
  };
  struct Family {
    Kind kind = Kind::kCounter;
    std::string help;
    /// Keyed by serialized label set for identity; pointers stable.
    std::map<std::string, std::unique_ptr<Child>> children;
  };

  Family* FamilyFor(const std::string& name, const std::string& help,
                    Kind kind);

  mutable std::mutex mu_;
  std::map<std::string, Family> families_;
};

}  // namespace vas::obs

#endif  // VAS_OBS_METRICS_H_
