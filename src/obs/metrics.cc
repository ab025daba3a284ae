#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace vas::obs {

namespace {

std::atomic<bool> g_metrics_enabled{true};

/// Prometheus label values escape backslash, double-quote, and
/// newline.
std::string EscapeLabelValue(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

/// `{a="1",b="2"}` or "" for an empty set. Doubles as the child map
/// key (escaping makes it injective).
std::string SerializeLabels(const LabelSet& labels) {
  if (labels.empty()) return std::string();
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += key + "=\"" + EscapeLabelValue(value) + "\"";
  }
  out += "}";
  return out;
}

/// Like SerializeLabels but with one extra label appended (histogram
/// `le`).
std::string SerializeLabelsWith(const LabelSet& labels,
                                const std::string& extra_key,
                                const std::string& extra_value) {
  LabelSet with = labels;
  with.emplace_back(extra_key, extra_value);
  return SerializeLabels(with);
}

}  // namespace

bool MetricsEnabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

void SetMetricsEnabled(bool enabled) {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

namespace internal {
size_t ShardIndex() {
  static std::atomic<size_t> next{0};
  thread_local const size_t idx =
      next.fetch_add(1, std::memory_order_relaxed);
  return idx & (kShards - 1);
}
}  // namespace internal

Histogram::Histogram(std::vector<uint64_t> boundaries)
    : boundaries_(std::move(boundaries)), shards_(internal::kShards) {
  for (size_t i = 1; i < boundaries_.size(); ++i) {
    if (boundaries_[i] <= boundaries_[i - 1]) {
      std::fprintf(stderr,
                   "obs::Histogram: boundaries must be strictly ascending\n");
      std::abort();
    }
  }
  for (Shard& shard : shards_) {
    shard.buckets = std::vector<std::atomic<uint64_t>>(boundaries_.size() + 1);
  }
}

void Histogram::Observe(uint64_t value) {
  if (!MetricsEnabled()) return;
  // First boundary >= value; everything past the last lands in +Inf.
  size_t bucket = boundaries_.size();
  size_t lo = 0, hi = boundaries_.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (value <= boundaries_[mid]) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  bucket = lo;
  Shard& shard = shards_[internal::ShardIndex()];
  shard.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  shard.sum.fetch_add(value, std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
}

uint64_t Histogram::TotalCount() const {
  uint64_t total = 0;
  for (const Shard& s : shards_) {
    total += s.count.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t Histogram::Sum() const {
  uint64_t total = 0;
  for (const Shard& s : shards_) total += s.sum.load(std::memory_order_relaxed);
  return total;
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> out(boundaries_.size() + 1, 0);
  for (const Shard& s : shards_) {
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] += s.buckets[i].load(std::memory_order_relaxed);
    }
  }
  return out;
}

double Histogram::Quantile(double q) const {
  std::vector<uint64_t> buckets = BucketCounts();
  uint64_t total = 0;
  for (uint64_t c : buckets) total += c;
  if (total == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  double rank = q * static_cast<double>(total);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    uint64_t next = cumulative + buckets[i];
    if (static_cast<double>(next) >= rank) {
      if (i == boundaries_.size()) {
        // +Inf bucket: the histogram cannot resolve past its last
        // boundary — report that boundary (a floor, not an estimate).
        return boundaries_.empty()
                   ? 0.0
                   : static_cast<double>(boundaries_.back());
      }
      double lower = i == 0 ? 0.0 : static_cast<double>(boundaries_[i - 1]);
      double upper = static_cast<double>(boundaries_[i]);
      double into = (rank - static_cast<double>(cumulative)) /
                    static_cast<double>(buckets[i]);
      return lower + (upper - lower) * into;
    }
    cumulative = next;
  }
  return boundaries_.empty() ? 0.0 : static_cast<double>(boundaries_.back());
}

const std::vector<uint64_t>& LatencyBoundariesNs() {
  static const std::vector<uint64_t> boundaries = [] {
    // 1µs .. 10s, 1/2.5/5 per decade.
    std::vector<uint64_t> out;
    for (uint64_t decade = 1000; decade <= 1000000000ull; decade *= 10) {
      out.push_back(decade);
      out.push_back(decade * 5 / 2);
      out.push_back(decade * 5);
    }
    out.push_back(10000000000ull);  // 10s
    return out;
  }();
  return boundaries;
}

MetricsRegistry::Family* MetricsRegistry::FamilyFor(const std::string& name,
                                                    const std::string& help,
                                                    Kind kind) {
  auto [it, inserted] = families_.try_emplace(name);
  Family& family = it->second;
  if (inserted) {
    family.kind = kind;
    family.help = help;
  } else if (family.kind != kind) {
    std::fprintf(stderr,
                 "obs::MetricsRegistry: %s registered with two metric types\n",
                 name.c_str());
    std::abort();
  }
  return &family;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help,
                                     const LabelSet& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family* family = FamilyFor(name, help, Kind::kCounter);
  auto& child = family->children[SerializeLabels(labels)];
  if (child == nullptr) {
    child = std::make_unique<Child>();
    child->labels = labels;
    child->counter = std::make_unique<Counter>();
  }
  return child->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help,
                                 const LabelSet& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family* family = FamilyFor(name, help, Kind::kGauge);
  auto& child = family->children[SerializeLabels(labels)];
  if (child == nullptr) {
    child = std::make_unique<Child>();
    child->labels = labels;
    child->gauge = std::make_unique<Gauge>();
  }
  return child->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(
    const std::string& name, const std::string& help, const LabelSet& labels,
    const std::vector<uint64_t>& boundaries) {
  std::lock_guard<std::mutex> lock(mu_);
  Family* family = FamilyFor(name, help, Kind::kHistogram);
  auto& child = family->children[SerializeLabels(labels)];
  if (child == nullptr) {
    child = std::make_unique<Child>();
    child->labels = labels;
    child->histogram = std::make_unique<Histogram>(boundaries);
  }
  return child->histogram.get();
}

void MetricsRegistry::SetCallbackGauge(const std::string& name,
                                       const std::string& help,
                                       const LabelSet& labels,
                                       std::function<int64_t()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  Family* family = FamilyFor(name, help, Kind::kCallbackGauge);
  auto& child = family->children[SerializeLabels(labels)];
  if (child == nullptr) {
    child = std::make_unique<Child>();
    child->labels = labels;
  }
  child->callback = std::move(fn);
}

void MetricsRegistry::RemoveCallbackGauge(const std::string& name,
                                          const LabelSet& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = families_.find(name);
  if (it == families_.end()) return;
  it->second.children.erase(SerializeLabels(labels));
  if (it->second.children.empty()) families_.erase(it);
}

int64_t MetricsRegistry::Total(const std::string& name,
                               const LabelSet& match) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = families_.find(name);
  if (it == families_.end()) return 0;
  const Family& family = it->second;
  int64_t total = 0;
  for (const auto& entry : family.children) {
    const Child& child = *entry.second;
    bool matches = std::all_of(
        match.begin(), match.end(), [&child](const auto& label) {
          return std::find(child.labels.begin(), child.labels.end(),
                           label) != child.labels.end();
        });
    if (!matches) continue;
    switch (family.kind) {
      case Kind::kCounter:
        total += static_cast<int64_t>(child.counter->Value());
        break;
      case Kind::kGauge:
        total += child.gauge->Value();
        break;
      case Kind::kCallbackGauge:
        total += child.callback ? child.callback() : 0;
        break;
      case Kind::kHistogram:
        total += static_cast<int64_t>(child.histogram->Sum());
        break;
    }
  }
  return total;
}

std::string MetricsRegistry::RenderPrometheusText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, family] : families_) {
    if (!family.help.empty()) {
      out += "# HELP " + name + " " + family.help + "\n";
    }
    const char* type = "untyped";
    switch (family.kind) {
      case Kind::kCounter: type = "counter"; break;
      case Kind::kGauge:
      case Kind::kCallbackGauge: type = "gauge"; break;
      case Kind::kHistogram: type = "histogram"; break;
    }
    out += "# TYPE " + name + " " + std::string(type) + "\n";
    for (const auto& [label_key, child] : family.children) {
      switch (family.kind) {
        case Kind::kCounter:
          out += name + label_key + " " +
                 std::to_string(child->counter->Value()) + "\n";
          break;
        case Kind::kGauge:
          out += name + label_key + " " +
                 std::to_string(child->gauge->Value()) + "\n";
          break;
        case Kind::kCallbackGauge:
          out += name + label_key + " " +
                 std::to_string(child->callback ? child->callback() : 0) +
                 "\n";
          break;
        case Kind::kHistogram: {
          const Histogram& h = *child->histogram;
          std::vector<uint64_t> buckets = h.BucketCounts();
          uint64_t cumulative = 0;
          for (size_t i = 0; i < h.boundaries().size(); ++i) {
            cumulative += buckets[i];
            out += name + "_bucket" +
                   SerializeLabelsWith(child->labels, "le",
                                       std::to_string(h.boundaries()[i])) +
                   " " + std::to_string(cumulative) + "\n";
          }
          cumulative += buckets.back();
          out += name + "_bucket" +
                 SerializeLabelsWith(child->labels, "le", "+Inf") + " " +
                 std::to_string(cumulative) + "\n";
          out += name + "_sum" + label_key + " " + std::to_string(h.Sum()) +
                 "\n";
          out += name + "_count" + label_key + " " +
                 std::to_string(cumulative) + "\n";
          break;
        }
      }
    }
  }
  return out;
}

const char* MetricsRegistry::ExpositionContentType() {
  return "text/plain; version=0.0.4; charset=utf-8";
}

}  // namespace vas::obs
