#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>

namespace vasbench {

namespace {

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

}  // namespace

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Quantile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const double rank = q * static_cast<double>(values->size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values->size() - 1);
  const double a = (*values)[lo];
  const double b = (*values)[hi];
  if (std::isinf(a) || std::isinf(b)) return std::isinf(a) ? a : (rank == lo ? a : b);
  return a + (b - a) * (rank - static_cast<double>(lo));
}

double Median(std::vector<double> values) { return Quantile(&values, 0.5); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double HistogramDeltaQuantile(const vas::obs::Histogram& histogram,
                              const std::vector<uint64_t>& before,
                              const std::vector<uint64_t>& after, double q) {
  const std::vector<uint64_t>& bounds = histogram.boundaries();
  std::vector<uint64_t> delta(after.size(), 0);
  uint64_t total = 0;
  for (size_t i = 0; i < after.size(); ++i) {
    delta[i] = after[i] - (i < before.size() ? before[i] : 0);
    total += delta[i];
  }
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  uint64_t seen = 0;
  for (size_t i = 0; i < delta.size(); ++i) {
    if (delta[i] == 0) continue;
    if (static_cast<double>(seen + delta[i]) >= target) {
      if (i >= bounds.size()) return static_cast<double>(bounds.back());
      const double lo = i == 0 ? 0.0 : static_cast<double>(bounds[i - 1]);
      const double hi = static_cast<double>(bounds[i]);
      const double within =
          (target - static_cast<double>(seen)) / static_cast<double>(delta[i]);
      return lo + (hi - lo) * within;
    }
    seen += delta[i];
  }
  return static_cast<double>(bounds.back());
}

long SpanRecorder::Add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<long>(spans_.size()) - 1;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> SpanRecorder::DurationsUs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.us());
  }
  return out;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fputs("{\"spans\":[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":%s,\"start_ns\":%llu,\"end_ns\":%llu,"
                 "\"parent\":%ld,\"request\":%ld}%s\n",
                 i, JsonString(s.name).c_str(),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), s.parent, s.request,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& item : items_) {
    if (item.first == name) {
      item.second = {value, unit};
      return;
    }
  }
  items_.push_back({name, {value, unit}});
}

std::string Metrics::ResultLine(bool correct, uint64_t attempted,
                                uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(items_[i].first) + ": {\"value\": " +
           JsonNumber(items_[i].second.first) +
           ", \"unit\": " + JsonString(items_[i].second.second) + "}";
  }
  out += "}}";
  return out;
}

}  // namespace vasbench
