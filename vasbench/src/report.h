// Measurement helpers of the benchmark: clocks, percentiles from raw
// samples, the span recorder of the traced run, and the result line.
#ifndef VASBENCH_REPORT_H_
#define VASBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace vasbench {

/// steady_clock in nanoseconds.
uint64_t NowNs();
/// CPU time of the whole process / of the calling thread, in seconds.
double ProcessCpuSeconds();
double ThreadCpuSeconds();
/// Peak resident set of the process, MiB.
double PeakRssMiB();

/// q-quantile (0..1) of raw samples, linearly interpolated between the
/// order statistics. Sorts `values`. 0 for an empty set.
double Quantile(std::vector<double>* values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// q-quantile of the observations a histogram gained between two
/// BucketCounts() snapshots, interpolated inside the landing bucket.
double HistogramDeltaQuantile(const vas::obs::Histogram& histogram,
                              const std::vector<uint64_t>& before,
                              const std::vector<uint64_t>& after, double q);

/// One timed call. `parent` indexes the recorder's span list (-1 for a
/// root); `request` groups the spans of one request.
struct Span {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  long parent = -1;
  long request = -1;
  double us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

/// Spans kept in memory for the run and written out at its end.
/// Thread-safe.
class SpanRecorder {
 public:
  long Add(Span span);
  std::vector<Span> spans() const;
  /// Durations in microseconds of every span called `name`.
  std::vector<double> DurationsUs(const std::string& name) const;
  /// Writes every span as one JSON document.
  bool WriteJson(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Named metrics with units, printed in insertion order.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// The single result line: {"correct","attempted","failed","metrics"}.
  std::string ResultLine(bool correct, uint64_t attempted,
                         uint64_t failed) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

}  // namespace vasbench

#endif  // VASBENCH_REPORT_H_
