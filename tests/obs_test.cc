// The observability layer: sharded counters and histograms staying
// exact under concurrent writers, the Prometheus text exposition
// (golden-checked), read-back by name (MetricsRegistry::Total), request
// traces and the ring at /debug/requests, and the structured log line
// formats.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vas::obs {
namespace {

TEST(CounterTest, CountsExactlyAcrossThreads) {
  Counter counter;
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter]() {
      for (size_t i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST(CounterTest, IncrementByDelta) {
  Counter counter;
  counter.Increment(5);
  counter.Increment(37);
  EXPECT_EQ(counter.Value(), 42u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge gauge;
  EXPECT_EQ(gauge.Value(), 0);
  gauge.Set(10);
  gauge.Add(-3);
  EXPECT_EQ(gauge.Value(), 7);
  gauge.Add(-20);
  EXPECT_EQ(gauge.Value(), -13);  // gauges go negative, counters don't
}

TEST(MetricsEnabledTest, DisabledWritesAreDropped) {
  Counter counter;
  Gauge gauge;
  Histogram histogram({10, 100});
  SetMetricsEnabled(false);
  counter.Increment();
  gauge.Set(5);
  histogram.Observe(7);
  SetMetricsEnabled(true);
  EXPECT_EQ(counter.Value(), 0u);
  EXPECT_EQ(gauge.Value(), 0);
  EXPECT_EQ(histogram.TotalCount(), 0u);
  counter.Increment();  // and writes resume once re-enabled
  EXPECT_EQ(counter.Value(), 1u);
}

TEST(HistogramTest, BucketsSumAndCount) {
  Histogram histogram({10, 100, 1000});
  histogram.Observe(5);     // <= 10
  histogram.Observe(10);    // boundary is inclusive
  histogram.Observe(99);    // <= 100
  histogram.Observe(5000);  // +Inf overflow
  EXPECT_EQ(histogram.TotalCount(), 4u);
  EXPECT_EQ(histogram.Sum(), 5u + 10 + 99 + 5000);
  std::vector<uint64_t> buckets = histogram.BucketCounts();
  ASSERT_EQ(buckets.size(), 4u);  // 3 boundaries + overflow
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 0u);
  EXPECT_EQ(buckets[3], 1u);
}

TEST(HistogramTest, CountsExactlyAcrossThreads) {
  Histogram histogram(LatencyBoundariesNs());
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 5000;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t]() {
      for (size_t i = 0; i < kPerThread; ++i) {
        histogram.Observe(1000 * (t + 1));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(histogram.TotalCount(), kThreads * kPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t c : histogram.BucketCounts()) bucket_total += c;
  EXPECT_EQ(bucket_total, kThreads * kPerThread);
}

TEST(HistogramTest, QuantileInterpolates) {
  Histogram histogram({100, 200});
  // 100 observations uniform in the (100, 200] bucket: the median
  // interpolates to mid-bucket.
  for (int i = 0; i < 100; ++i) histogram.Observe(150);
  double p50 = histogram.Quantile(0.5);
  EXPECT_GT(p50, 100.0);
  EXPECT_LE(p50, 200.0);
  EXPECT_EQ(histogram.Quantile(0.0), histogram.Quantile(-1.0));
}

TEST(HistogramTest, QuantileOfOverflowReportsLastBoundary) {
  Histogram histogram({100, 200});
  histogram.Observe(100000);
  EXPECT_EQ(histogram.Quantile(0.99), 200.0);
}

TEST(HistogramTest, EmptyQuantileIsZero) {
  Histogram histogram({100});
  EXPECT_EQ(histogram.Quantile(0.95), 0.0);
}

TEST(LatencyBoundariesTest, StrictlyAscendingMicrosecondsToTenSeconds) {
  const std::vector<uint64_t>& b = LatencyBoundariesNs();
  ASSERT_FALSE(b.empty());
  EXPECT_EQ(b.front(), 1000u);           // 1µs
  EXPECT_EQ(b.back(), 10000000000ull);   // 10s
  for (size_t i = 1; i < b.size(); ++i) EXPECT_LT(b[i - 1], b[i]);
}

TEST(MetricsRegistryTest, SameNameAndLabelsReturnsSameObject) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("t_total", "help", {{"k", "v"}});
  Counter* b = registry.GetCounter("t_total", "help", {{"k", "v"}});
  Counter* c = registry.GetCounter("t_total", "help", {{"k", "other"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(MetricsRegistryTest, ExpositionGolden) {
  MetricsRegistry registry;
  registry.GetCounter("vas_a_total", "A counter.")->Increment(3);
  registry.GetGauge("vas_b", "A gauge.")->Set(-2);
  Histogram* h = registry.GetHistogram("vas_c_ns", "A histogram.", {},
                                       std::vector<uint64_t>{10, 100});
  h->Observe(5);
  h->Observe(50);
  h->Observe(500);
  EXPECT_EQ(registry.RenderPrometheusText(),
            "# HELP vas_a_total A counter.\n"
            "# TYPE vas_a_total counter\n"
            "vas_a_total 3\n"
            "# HELP vas_b A gauge.\n"
            "# TYPE vas_b gauge\n"
            "vas_b -2\n"
            "# HELP vas_c_ns A histogram.\n"
            "# TYPE vas_c_ns histogram\n"
            "vas_c_ns_bucket{le=\"10\"} 1\n"
            "vas_c_ns_bucket{le=\"100\"} 2\n"
            "vas_c_ns_bucket{le=\"+Inf\"} 3\n"
            "vas_c_ns_sum 555\n"
            "vas_c_ns_count 3\n");
}

TEST(MetricsRegistryTest, LabelValuesAreEscaped) {
  MetricsRegistry registry;
  registry.GetCounter("vas_l_total", "", {{"path", "a\\b\"c\nd"}})
      ->Increment();
  std::string text = registry.RenderPrometheusText();
  EXPECT_NE(text.find("vas_l_total{path=\"a\\\\b\\\"c\\nd\"} 1\n"),
            std::string::npos);
}

TEST(MetricsRegistryTest, CallbackGaugeRendersLiveValue) {
  MetricsRegistry registry;
  int64_t value = 41;
  registry.SetCallbackGauge("vas_cb", "Live.", {},
                            [&value]() { return value; });
  value = 42;
  std::string text = registry.RenderPrometheusText();
  EXPECT_NE(text.find("vas_cb 42\n"), std::string::npos);
  registry.RemoveCallbackGauge("vas_cb", {});
  EXPECT_EQ(registry.RenderPrometheusText().find("vas_cb"),
            std::string::npos);
}

TEST(MetricsRegistryTest, ConcurrentRegistrationAndWrites) {
  MetricsRegistry registry;
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 2000;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry]() {
      for (size_t i = 0; i < kPerThread; ++i) {
        registry.GetCounter("vas_conc_total", "shared")->Increment();
        registry
            .GetHistogram("vas_conc_ns", "shared", {},
                          std::vector<uint64_t>{100, 1000})
            ->Observe(i);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.GetCounter("vas_conc_total", "shared")->Value(),
            kThreads * kPerThread);
  EXPECT_EQ(registry
                .GetHistogram("vas_conc_ns", "shared", {},
                              std::vector<uint64_t>{100, 1000})
                ->TotalCount(),
            kThreads * kPerThread);
}

TEST(MetricsRegistryTest, TotalReadsEveryFamilyKind) {
  MetricsRegistry registry;
  registry.GetCounter("vas_t_total", "")->Increment(7);
  registry.GetGauge("vas_t_gauge", "")->Set(-3);
  Histogram* h = registry.GetHistogram("vas_t_ns", "", {},
                                       std::vector<uint64_t>{10, 100});
  h->Observe(5);
  h->Observe(500);
  int calls = 0;
  registry.SetCallbackGauge("vas_t_live", "", {}, [&calls]() {
    ++calls;
    return int64_t{11};
  });
  EXPECT_EQ(registry.Total("vas_t_total"), 7);
  EXPECT_EQ(registry.Total("vas_t_gauge"), -3);
  EXPECT_EQ(registry.Total("vas_t_ns"), 505) << "histograms sum observations";
  EXPECT_EQ(registry.Total("vas_t_live"), 11);
  EXPECT_EQ(calls, 1) << "a callback gauge is evaluated at read time";
}

TEST(MetricsRegistryTest, TotalMatchesLabelSubsets) {
  MetricsRegistry registry;
  registry.GetCounter("vas_m_total", "", {{"style", "scatter"}})
      ->Increment(2);
  registry.GetCounter("vas_m_total", "", {{"style", "heatmap"}})
      ->Increment(5);
  registry
      .GetCounter("vas_m_total", "", {{"pool", "a"}, {"style", "scatter"}})
      ->Increment(11);
  EXPECT_EQ(registry.Total("vas_m_total"), 18) << "no match = every child";
  EXPECT_EQ(registry.Total("vas_m_total", {{"style", "scatter"}}), 13)
      << "a child matches when its labels include every pair";
  EXPECT_EQ(registry.Total("vas_m_total", {{"style", "heatmap"}}), 5);
  EXPECT_EQ(registry.Total("vas_m_total",
                           {{"style", "scatter"}, {"pool", "a"}}),
            11)
      << "pair order in the match does not matter";
  EXPECT_EQ(registry.Total("vas_m_total", {{"style", "sepia"}}), 0);
}

TEST(MetricsRegistryTest, TotalOfAbsentNameRegistersNothing) {
  MetricsRegistry registry;
  registry.GetCounter("vas_a_total", "A counter.")->Increment(3);
  const std::string before = registry.RenderPrometheusText();
  EXPECT_EQ(registry.Total("vas_absent_total"), 0);
  EXPECT_EQ(registry.Total("vas_absent_total", {{"k", "v"}}), 0);
  EXPECT_EQ(registry.RenderPrometheusText(), before);
}

TEST(MetricsRegistryTest, ContentTypeIsPrometheusText) {
  EXPECT_STREQ(MetricsRegistry::ExpositionContentType(),
               "text/plain; version=0.0.4; charset=utf-8");
}

TEST(TraceTest, SpansAndAnnotations) {
  uint64_t t0 = MonotonicNowNs();
  RequestTrace trace("vas-abc", "/tiles/t/1/2/3.png", t0);
  size_t span = trace.BeginSpan("render");
  trace.EndSpan(span);
  trace.Annotate(span, "points", 1234);
  trace.AddCompleteSpan("encode", t0 + 10, t0 + 30);
  trace.set_http_status(200);
  trace.Finish();
  EXPECT_TRUE(trace.finished());
  EXPECT_EQ(trace.request_id(), "vas-abc");
  EXPECT_EQ(trace.http_status(), 200);
  ASSERT_EQ(trace.spans().size(), 2u);
  EXPECT_EQ(trace.spans()[0].name, "render");
  ASSERT_EQ(trace.spans()[0].annotations.size(), 1u);
  EXPECT_EQ(trace.spans()[0].annotations[0].first, "points");
  EXPECT_EQ(trace.spans()[0].annotations[0].second, 1234);
  EXPECT_EQ(trace.SpanDurationNs("encode"), 20u);
  EXPECT_EQ(trace.SpanDurationNs("absent"), 0u);
  EXPECT_GE(trace.total_ns(), trace.SpanDurationNs("render"));
}

TEST(TraceTest, ScopedSpanIsNullSafe) {
  { ScopedSpan span(nullptr, "noop"); }  // must not crash
  RequestTrace trace("id", "/x", MonotonicNowNs());
  {
    ScopedSpan span(&trace, "scoped");
    span.Annotate("k", 1);
  }
  ASSERT_EQ(trace.spans().size(), 1u);
  EXPECT_EQ(trace.spans()[0].name, "scoped");
}

TEST(TraceTest, ToJsonShape) {
  uint64_t t0 = MonotonicNowNs();
  RequestTrace trace("vas-1", "/a\"b", t0);
  trace.AddCompleteSpan("parse", t0, t0 + 5);
  trace.set_http_status(404);
  trace.Finish();
  std::string json = TraceToJson(trace);
  EXPECT_NE(json.find("\"request_id\":\"vas-1\""), std::string::npos);
  EXPECT_NE(json.find("\"target\":\"/a\\\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"status\":404"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"parse\""), std::string::npos);
  EXPECT_NE(json.find("\"duration_ns\":5"), std::string::npos);
}

TEST(TraceRingTest, KeepsNewestUpToCapacity) {
  TraceRing ring(3);
  for (int i = 0; i < 5; ++i) {
    auto trace = std::make_shared<RequestTrace>("vas-" + std::to_string(i),
                                                "/t", MonotonicNowNs());
    trace->Finish();
    ring.Push(std::move(trace));
  }
  auto snapshot = ring.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);  // capacity bounds retention
  EXPECT_EQ(snapshot[0]->request_id(), "vas-4");  // newest first
  EXPECT_EQ(snapshot[1]->request_id(), "vas-3");
  EXPECT_EQ(snapshot[2]->request_id(), "vas-2");
}

TEST(TraceTest, MintedIdsAreUniqueAndPrefixed) {
  std::set<std::string> ids;
  for (int i = 0; i < 1000; ++i) {
    std::string id = MintRequestId();
    EXPECT_EQ(id.rfind("vas-", 0), 0u) << id;
    ids.insert(id);
  }
  EXPECT_EQ(ids.size(), 1000u);
}

TEST(LogTest, TextFormatGolden) {
  LogFields fields;
  fields.Add("request_id", "vas-1").Add("total_ms", int64_t{42}).Add(
      "hit", true);
  EXPECT_EQ(FormatLogLine(LogLevel::kWarn, "slow request", fields,
                          LogFormat::kText, 1700000000000),
            "[warn] slow request request_id=vas-1 total_ms=42 hit=true\n");
}

TEST(LogTest, JsonFormatGolden) {
  LogFields fields;
  fields.Add("path", "/a\"b\\c").Add("n", int64_t{3});
  EXPECT_EQ(FormatLogLine(LogLevel::kError, "bad \"thing\"", fields,
                          LogFormat::kJson, 1700000000000),
            "{\"ts_ms\":1700000000000,\"level\":\"error\","
            "\"msg\":\"bad \\\"thing\\\"\","
            "\"path\":\"/a\\\"b\\\\c\",\"n\":3}\n");
}

TEST(LogTest, LevelNames) {
  EXPECT_STREQ(LogLevelName(LogLevel::kDebug), "debug");
  EXPECT_STREQ(LogLevelName(LogLevel::kInfo), "info");
  EXPECT_STREQ(LogLevelName(LogLevel::kWarn), "warn");
  EXPECT_STREQ(LogLevelName(LogLevel::kError), "error");
}

TEST(LogTest, DoubleFieldsAreUnquoted) {
  LogFields fields;
  fields.Add("ratio", 1.5);
  std::string line = FormatLogLine(LogLevel::kInfo, "m", fields,
                                   LogFormat::kJson, 0);
  EXPECT_NE(line.find("\"ratio\":1.5"), std::string::npos) << line;
}

}  // namespace
}  // namespace vas::obs
