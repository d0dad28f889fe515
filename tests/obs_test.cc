// The observability subsystem: counter/gauge/histogram semantics,
// percentile math against known distributions, thread-safety of concurrent
// recording, the JSON/Prometheus exports (golden output), and the
// per-request record (thread-local stage costs, its /tracez rendering).
// run_benches.sh additionally runs this binary under ThreadSanitizer
// (-DPQSDA_ENABLE_TSAN=ON) to race-check the atomic counters and the
// thread-local stage accumulators.

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/stage_profiler.h"
#include "obs/telemetry.h"

namespace pqsda::obs {
namespace {

// ------------------------------------------------------------ metrics ----

TEST(CounterTest, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.Value(), 2.5);
  g.Add(-1.0);
  EXPECT_DOUBLE_EQ(g.Value(), 1.5);
}

TEST(HistogramTest, CountsSumAndBuckets) {
  Histogram h({10.0, 20.0, 30.0});
  h.Observe(5.0);
  h.Observe(10.0);  // bounds are inclusive: lands in the le=10 bucket
  h.Observe(15.0);
  h.Observe(100.0);  // overflow
  EXPECT_EQ(h.Count(), 4u);
  EXPECT_DOUBLE_EQ(h.Sum(), 130.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 32.5);
  std::vector<uint64_t> counts = h.BucketCounts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 1u);
}

TEST(HistogramTest, QuantilesOfUniformDistribution) {
  // 1..1000 into deciles: interpolation should land within one bucket width
  // of the exact quantile.
  std::vector<double> bounds;
  for (int b = 100; b <= 1000; b += 100) bounds.push_back(b);
  Histogram h(bounds);
  for (int v = 1; v <= 1000; ++v) h.Observe(v);
  EXPECT_NEAR(h.Quantile(0.50), 500.0, 100.0);
  EXPECT_NEAR(h.Quantile(0.95), 950.0, 100.0);
  EXPECT_NEAR(h.Quantile(0.99), 990.0, 100.0);
  // Quantiles are monotone in q.
  EXPECT_LE(h.Quantile(0.50), h.Quantile(0.95));
  EXPECT_LE(h.Quantile(0.95), h.Quantile(0.99));
}

TEST(HistogramTest, QuantileEdgeCases) {
  Histogram empty({1.0, 2.0});
  EXPECT_DOUBLE_EQ(empty.Quantile(0.5), 0.0);

  // All mass in the overflow bucket reports the largest finite bound.
  Histogram h({1.0, 2.0});
  h.Observe(50.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 2.0);
}

TEST(HistogramTest, SkewedDistributionPercentiles) {
  // 99 fast observations and 1 slow one: p50 stays in the fast bucket,
  // p99+ reaches the slow one.
  Histogram h({10.0, 100.0, 1000.0});
  for (int i = 0; i < 99; ++i) h.Observe(5.0);
  h.Observe(500.0);
  EXPECT_LE(h.Quantile(0.50), 10.0);
  EXPECT_GT(h.Quantile(0.995), 100.0);
}

TEST(HistogramTest, ConcurrentObserveKeepsTotalCount) {
  Histogram h(Histogram::DefaultLatencyBoundsUs());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Observe(static_cast<double>((t * 37 + i) % 5000));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(h.Count(), static_cast<uint64_t>(kThreads * kPerThread));
  uint64_t bucket_total = 0;
  for (uint64_t c : h.BucketCounts()) bucket_total += c;
  EXPECT_EQ(bucket_total, h.Count());
}

TEST(MetricsRegistryTest, ConcurrentCounterIncrements) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg] {
      // Lookup inside the loop exercises the registry lock path too.
      Counter& c = reg.GetCounter("shared");
      for (int i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(reg.GetCounter("shared").Value(),
            static_cast<uint64_t>(kThreads * kPerThread));
}

TEST(MetricsRegistryTest, GetReturnsSameInstanceAndResetKeepsIt) {
  MetricsRegistry reg;
  Counter& a = reg.GetCounter("x");
  Counter& b = reg.GetCounter("x");
  EXPECT_EQ(&a, &b);
  a.Increment(7);
  reg.Reset();
  EXPECT_EQ(b.Value(), 0u);
  b.Increment();
  EXPECT_EQ(reg.GetCounter("x").Value(), 1u);
}

TEST(MetricsRegistryTest, JsonExportGolden) {
  MetricsRegistry reg;
  reg.GetCounter("b.requests").Increment(3);
  reg.GetGauge("a.residual").Set(0.25);
  std::vector<double> bounds = {1.0, 2.0};
  Histogram& h = reg.GetHistogram("c.latency", &bounds);
  h.Observe(1.0);
  h.Observe(1.0);
  h.Observe(2.0);
  h.Observe(5.0);
  EXPECT_EQ(reg.ExportJson(),
            "{\"counters\":{\"b.requests\":3},"
            "\"gauges\":{\"a.residual\":0.25},"
            "\"histograms\":{\"c.latency\":{\"count\":4,\"sum\":9,"
            "\"mean\":2.25,\"p50\":1,\"p95\":2,\"p99\":2}}}");
}

TEST(MetricsRegistryTest, PrometheusExportGolden) {
  MetricsRegistry reg;
  reg.GetCounter("pqsda.suggest.requests_total").Increment(5);
  reg.GetGauge("pqsda.solver.last_residual").Set(0.5);
  std::vector<double> bounds = {1.0, 2.0};
  Histogram& h = reg.GetHistogram("pqsda.latency_us", &bounds);
  h.Observe(0.5);
  h.Observe(1.5);
  h.Observe(10.0);
  EXPECT_EQ(reg.ExportPrometheus(),
            "# TYPE pqsda_latency_us histogram\n"
            "pqsda_latency_us_bucket{le=\"1\"} 1\n"
            "pqsda_latency_us_bucket{le=\"2\"} 2\n"
            "pqsda_latency_us_bucket{le=\"+Inf\"} 3\n"
            "pqsda_latency_us_sum 12\n"
            "pqsda_latency_us_count 3\n"
            "# TYPE pqsda_solver_last_residual gauge\n"
            "pqsda_solver_last_residual 0.5\n"
            "# TYPE pqsda_suggest_requests_total counter\n"
            "pqsda_suggest_requests_total 5\n");
}

TEST(MetricsRegistryTest, PrometheusCumulativeBucketsRoundTrip) {
  // The exported cumulative bucket counts must reconstruct the per-bucket
  // counts exactly (what a Prometheus scraper does).
  MetricsRegistry reg;
  std::vector<double> bounds = {10.0, 20.0, 30.0};
  Histogram& h = reg.GetHistogram("rt", &bounds);
  for (double v : {5.0, 15.0, 15.0, 25.0, 99.0}) h.Observe(v);

  std::string text = reg.ExportPrometheus();
  std::vector<uint64_t> cumulative;
  size_t pos = 0;
  while ((pos = text.find("rt_bucket{le=", pos)) != std::string::npos) {
    size_t space = text.find("} ", pos);
    size_t eol = text.find('\n', space);
    cumulative.push_back(
        std::stoull(text.substr(space + 2, eol - space - 2)));
    pos = eol;
  }
  ASSERT_EQ(cumulative.size(), 4u);  // 3 bounds + +Inf
  std::vector<uint64_t> per_bucket = h.BucketCounts();
  uint64_t prev = 0;
  for (size_t i = 0; i < cumulative.size(); ++i) {
    EXPECT_EQ(cumulative[i] - prev, per_bucket[i]) << "bucket " << i;
    prev = cumulative[i];
  }
  EXPECT_EQ(cumulative.back(), h.Count());
}

// ---------------------------------------------------- request record ----

TEST(RequestRecordTest, ThreadsRecordIndependently) {
  // Each thread brackets its own requests; stage costs must never cross
  // threads or leak from one request into the next.
  constexpr int kThreads = 4;
  StageProfiler profiler;
  std::vector<int> clean(kThreads, 0);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t, &profiler, &clean] {
      for (int i = 0; i < 50; ++i) {
        StageCosts costs;
        profiler.BeginRequest();
        {
          StageScope expansion(ProfileStage::kExpansion);
          StageScope nested(ProfileStage::kSolve);
          StageProfiler::AddWork(ProfileStage::kSelection,
                                 static_cast<uint64_t>(t + 1));
        }
        profiler.EndRequest(/*rung=*/0, &costs);
        const StageCost& request =
            costs[static_cast<size_t>(ProfileStage::kRequest)];
        const StageCost& expansion =
            costs[static_cast<size_t>(ProfileStage::kExpansion)];
        if (request.count == 1 && expansion.count == 1 &&
            costs[static_cast<size_t>(ProfileStage::kSolve)].count == 1 &&
            costs[static_cast<size_t>(ProfileStage::kSelection)].work ==
                static_cast<uint64_t>(t + 1) &&
            expansion.wall_ns <= request.wall_ns) {
          ++clean[t];
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(clean[t], 50) << t;
}

TEST(RequestRecordTest, TracezEntryRendersStages) {
  ServingTelemetryOptions options;
  options.quality_sample_every = 0;
  ServingTelemetry telemetry(options);
  SuggestionRequest request;
  request.query = "sun";
  const StatusOr<std::vector<Suggestion>> served =
      std::vector<Suggestion>{{"sun java", 2.0}, {"solar energy", 1.0}};

  RequestRecord record;
  record.id = 7;
  record.request = &request;
  record.k = 2;
  record.generation = 3;
  record.traced = true;
  record.result = &served;
  record.stages[static_cast<size_t>(ProfileStage::kRequest)] = {1, 5'400'000,
                                                               0, 0};
  record.stages[static_cast<size_t>(ProfileStage::kExpansion)] = {
      1, 2'000'999, 1'500'000, 40};
  telemetry.Record(record);

  const std::string json = telemetry.TracezJson();
  EXPECT_NE(
      json.find("\"request_id\":7,\"query\":\"sun\",\"total_us\":5400"),
      std::string::npos)
      << json;
  EXPECT_NE(json.find("\"generation\":3"), std::string::npos);
  EXPECT_NE(json.find("\"stages\":{\"expansion\":{\"wall_us\":2000,"
                      "\"cpu_us\":1500,\"work\":40}}"),
            std::string::npos)
      << json;
  EXPECT_EQ(record.StageMicros(),
            (std::vector<std::pair<std::string, int64_t>>{{"expansion",
                                                           2000}}));
  EXPECT_NE(record.Fingerprint(), 0u);
  EXPECT_EQ(telemetry.requests().SumOver(60'000'000'000), 1u);
}

TEST(ScopedTimerTest, RecordsIntoHistogramOnDestruction) {
  Histogram h(Histogram::DefaultLatencyBoundsUs());
  {
    ScopedTimer timer(h);
    WallTimer spin;
    while (spin.ElapsedMicros() < 100) {
    }
  }
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_GE(h.Sum(), 100.0);  // at least the 100us spin, in microseconds
  { ScopedTimer noop(nullptr); }
}

TEST(WallTimerTest, ElapsedNanosIsMonotoneAndFinerThanMicros) {
  WallTimer t;
  WallTimer spin;
  while (spin.ElapsedMicros() < 10) {
  }
  int64_t micros = t.ElapsedMicros();
  int64_t nanos = t.ElapsedNanos();  // read second: must be >= micros * 1000
  EXPECT_GE(nanos, 10000);
  EXPECT_GE(nanos, micros * 1000);
  EXPECT_LE(t.ElapsedNanos() / 1000000000.0, t.ElapsedSeconds() + 1.0);
}

}  // namespace
}  // namespace pqsda::obs
