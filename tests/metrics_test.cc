#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "obs/metrics_json.h"
#include "obs/scoped_timer.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace culevo {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.Value(), 42);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge gauge;
  EXPECT_DOUBLE_EQ(gauge.Value(), 0.0);
  gauge.Set(10.0);
  EXPECT_DOUBLE_EQ(gauge.Value(), 10.0);
  gauge.Add(2.5);
  gauge.Add(-0.5);
  EXPECT_DOUBLE_EQ(gauge.Value(), 12.0);
  gauge.Set(3.0);  // collapses any sharded deltas
  EXPECT_DOUBLE_EQ(gauge.Value(), 3.0);
}

TEST(HistogramTest, RecordsBasicStats) {
  Histogram histogram;
  histogram.Record(1.0);
  histogram.Record(2.0);
  histogram.Record(4.0);
  const obs::HistogramStats stats = histogram.Snapshot();
  EXPECT_EQ(stats.count, 3);
  EXPECT_DOUBLE_EQ(stats.sum, 7.0);
  EXPECT_DOUBLE_EQ(stats.min, 1.0);
  EXPECT_DOUBLE_EQ(stats.max, 4.0);
  EXPECT_NEAR(stats.mean(), 7.0 / 3.0, 1e-12);
  // Quantiles are bucketed estimates clamped to the observed max.
  EXPECT_GE(stats.Quantile(0.5), 1.0);
  EXPECT_LE(stats.Quantile(0.99), 4.0);
}

TEST(HistogramTest, QuantilesTrackExactQuantilesOnSeededSample) {
  // Regression for the percentile collapse: with coarse power-of-two
  // buckets the old estimator reported the bucket upper bound, so a heavy
  // tail pushed p90/p99 to max and p50 to a bound far from the true
  // median. Interpolation must land every quantile within its bucket's 2x
  // width of the exact value computed from the raw sample.
  Rng rng(123457);
  Histogram histogram;
  std::vector<double> samples;
  // Log-uniform spread over ~0.01..160 ms plus a heavy tail, mimicking
  // the mine.eclat.ms shape that motivated the fix.
  for (int i = 0; i < 5000; ++i) {
    const double u = static_cast<double>(rng.NextBounded(1000000)) / 1e6;
    const double v = 0.01 * std::pow(2.0, u * 14.0);
    samples.push_back(v);
    histogram.Record(v);
  }
  // One extreme straggler several buckets above the bulk, so max sits in
  // a bucket of its own and the p90/p99 ranks stay in the dense region.
  samples.push_back(6144.0);
  histogram.Record(6144.0);
  std::sort(samples.begin(), samples.end());
  const obs::HistogramStats stats = histogram.Snapshot();
  for (const double q : {0.5, 0.9, 0.99}) {
    const size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(samples.size()))) - 1;
    const double exact = samples[rank];
    const double estimate = stats.Quantile(q);
    // Within one bucket (factor of 2) of the exact quantile, both sides.
    EXPECT_LE(estimate, exact * 2.0) << "q=" << q;
    EXPECT_GE(estimate, exact / 2.0) << "q=" << q;
  }
  // The collapse symptom: p90 and p99 pinned at max. With a spread sample
  // they must now sit strictly below it (and p50 strictly below p99).
  EXPECT_LT(stats.Quantile(0.9), stats.max);
  EXPECT_LT(stats.Quantile(0.99), stats.max);
  EXPECT_LT(stats.Quantile(0.5), stats.Quantile(0.99));
}

TEST(HistogramTest, QuantileInterpolatesWithinOneBucket) {
  // 100 samples in the (1, 2] ms bucket, log-uniform-ish by construction:
  // p50 must fall inside the bucket, not at its upper edge, and the
  // extreme quantiles clamp to the observed min/max.
  Histogram histogram;
  for (int i = 0; i < 100; ++i) {
    histogram.Record(1.0 + static_cast<double>(i) / 100.0);
  }
  const obs::HistogramStats stats = histogram.Snapshot();
  const double p50 = stats.Quantile(0.5);
  EXPECT_GT(p50, 1.0);
  EXPECT_LT(p50, 2.0);  // Strictly inside the bucket: interpolated.
  EXPECT_DOUBLE_EQ(stats.Quantile(1.0), stats.max);
  EXPECT_GE(stats.Quantile(0.0), stats.min);
}

TEST(HistogramTest, EmptySnapshotIsZero) {
  Histogram histogram;
  const obs::HistogramStats stats = histogram.Snapshot();
  EXPECT_EQ(stats.count, 0);
  EXPECT_DOUBLE_EQ(stats.sum, 0.0);
  EXPECT_DOUBLE_EQ(stats.Quantile(0.5), 0.0);
}

TEST(HistogramTest, BucketBoundsAreExponential) {
  EXPECT_DOUBLE_EQ(Histogram::UpperBoundMs(10), 1.0);
  EXPECT_DOUBLE_EQ(Histogram::UpperBoundMs(11), 2.0);
  // Sub-microsecond and non-positive samples land in bucket 0.
  EXPECT_EQ(Histogram::BucketFor(0.0), 0u);
  EXPECT_EQ(Histogram::BucketFor(-5.0), 0u);
  // Values just above a bound move to the next bucket.
  EXPECT_EQ(Histogram::BucketFor(1.0), 10u);
  EXPECT_EQ(Histogram::BucketFor(1.5), 11u);
  // Huge values saturate in the final bucket.
  EXPECT_EQ(Histogram::BucketFor(1e12), obs::kHistogramBuckets - 1);
}

TEST(MetricsRegistryTest, HandlesAreStableAndNamed) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  Counter* a = registry.counter("test.registry.counter_a");
  EXPECT_EQ(a, registry.counter("test.registry.counter_a"));
  a->Reset();
  a->Increment(7);
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_TRUE(snapshot.counters.count("test.registry.counter_a"));
  EXPECT_EQ(snapshot.counters.at("test.registry.counter_a"), 7);
}

TEST(MetricsRegistryTest, SnapshotRoundTripAllKinds) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  registry.counter("test.rt.counter")->Reset();
  registry.counter("test.rt.counter")->Increment(3);
  registry.gauge("test.rt.gauge")->Set(1.5);
  Histogram* histogram = registry.histogram("test.rt.hist");
  histogram->Reset();
  histogram->Record(2.0);

  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("test.rt.counter"), 3);
  EXPECT_DOUBLE_EQ(snapshot.gauges.at("test.rt.gauge"), 1.5);
  EXPECT_EQ(snapshot.histograms.at("test.rt.hist").count, 1);
  EXPECT_DOUBLE_EQ(snapshot.histograms.at("test.rt.hist").sum, 2.0);
}

TEST(MetricsRegistryTest, ConcurrentIncrementsFromThreadPoolWorkers) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  Counter* counter = registry.counter("test.concurrent.counter");
  Gauge* gauge = registry.gauge("test.concurrent.gauge");
  Histogram* histogram = registry.histogram("test.concurrent.hist");
  counter->Reset();
  gauge->Reset();
  histogram->Reset();

  constexpr int kTasks = 2000;
  RunTasks(kTasks, 8, [&](size_t i) {
    counter->Increment();
    gauge->Add(1.0);
    histogram->Record(static_cast<double>(i % 7) + 0.5);
  });

  EXPECT_EQ(counter->Value(), kTasks);
  EXPECT_DOUBLE_EQ(gauge->Value(), static_cast<double>(kTasks));
  const obs::HistogramStats stats = histogram->Snapshot();
  EXPECT_EQ(stats.count, kTasks);
  EXPECT_DOUBLE_EQ(stats.min, 0.5);
  EXPECT_DOUBLE_EQ(stats.max, 6.5);
  int64_t bucket_total = 0;
  for (int64_t b : stats.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, kTasks);
}

TEST(ScopedTimerTest, RecordsOneSampleOnDestruction) {
  Histogram histogram;
  {
    obs::ScopedTimer timer(&histogram);
    EXPECT_GE(timer.ElapsedMillis(), 0.0);
  }
  EXPECT_EQ(histogram.Snapshot().count, 1);
  // Null histogram disables recording and must not crash.
  { obs::ScopedTimer disabled(nullptr); }
}

TEST(MetricsJsonTest, SnapshotSerializesToValidJson) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  registry.counter("test.json.counter")->Reset();
  registry.counter("test.json.counter")->Increment(5);
  registry.gauge("test.json.gauge")->Set(2.25);
  registry.histogram("test.json.hist")->Reset();
  registry.histogram("test.json.hist")->Record(1.0);

  const std::string json =
      obs::MetricsSnapshotToJson(registry.Snapshot());
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json.counter\":5"), std::string::npos);
  EXPECT_NE(json.find("\"test.json.hist\""), std::string::npos);
  // Structural sanity: balanced braces, object document.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{') ++depth;
    if (c == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

}  // namespace
}  // namespace culevo
