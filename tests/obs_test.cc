#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "dataflow/json.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/remote.h"
#include "obs/scoped_timer.h"
#include "obs/trace.h"
#include "obs/trace_check.h"

namespace wsie::obs {
namespace {

TEST(StopwatchTest, ElapsedNsAndReset) {
  Stopwatch watch;
  volatile double sink = 0;
  for (int i = 0; i < 10000; ++i) sink = sink + 1.0;
  int64_t first = watch.ElapsedNs();
  EXPECT_GT(first, 0);
  EXPECT_NEAR(static_cast<double>(first) / 1e3, watch.ElapsedMicros(),
              watch.ElapsedMicros());
  watch.Restart();
  EXPECT_LT(watch.ElapsedNs(), first + 1000000000LL);
}

TEST(RegistryTest, HandlesAreStableAndNamesDeduplicate) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("wsie.test.same");
  Counter* b = registry.GetCounter("wsie.test.same");
  EXPECT_EQ(a, b);
  EXPECT_EQ(registry.num_metrics(), 1u);
  registry.GetGauge("wsie.test.same");  // distinct kind, same name: distinct
  EXPECT_EQ(registry.num_metrics(), 2u);
}

TEST(CounterTest, ConcurrentIncrementsAreExact) {
  // N threads x M counters, interleaved; every shard sum must be exact.
  constexpr int kThreads = 8;
  constexpr int kCounters = 5;
  constexpr uint64_t kPerThread = 20000;
  MetricsRegistry registry;
  std::vector<Counter*> counters;
  for (int c = 0; c < kCounters; ++c) {
    counters.push_back(
        registry.GetCounter("wsie.test.stress." + std::to_string(c)));
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counters] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        counters[i % kCounters]->Add(1 + i % 3);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  uint64_t expected_total = 0;
  for (uint64_t i = 0; i < kPerThread; ++i) expected_total += 1 + i % 3;
  expected_total *= kThreads;
  uint64_t total = 0;
  for (Counter* counter : counters) total += counter->Value();
  EXPECT_EQ(total, expected_total);
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.CounterPrefixSum("wsie.test.stress."), expected_total);
}

TEST(CounterTest, RuntimeDisableStopsCounting) {
  Counter counter;
  counter.Add(3);
  SetMetricsEnabled(false);
  counter.Add(100);
  SetMetricsEnabled(true);
  counter.Add(4);
  EXPECT_EQ(counter.Value(), 7u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge gauge;
  gauge.Set(2.5);
  gauge.Add(1.25);
  EXPECT_DOUBLE_EQ(gauge.Value(), 3.75);
  gauge.Reset();
  EXPECT_DOUBLE_EQ(gauge.Value(), 0.0);
}

TEST(HistogramTest, BucketBoundaries) {
  // Prometheus `le` semantics: bucket i holds bounds[i-1] < v <= bounds[i].
  Histogram hist({10.0, 100.0, 1000.0});
  hist.Observe(0.0);     // <= 10
  hist.Observe(10.0);    // == bound: still the first bucket
  hist.Observe(10.0001); // > 10: second bucket
  hist.Observe(100.0);   // second bucket upper edge
  hist.Observe(1000.0);  // third bucket upper edge
  hist.Observe(1000.1);  // overflow
  hist.Observe(1e12);    // overflow
  std::vector<uint64_t> counts = hist.BucketCounts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 2u);
  EXPECT_EQ(hist.Count(), 7u);
  EXPECT_NEAR(hist.Sum(), 0 + 10 + 10.0001 + 100 + 1000 + 1000.1 + 1e12, 1.0);
}

TEST(HistogramTest, NegativeAndDefaultLadders) {
  Histogram hist(LatencyBucketsNs());
  hist.Observe(-5.0);  // clamps into the first bucket
  hist.Observe(1.0);
  EXPECT_EQ(hist.BucketCounts()[0], 2u);
  EXPECT_FALSE(LatencyBucketsMs().empty());
  EXPECT_FALSE(BytesBuckets().empty());
  EXPECT_TRUE(std::is_sorted(LatencyBucketsNs().begin(),
                             LatencyBucketsNs().end()));
}

TEST(HistogramTest, QuantileEstimates) {
  Histogram hist({10.0, 20.0, 30.0, 40.0});
  for (int i = 0; i < 100; ++i) hist.Observe(5.0 + (i % 4) * 10.0);
  MetricsRegistry registry;
  Histogram* reg = registry.GetHistogram("wsie.test.quant", hist.bounds());
  for (int i = 0; i < 100; ++i) reg->Observe(5.0 + (i % 4) * 10.0);
  MetricsSnapshot snap = registry.Snapshot();
  const HistogramSnapshot* h = snap.FindHistogram("wsie.test.quant");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 100u);
  double median = h->Quantile(0.5);
  EXPECT_GE(median, 10.0);
  EXPECT_LE(median, 30.0);
  EXPECT_LE(h->Quantile(0.0), h->Quantile(1.0));
}

TEST(SnapshotTest, MidUpdateSnapshotIsInternallyConsistent) {
  // Writers hammer a counter and a histogram while a reader snapshots.
  // Every snapshot must be internally consistent: histogram count equals
  // the sum of its bucket counts, and counters are monotone over time.
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("wsie.test.snap.counter");
  Histogram* hist = registry.GetHistogram("wsie.test.snap.hist", {1.0, 2.0});
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        counter->Increment();
        hist->Observe(static_cast<double>(i++ % 3));
      }
    });
  }
  uint64_t last_counter = 0;
  uint64_t last_hist_count = 0;
  for (int i = 0; i < 200; ++i) {
    MetricsSnapshot snap = registry.Snapshot();
    const HistogramSnapshot* h = snap.FindHistogram("wsie.test.snap.hist");
    ASSERT_NE(h, nullptr);
    uint64_t bucket_total = 0;
    for (uint64_t c : h->bucket_counts) bucket_total += c;
    EXPECT_EQ(h->count, bucket_total);
    uint64_t counter_now = snap.CounterValue("wsie.test.snap.counter");
    EXPECT_GE(counter_now, last_counter);
    EXPECT_GE(h->count, last_hist_count);
    last_counter = counter_now;
    last_hist_count = h->count;
  }
  stop.store(true);
  for (auto& writer : writers) writer.join();
}

TEST(RegistryTest, LabelsFormatAndExport) {
  EXPECT_EQ(WithLabel("wsie.x", "op", "tag"), "wsie.x{op=\"tag\"}");
  EXPECT_EQ(WithLabels("wsie.x", "a", "1", "b", "2"),
            "wsie.x{a=\"1\",b=\"2\"}");
  MetricsRegistry registry;
  registry.GetCounter(WithLabel("wsie.test.labeled", "op", "parse"))->Add(7);
  registry.GetHistogram(WithLabel("wsie.test.lat", "host", "h1"), {5.0})
      ->Observe(3.0);
  std::string prom = registry.DumpPrometheusText();
  EXPECT_NE(prom.find("wsie.test.labeled{op=\"parse\"} 7"), std::string::npos);
  // Histogram label blocks merge with the le label.
  EXPECT_NE(prom.find("wsie.test.lat_bucket{host=\"h1\",le=\"5\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("wsie.test.lat_bucket{host=\"h1\",le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("wsie.test.lat_count{host=\"h1\"} 1"),
            std::string::npos);
}

TEST(RegistryTest, PrometheusDumpHasCumulativeBuckets) {
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("wsie.test.cum", {1.0, 2.0, 3.0});
  hist->Observe(0.5);
  hist->Observe(1.5);
  hist->Observe(2.5);
  hist->Observe(9.0);
  std::string prom = registry.DumpPrometheusText();
  EXPECT_NE(prom.find("wsie.test.cum_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("wsie.test.cum_bucket{le=\"2\"} 2"), std::string::npos);
  EXPECT_NE(prom.find("wsie.test.cum_bucket{le=\"3\"} 3"), std::string::npos);
  EXPECT_NE(prom.find("wsie.test.cum_bucket{le=\"+Inf\"} 4"),
            std::string::npos);
  EXPECT_NE(prom.find("wsie.test.cum_count 4"), std::string::npos);
}

TEST(RegistryTest, JsonDumpParsesWithRepoParser) {
  MetricsRegistry registry;
  registry.GetCounter("wsie.test.json.counter")->Add(11);
  registry.GetGauge("wsie.test.json.gauge")->Set(2.5);
  registry.GetHistogram("wsie.test.json.hist", {1.0})->Observe(0.5);
  Result<dataflow::Value> parsed = dataflow::ParseJson(registry.DumpJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const dataflow::Value& root = *parsed;
  EXPECT_EQ(root.Field("counters").Field("wsie.test.json.counter").AsInt(), 11);
  EXPECT_DOUBLE_EQ(
      root.Field("gauges").Field("wsie.test.json.gauge").AsDouble(), 2.5);
  const dataflow::Value& hist =
      root.Field("histograms").Field("wsie.test.json.hist");
  EXPECT_EQ(hist.Field("count").AsInt(), 1);
  ASSERT_EQ(hist.Field("buckets").AsArray().size(), 2u);
}

TEST(RegistryTest, JsonDumpEscapesControlBytesInNames) {
  // A name byte below 0x20 must leave DumpJson escaped (\u0001), never raw:
  // raw control bytes inside a JSON string make the document invalid.
  MetricsRegistry registry;
  const std::string name = std::string("wsie.test.ctl") + '\x01' + "name";
  registry.GetCounter(name)->Add(3);
  registry.GetGauge(name)->Set(1.5);
  registry.GetHistogram(name, {1.0})->Observe(0.5);
  const std::string json = registry.DumpJson();
  for (const char c : json) {
    ASSERT_GE(static_cast<unsigned char>(c), 0x20) << json;
  }
  EXPECT_NE(json.find("wsie.test.ctl\\u0001name"), std::string::npos);
  Result<dataflow::Value> parsed = dataflow::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Field("counters").Field(name).AsInt(), 3);
}

TEST(RegistryTest, ResetZeroesButKeepsHandles) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("wsie.test.reset");
  counter->Add(9);
  registry.Reset();
  EXPECT_EQ(counter->Value(), 0u);
  counter->Add(2);
  EXPECT_EQ(registry.Snapshot().CounterValue("wsie.test.reset"), 2u);
}

TEST(TraceTest, RoundTripIsValidAndBalanced) {
  TraceRecorder recorder;
  recorder.SetEnabled(true);
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        recorder.Begin("outer", "i=" + std::to_string(i));
        recorder.Begin("inner");
        recorder.End();
        recorder.End();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  std::string json = recorder.ToChromeTraceJson();
  TraceCheckReport report;
  Status checked = ValidateChromeTrace(json, &report);
  ASSERT_TRUE(checked.ok()) << checked.ToString();
  EXPECT_EQ(report.num_threads, static_cast<size_t>(kThreads));
  EXPECT_EQ(report.num_events,
            static_cast<size_t>(kThreads * kSpansPerThread * 4));
  EXPECT_EQ(report.num_spans,
            static_cast<size_t>(kThreads * kSpansPerThread * 2));
  EXPECT_EQ(recorder.dropped(), 0u);
}

TEST(TraceTest, RingOverflowStaysBalanced) {
  TraceRecorder recorder;
  recorder.SetRingCapacity(64);
  recorder.SetEnabled(true);
  for (int i = 0; i < 500; ++i) {
    recorder.Begin("wrap");
    recorder.End();
  }
  EXPECT_GT(recorder.dropped(), 0u);
  // Orphaned events from overwritten ring slots are repaired at
  // serialization time: the emitted stream must still validate.
  TraceCheckReport report;
  Status checked = ValidateChromeTrace(recorder.ToChromeTraceJson(), &report);
  ASSERT_TRUE(checked.ok()) << checked.ToString();
  EXPECT_GT(report.num_spans, 0u);
}

TEST(TraceTest, DisabledRecorderBuffersNothing) {
  TraceRecorder recorder;
  ASSERT_FALSE(recorder.enabled());
  recorder.Begin("ignored");
  EXPECT_EQ(recorder.buffered(), 0u);
}

TEST(TraceTest, ClearDropsBufferedEvents) {
  TraceRecorder recorder;
  recorder.SetEnabled(true);
  recorder.Begin("x");
  recorder.End();
  EXPECT_EQ(recorder.buffered(), 2u);
  recorder.Clear();
  EXPECT_EQ(recorder.buffered(), 0u);
}

TEST(TraceTest, EscapesSpecialCharactersInArgs) {
  TraceRecorder recorder;
  recorder.SetEnabled(true);
  recorder.Begin("quote\"back\\slash", "tab\there");
  recorder.End();
  Status checked = ValidateChromeTrace(recorder.ToChromeTraceJson());
  EXPECT_TRUE(checked.ok()) << checked.ToString();
}

TEST(TraceCheckTest, RejectsMalformedTraces) {
  EXPECT_FALSE(ValidateChromeTrace("not json").ok());
  EXPECT_FALSE(ValidateChromeTrace("{}").ok());
  EXPECT_FALSE(ValidateChromeTrace(R"({"traceEvents":[{}]})").ok());
  // Unbalanced: an E with no B.
  EXPECT_FALSE(
      ValidateChromeTrace(
          R"({"traceEvents":[{"name":"x","ph":"E","ts":1,"pid":1,"tid":1}]})")
          .ok());
  // Unbalanced: a B never closed.
  EXPECT_FALSE(
      ValidateChromeTrace(
          R"({"traceEvents":[{"name":"x","ph":"B","ts":1,"pid":1,"tid":1}]})")
          .ok());
}

TEST(ScopedTimerTest, FeedsHistogramAndSpan) {
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("wsie.test.timer", {1e18});
  {
    ScopedTimer timer(hist);
    EXPECT_GE(timer.ElapsedNs(), 0);
  }
  EXPECT_EQ(hist->Count(), 1u);
  // Span path: the global recorder picks up a named ScopedTimer.
  TraceRecorder& global = TraceRecorder::Global();
  global.Clear();
  global.SetEnabled(true);
  size_t before = global.buffered();
  { ScopedTimer timer(nullptr, "timed.section"); }
  global.SetEnabled(false);
  EXPECT_EQ(global.buffered(), before + 2);
}

// ---------------------------------------------------------------------------
// Log-spaced bucket bounds. Pure functions of (lo, hi, count).

TEST(LogSpacedBucketsTest, ShapeAndEndpoints) {
  std::vector<double> bounds = LogSpacedBuckets(1e3, 1e6, 46);
  ASSERT_EQ(bounds.size(), 46u);
  EXPECT_DOUBLE_EQ(bounds.front(), 1e3);
  EXPECT_DOUBLE_EQ(bounds.back(), 1e6);
  EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));
  // Geometric: the ratio between adjacent bounds is constant.
  const double ratio = bounds[1] / bounds[0];
  for (size_t i = 1; i + 1 < bounds.size(); ++i) {
    EXPECT_NEAR(bounds[i + 1] / bounds[i], ratio, ratio * 1e-6);
  }
  // Degenerate inputs are repaired, not UB.
  EXPECT_EQ(LogSpacedBuckets(10.0, 1.0, 1).size(), 2u);
  EXPECT_GT(LogSpacedBuckets(-5.0, 1.0, 4).front(), 0.0);
}

TEST(LogSpacedBucketsTest, QuantileErrorStaysUnderTenPercent) {
  // The design claim behind LogLatencyBucketsNs: with 15 buckets per decade
  // the interpolated p50/p99 land within 10% of the exact sample quantile.
  // Deterministic heavy-tailed samples spanning four decades (the shape of
  // real request latencies): x_i = 1e4 * exp(3 * u_i^2), u_i uniform.
  HistogramSnapshot hist;
  hist.name = "wsie.test.logq";
  hist.bounds = LogSpacedBuckets(1e3, 1e11, 121);
  hist.bucket_counts.assign(hist.bounds.size() + 1, 0);
  std::vector<double> samples;
  constexpr int kN = 4000;
  for (int i = 0; i < kN; ++i) {
    const double u = (i + 0.5) / kN;
    samples.push_back(1e4 * std::exp(3.0 * u * u * std::log(10.0)));
  }
  for (double v : samples) {
    size_t b = static_cast<size_t>(
        std::lower_bound(hist.bounds.begin(), hist.bounds.end(), v) -
        hist.bounds.begin());
    hist.bucket_counts[b]++;
    hist.count++;
    hist.sum += v;
  }
  std::sort(samples.begin(), samples.end());
  for (double q : {0.5, 0.9, 0.99}) {
    const double exact = samples[static_cast<size_t>(q * (kN - 1))];
    const double estimate = hist.Quantile(q);
    EXPECT_NEAR(estimate, exact, 0.10 * exact)
        << "q=" << q << " exact=" << exact << " estimate=" << estimate;
  }
}

// ---------------------------------------------------------------------------
// Trace context: the (trace_id, parent_span) pair that rides the shard
// transport frames.

TEST(TraceContextTest, FreshIdsAreNonzeroAndDistinct) {
  const uint64_t a = NewTraceId();
  const uint64_t b = NewTraceId();
  const uint64_t s = NewSpanId();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(s, 0u);
  EXPECT_NE(a, b);
}

TEST(TraceContextTest, SetCurrentRoundTripAndArgsFormat) {
  const TraceContext saved = CurrentTraceContext();
  SetTraceContext({0x1234abcdULL, 0x9fULL});
  EXPECT_EQ(CurrentTraceContext().trace_id, 0x1234abcdULL);
  EXPECT_EQ(CurrentTraceContext().span_id, 0x9fULL);
  EXPECT_EQ(TraceContextArgs(CurrentTraceContext()),
            "trace=1234abcd parent=9f");
  SetTraceContext(saved);
}

// ---------------------------------------------------------------------------
// Remote bundle codec + shard-wide merge. Snapshots and bundles are plain
// data, so the codec and merge semantics are testable at every level.

ObsBundle MakeBundle(int shard, uint64_t counter_value, double gauge_value) {
  ObsBundle bundle;
  bundle.shard = shard;
  bundle.os_pid = 1000 + shard;
  bundle.now_ns = 5000000ull + static_cast<uint64_t>(shard);
  bundle.trace_dropped = static_cast<uint64_t>(shard);
  bundle.metrics.counters.push_back({"wsie.test.remote.rows", counter_value});
  bundle.metrics.gauges.push_back({"wsie.test.remote.depth", gauge_value});
  HistogramSnapshot hist;
  hist.name = "wsie.test.remote.lat";
  hist.bounds = {10.0, 100.0};
  hist.bucket_counts = {1, 2, static_cast<uint64_t>(shard)};
  hist.count = 3 + static_cast<uint64_t>(shard);
  hist.sum = 50.0 * (shard + 1);
  bundle.metrics.histograms.push_back(hist);
  TraceRecorder::ThreadStream stream;
  stream.tid = 1;
  TraceEvent begin;
  begin.ts_ns = 100;
  begin.phase = 'B';
  std::snprintf(begin.name, sizeof(begin.name), "worker.%d", shard);
  std::snprintf(begin.args, sizeof(begin.args), "trace=ab parent=cd");
  TraceEvent end = begin;
  end.ts_ns = 200;
  end.phase = 'E';
  stream.events = {begin, end};
  bundle.streams.push_back(std::move(stream));
  return bundle;
}

TEST(ObsBundleCodecTest, RoundTripPreservesEverything) {
  ObsBundle bundle = MakeBundle(3, 42, 2.5);
  const std::string bytes = EncodeObsBundle(bundle);
  Result<ObsBundle> decoded = DecodeObsBundle(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->shard, 3);
  EXPECT_EQ(decoded->os_pid, 1003);
  EXPECT_EQ(decoded->now_ns, bundle.now_ns);
  EXPECT_EQ(decoded->trace_dropped, 3u);
  ASSERT_EQ(decoded->metrics.counters.size(), 1u);
  EXPECT_EQ(decoded->metrics.counters[0].name, "wsie.test.remote.rows");
  EXPECT_EQ(decoded->metrics.counters[0].value, 42u);
  ASSERT_EQ(decoded->metrics.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(decoded->metrics.gauges[0].value, 2.5);
  ASSERT_EQ(decoded->metrics.histograms.size(), 1u);
  const HistogramSnapshot& hist = decoded->metrics.histograms[0];
  EXPECT_EQ(hist.bounds, (std::vector<double>{10.0, 100.0}));
  EXPECT_EQ(hist.bucket_counts, (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(hist.count, 6u);
  EXPECT_DOUBLE_EQ(hist.sum, 200.0);
  ASSERT_EQ(decoded->streams.size(), 1u);
  ASSERT_EQ(decoded->streams[0].events.size(), 2u);
  EXPECT_STREQ(decoded->streams[0].events[0].name, "worker.3");
  EXPECT_STREQ(decoded->streams[0].events[0].args, "trace=ab parent=cd");
  EXPECT_EQ(decoded->streams[0].events[1].phase, 'E');
  // Deterministic: encoding the decoded bundle reproduces the bytes.
  EXPECT_EQ(EncodeObsBundle(*decoded), bytes);
}

TEST(ObsBundleCodecTest, RejectsTruncationAndBitFlips) {
  // Same contract as the fault::Checkpoint codec this framing reuses:
  // any truncation and any single bit flip must fail decode, never
  // half-load.
  const std::string bytes = EncodeObsBundle(MakeBundle(1, 7, 1.0));
  ASSERT_GT(bytes.size(), 16u);
  for (size_t len : {size_t{0}, size_t{1}, size_t{8}, bytes.size() / 2,
                     bytes.size() - 1}) {
    EXPECT_FALSE(DecodeObsBundle(std::string_view(bytes.data(), len)).ok())
        << "truncated to " << len;
  }
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string flipped = bytes;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x40);
    EXPECT_FALSE(DecodeObsBundle(flipped).ok()) << "bit flip at byte " << i;
  }
}

TEST(MergeSnapshotsTest, CountersSumGaugesLabelHistogramsAddBucketwise) {
  std::vector<ObsBundle> bundles = {MakeBundle(0, 10, 1.5),
                                    MakeBundle(1, 32, 2.5)};
  MetricsSnapshot merged = MergeSnapshots(bundles);
  // Counters sum exactly.
  EXPECT_EQ(merged.CounterValue("wsie.test.remote.rows"), 42u);
  // Gauges keep per-shard identity via a {shard="k"} label.
  EXPECT_DOUBLE_EQ(
      merged.GaugeValue("wsie.test.remote.depth{shard=\"0\"}"), 1.5);
  EXPECT_DOUBLE_EQ(
      merged.GaugeValue("wsie.test.remote.depth{shard=\"1\"}"), 2.5);
  EXPECT_DOUBLE_EQ(merged.GaugeValue("wsie.test.remote.depth"), 0.0);
  // Histograms with identical bounds add bucket-wise.
  const HistogramSnapshot* hist =
      merged.FindHistogram("wsie.test.remote.lat");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->bucket_counts, (std::vector<uint64_t>{2, 4, 1}));
  EXPECT_EQ(hist->count, 7u);
  EXPECT_DOUBLE_EQ(hist->sum, 150.0);
  // Determinism: merging equal inputs twice gives byte-equal output order.
  MetricsSnapshot again = MergeSnapshots(bundles);
  ASSERT_EQ(again.counters.size(), merged.counters.size());
  for (size_t i = 0; i < merged.counters.size(); ++i) {
    EXPECT_EQ(again.counters[i].name, merged.counters[i].name);
    EXPECT_EQ(again.counters[i].value, merged.counters[i].value);
  }
}

TEST(MergeSnapshotsTest, MismatchedBoundsFallBackToLabeledPerShard) {
  std::vector<ObsBundle> bundles = {MakeBundle(0, 1, 0.0),
                                    MakeBundle(1, 1, 0.0)};
  bundles[1].metrics.histograms[0].bounds = {10.0, 100.0, 1000.0};
  bundles[1].metrics.histograms[0].bucket_counts = {1, 1, 1, 1};
  MetricsSnapshot merged = MergeSnapshots(bundles);
  // No merged unlabeled histogram — a bucket-wise add over different
  // ladders would be wrong — but both per-shard forms survive.
  EXPECT_EQ(merged.FindHistogram("wsie.test.remote.lat"), nullptr);
  EXPECT_NE(merged.FindHistogram("wsie.test.remote.lat{shard=\"0\"}"),
            nullptr);
  EXPECT_NE(merged.FindHistogram("wsie.test.remote.lat{shard=\"1\"}"),
            nullptr);
}

TEST(AppendMetricLabelTest, AppendsAndMergesIntoExistingBlock) {
  EXPECT_EQ(AppendMetricLabel("wsie.x", "shard", "3"),
            "wsie.x{shard=\"3\"}");
  EXPECT_EQ(AppendMetricLabel("wsie.x{op=\"parse\"}", "shard", "3"),
            "wsie.x{op=\"parse\",shard=\"3\"}");
}

TEST(StitchTest, MultiProcessTraceValidatesWithDistinctPids) {
  auto stream_with_span = [](uint64_t begin_ns, uint64_t end_ns,
                             const char* name) {
    TraceRecorder::ThreadStream stream;
    stream.tid = 1;
    TraceEvent begin;
    begin.ts_ns = begin_ns;
    begin.phase = 'B';
    std::snprintf(begin.name, sizeof(begin.name), "%s", name);
    TraceEvent end = begin;
    end.ts_ns = end_ns;
    end.phase = 'E';
    stream.events = {begin, end};
    return stream;
  };
  std::vector<ProcessTrace> processes(3);
  processes[0].pid = 1;
  processes[0].streams.push_back(stream_with_span(0, 5000, "shard.run"));
  processes[1].pid = 2;
  processes[1].offset_ns = 1000;
  processes[1].dropped = 4;
  processes[1].streams.push_back(stream_with_span(0, 2000, "shard.worker.0"));
  processes[2].pid = 3;
  // A negative re-base that would push timestamps below zero: the emitter
  // clamps at 0 without breaking per-thread order.
  processes[2].offset_ns = -10000;
  processes[2].streams.push_back(stream_with_span(100, 3000, "shard.worker.1"));
  StitchReport report;
  const std::string json = StitchChromeTrace(processes, &report);
  Status checked = ValidateChromeTrace(json);
  ASSERT_TRUE(checked.ok()) << checked.ToString();
  EXPECT_EQ(report.processes, 3u);
  EXPECT_EQ(report.threads, 3u);
  EXPECT_EQ(report.events, 6u);
  EXPECT_EQ(report.dropped, 4u);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":3"), std::string::npos);
  EXPECT_NE(json.find("shard.worker.1"), std::string::npos);
}

TEST(TraceDroppedMetricTest, RingOverwritesExportAsCounter) {
  const uint64_t before = MetricsRegistry::Global().Snapshot().CounterValue(
      "wsie.obs.trace.dropped");
  TraceRecorder recorder;
  recorder.SetRingCapacity(16);
  recorder.SetEnabled(true);
  for (int i = 0; i < 200; ++i) {
    recorder.Begin("spin");
    recorder.End();
  }
  EXPECT_GT(recorder.dropped(), 0u);
  const uint64_t after = MetricsRegistry::Global().Snapshot().CounterValue(
      "wsie.obs.trace.dropped");
  EXPECT_EQ(after - before, recorder.dropped());
}

TEST(TraceTest, ExportBalancedStreamsHaveMatchedPairs) {
  TraceRecorder recorder;
  recorder.SetEnabled(true);
  recorder.Begin("outer");
  recorder.Begin("inner");
  recorder.End();
  // "outer" is still open: export must close it with a synthetic 'E'.
  std::vector<TraceRecorder::ThreadStream> streams =
      recorder.ExportBalanced();
  ASSERT_EQ(streams.size(), 1u);
  const auto& events = streams[0].events;
  ASSERT_EQ(events.size(), 4u);
  int depth = 0;
  for (const TraceEvent& event : events) {
    depth += event.phase == 'B' ? 1 : -1;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

// The profiler drives SIGPROF through real signal delivery; sanitizer
// runtimes intercept signals and make its timing assertions meaningless,
// so the behavioral test runs only in plain builds.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define WSIE_TEST_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define WSIE_TEST_UNDER_SANITIZER 1
#endif
#endif

#ifndef WSIE_TEST_UNDER_SANITIZER

TEST(ProfilerTest, CapturesSamplesFromBusyLoop) {
  Profiler& profiler = Profiler::Global();
  profiler.Reset();
  Profiler::Options options;
  options.hz = 997;  // fast sampling keeps the busy loop short
  Status started = profiler.Start(options);
  ASSERT_TRUE(started.ok()) << started.ToString();
  EXPECT_FALSE(profiler.Start().ok());  // double-start is an error
  // Burn CPU until samples land (ITIMER_PROF counts CPU time, so the loop
  // itself is what gets sampled). Bounded to stay robust on loaded hosts.
  volatile double sink = 1.0;
  Stopwatch watch;
  while (profiler.samples() < 3 && watch.ElapsedNs() < 5'000'000'000LL) {
    for (int i = 0; i < 100000; ++i) sink = sink * 1.0000001 + 0.1;
  }
  profiler.Stop();
  EXPECT_FALSE(profiler.running());
  EXPECT_GT(profiler.samples(), 0u);
  const std::string folded = profiler.FoldedStacks();
  EXPECT_FALSE(folded.empty());
  // Folded lines are "frame;frame;... count": every line ends in a count.
  EXPECT_NE(folded.find(';'), std::string::npos);
  profiler.Reset();
  EXPECT_EQ(profiler.samples(), 0u);
}

#endif  // WSIE_TEST_UNDER_SANITIZER

}  // namespace
}  // namespace wsie::obs
