// Tests for the observability layer (src/obs): counter/gauge/histogram
// primitives, the metric registry with its JSON + Prometheus exports, the
// bounded trace-event ring, and end-to-end instrumentation through the
// ring buffer, the runtimes and the sampling operator.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/runtime.h"
#include "net/trace_generator.h"
#include "obs/metrics.h"
#include "obs/trace_ring.h"
#include "query/query.h"
#include "stream/ring_buffer.h"

namespace streamop {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::MetricRegistry;
using obs::TraceEvent;
using obs::TraceRing;

// ---------- primitives ----------

TEST(ObsCounterTest, AddsAndReads) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(ObsGaugeTest, SetAndSetMax) {
  Gauge g;
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.SetMax(1.0);  // below current: no change
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.SetMax(7.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
}

// ---------- histogram bucket math ----------

TEST(ObsHistogramTest, BucketBoundsContainTheirValues) {
  // Every probe value must land in a bucket whose [lb, ub) range holds it.
  std::vector<uint64_t> probes;
  for (uint64_t v = 0; v < 64; ++v) probes.push_back(v);
  for (int p = 3; p < 63; ++p) {
    uint64_t b = 1ULL << p;
    probes.push_back(b - 1);
    probes.push_back(b);
    probes.push_back(b + 1);
    probes.push_back(b + b / 2);
  }
  probes.push_back(UINT64_MAX / 2);
  for (uint64_t v : probes) {
    size_t i = Histogram::BucketIndex(v);
    ASSERT_LT(i, Histogram::kNumBuckets) << "v=" << v;
    uint64_t ub = Histogram::BucketUpperBound(i);
    uint64_t lb = i == 0 ? 0 : Histogram::BucketUpperBound(i - 1);
    EXPECT_GE(v, lb) << "v=" << v << " bucket=" << i;
    EXPECT_LT(v, ub) << "v=" << v << " bucket=" << i;
  }
}

TEST(ObsHistogramTest, BucketUpperBoundsStrictlyIncrease) {
  for (size_t i = 1; i < Histogram::kNumBuckets - 1; ++i) {
    EXPECT_LT(Histogram::BucketUpperBound(i - 1), Histogram::BucketUpperBound(i))
        << "bucket " << i;
  }
}

TEST(ObsHistogramTest, RelativeBucketWidthBounded) {
  // Log-linear with 4 sub-buckets per octave: width / lower-bound <= 25%
  // outside the exact linear region.
  for (size_t i = 2 * Histogram::kSubBuckets; i < 200; ++i) {
    uint64_t lb = Histogram::BucketUpperBound(i - 1);
    uint64_t ub = Histogram::BucketUpperBound(i);
    EXPECT_LE(ub - lb, lb / Histogram::kSubBuckets) << "bucket " << i;
  }
}

TEST(ObsHistogramTest, RecordAccumulatesCountSumMaxMean) {
  Histogram h;
  h.Record(1);
  h.Record(5);
  h.Record(100);
  h.Record(1000);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1106u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_DOUBLE_EQ(h.mean(), 1106.0 / 4.0);
}

TEST(ObsHistogramTest, QuantilesBracketTheRecordedValues) {
  Histogram h;
  for (int i = 0; i < 50; ++i) h.Record(10);
  for (int i = 0; i < 50; ++i) h.Record(1000);
  // The quantile estimate is the upper bound of the containing bucket, so
  // it can overshoot by at most one bucket width (<= 25%).
  uint64_t p25 = h.ValueAtQuantile(0.25);
  uint64_t p90 = h.ValueAtQuantile(0.90);
  EXPECT_GE(p25, 10u);
  EXPECT_LE(p25, 13u);
  EXPECT_GE(p90, 1000u);
  EXPECT_LE(p90, 1250u);
  // Extremes.
  EXPECT_GE(h.ValueAtQuantile(1.0), 1000u);
  EXPECT_GE(h.ValueAtQuantile(0.0), 10u);
  EXPECT_EQ(Histogram().ValueAtQuantile(0.5), 0u);  // empty
}

// ---------- registry ----------

TEST(MetricRegistryTest, RegistrationIsIdempotentPerNameAndLabels) {
  MetricRegistry reg;
  Counter* a = reg.GetCounter("streamop_test_total");
  Counter* b = reg.GetCounter("streamop_test_total");
  Counter* c = reg.GetCounter("streamop_test_total", "node=\"x\"");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(reg.num_metrics(), 2u);
}

TEST(MetricRegistryTest, KindMismatchReturnsNull) {
  MetricRegistry reg;
  ASSERT_NE(reg.GetCounter("streamop_test_total"), nullptr);
  EXPECT_EQ(reg.GetGauge("streamop_test_total"), nullptr);
  EXPECT_EQ(reg.GetHistogram("streamop_test_total"), nullptr);
}

TEST(MetricRegistryTest, JsonSnapshotCarriesValues) {
  MetricRegistry reg;
  reg.GetCounter("streamop_test_total")->Add(42);
  reg.GetGauge("streamop_test_gauge")->Set(2.5);
  Histogram* h = reg.GetHistogram("streamop_test_ns", "node=\"a\"");
  h->Record(7);
  std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"streamop_test_total\": 42"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"streamop_test_gauge\": 2.5"), std::string::npos)
      << json;
  EXPECT_NE(json.find("streamop_test_ns{node=\\\"a\\\"}"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos) << json;
}

// ---------- Prometheus round-trip ----------

// Minimal parser for the exposition format: returns sample name (with the
// label block verbatim) -> value, plus the # TYPE declarations.
struct PromParse {
  std::map<std::string, double> samples;
  std::map<std::string, std::string> types;  // family -> type
  std::vector<std::string> sample_order;
};

PromParse ParsePrometheus(const std::string& text) {
  PromParse out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream ls(line.substr(7));
      std::string family, type;
      ls >> family >> type;
      EXPECT_EQ(out.types.count(family), 0u)
          << "duplicate # TYPE for " << family;
      out.types[family] = type;
      continue;
    }
    EXPECT_NE(line[0], '#') << "unexpected comment: " << line;
    // "name{labels} value" or "name value"; the value is after the last
    // space (label values never contain spaces in our naming scheme).
    size_t sp = line.rfind(' ');
    EXPECT_NE(sp, std::string::npos) << line;
    if (line[0] == '#' || sp == std::string::npos) continue;
    std::string key = line.substr(0, sp);
    double value = std::stod(line.substr(sp + 1));
    EXPECT_EQ(out.samples.count(key), 0u) << "duplicate sample: " << key;
    out.samples[key] = value;
    out.sample_order.push_back(key);
  }
  return out;
}

TEST(MetricRegistryTest, PrometheusRoundTrip) {
  MetricRegistry reg;
  reg.GetCounter("streamop_test_total")->Add(42);
  reg.GetCounter("streamop_test_total", "node=\"a\"")->Add(7);
  reg.GetGauge("streamop_test_load")->Set(0.625);
  Histogram* h = reg.GetHistogram("streamop_test_ns", "node=\"a\"");
  h->Record(1);
  h->Record(5);
  h->Record(100);
  h->Record(1000);

  PromParse p = ParsePrometheus(reg.ToPrometheus());

  // Types declared once per family.
  EXPECT_EQ(p.types.at("streamop_test_total"), "counter");
  EXPECT_EQ(p.types.at("streamop_test_load"), "gauge");
  EXPECT_EQ(p.types.at("streamop_test_ns"), "histogram");

  // Counter and gauge values survive the round trip.
  EXPECT_DOUBLE_EQ(p.samples.at("streamop_test_total"), 42.0);
  EXPECT_DOUBLE_EQ(p.samples.at("streamop_test_total{node=\"a\"}"), 7.0);
  EXPECT_DOUBLE_EQ(p.samples.at("streamop_test_load"), 0.625);

  // Histogram: _sum/_count round-trip, bucket series is cumulative and
  // monotone, and the +Inf bucket equals _count.
  EXPECT_DOUBLE_EQ(p.samples.at("streamop_test_ns_sum{node=\"a\"}"), 1106.0);
  EXPECT_DOUBLE_EQ(p.samples.at("streamop_test_ns_count{node=\"a\"}"), 4.0);
  double prev = 0.0;
  double inf_value = -1.0;
  size_t bucket_lines = 0;
  for (const std::string& key : p.sample_order) {
    if (key.rfind("streamop_test_ns_bucket{", 0) != 0) continue;
    ++bucket_lines;
    double v = p.samples.at(key);
    EXPECT_GE(v, prev) << "cumulative bucket series must be monotone: " << key;
    prev = v;
    if (key.find("le=\"+Inf\"") != std::string::npos) inf_value = v;
  }
  EXPECT_GE(bucket_lines, 5u);  // 4 occupied buckets + the +Inf bucket
  EXPECT_DOUBLE_EQ(inf_value, 4.0);
}

TEST(MetricRegistryTest, PrometheusBucketLinesReconstructExactBucketCounts) {
  // Differencing consecutive cumulative `_bucket` lines must reproduce the
  // histogram's native per-bucket counts exactly — the property the
  // time-series ring (obs/timeseries.h) relies on when it derives
  // interval-accurate quantiles from bucket deltas.
  MetricRegistry reg;
  Histogram* h = reg.GetHistogram("streamop_test_ns", "node=\"a\"");
  const uint64_t probes[] = {1, 1, 5, 64, 64, 64, 100, 4096, 4097, 1000000};
  for (uint64_t v : probes) h->Record(v);

  // Expected (upper bound, native count) pairs, ascending, occupied only.
  std::vector<std::pair<uint64_t, uint64_t>> expected;
  for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    if (h->bucket_count(i) > 0) {
      expected.emplace_back(Histogram::BucketUpperBound(i), h->bucket_count(i));
    }
  }
  ASSERT_GE(expected.size(), 4u);

  PromParse p = ParsePrometheus(reg.ToPrometheus());
  std::vector<std::pair<uint64_t, uint64_t>> parsed;  // (le, delta)
  double prev_cum = 0.0;
  for (const std::string& key : p.sample_order) {
    if (key.rfind("streamop_test_ns_bucket{", 0) != 0) continue;
    const size_t le_pos = key.find("le=\"");
    ASSERT_NE(le_pos, std::string::npos) << key;
    const std::string le = key.substr(le_pos + 4, key.find('"', le_pos + 4) -
                                                      le_pos - 4);
    const double cum = p.samples.at(key);
    if (le == "+Inf") {
      EXPECT_DOUBLE_EQ(cum, static_cast<double>(h->count()));
      continue;
    }
    parsed.emplace_back(std::stoull(le),
                        static_cast<uint64_t>(cum - prev_cum));
    prev_cum = cum;
  }
  ASSERT_EQ(parsed.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(parsed[i].first, expected[i].first) << "bucket " << i;
    EXPECT_EQ(parsed[i].second, expected[i].second) << "bucket " << i;
  }
}

TEST(MetricRegistryTest, IngestMetricsCarryPerSourceLabels) {
  // Every streamop_ingest_* family is registered per source; two sources
  // must land in disjoint labeled series and export that way.
  MetricRegistry reg;
  obs::IngestSourceMetrics a = obs::IngestSourceMetrics::Create(reg, "udp:7");
  obs::IngestSourceMetrics b =
      obs::IngestSourceMetrics::Create(reg, "pcap:x.pcap");
  a.records->Add(10);
  a.gap_records->Add(3);
  b.records->Add(20);
  b.durable_offset->Set(512.0);
  EXPECT_NE(a.records, b.records);

  PromParse p = ParsePrometheus(reg.ToPrometheus());
  EXPECT_DOUBLE_EQ(
      p.samples.at("streamop_ingest_records_total{source=\"udp:7\"}"), 10.0);
  EXPECT_DOUBLE_EQ(
      p.samples.at("streamop_ingest_records_total{source=\"pcap:x.pcap\"}"),
      20.0);
  EXPECT_DOUBLE_EQ(
      p.samples.at("streamop_ingest_gap_records_total{source=\"udp:7\"}"),
      3.0);
  EXPECT_DOUBLE_EQ(
      p.samples.at("streamop_ingest_durable_offset{source=\"pcap:x.pcap\"}"),
      512.0);
  // The registry enumeration API the time-series scraper uses sees the
  // same labeled entries.
  size_t ingest_series = 0;
  reg.Visit([&](const obs::MetricRef& m) {
    if (m.name.rfind("streamop_ingest_", 0) == 0 && !m.labels.empty()) {
      ++ingest_series;
    }
  });
  EXPECT_EQ(ingest_series, 22u);  // 11 families x 2 sources
}

// ---------- trace ring ----------

TEST(TraceRingTest, DisabledRingRecordsNothing) {
  TraceRing ring(16);
  ring.Record("x", 1, 1);
  ring.Instant("y", 2);
  EXPECT_EQ(ring.events_recorded(), 0u);
  EXPECT_TRUE(ring.Snapshot().empty());
}

TEST(TraceRingTest, RecordsAndSortsByTimestamp) {
  TraceRing ring(16);
  ring.set_enabled(true);
  ring.Record("b", 200, 10);
  ring.Record("a", 100, 5);
  ring.Instant("c", 300, "z", 1.5);
  std::vector<TraceEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_STREQ(events[0].name, "a");
  EXPECT_STREQ(events[1].name, "b");
  EXPECT_STREQ(events[2].name, "c");
  EXPECT_TRUE(events[2].instant);
  EXPECT_DOUBLE_EQ(events[2].arg, 1.5);
}

TEST(TraceRingTest, OverwritesOldestWhenFull) {
  TraceRing ring(4);
  ring.set_enabled(true);
  for (uint64_t i = 0; i < 10; ++i) ring.Record("e", 100 + i, 1);
  EXPECT_EQ(ring.events_recorded(), 10u);
  std::vector<TraceEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Only the newest four survive.
  EXPECT_EQ(events.front().ts_ns, 106u);
  EXPECT_EQ(events.back().ts_ns, 109u);
}

TEST(TraceRingTest, MultipleWraparoundsRetainNewestCapacityEvents) {
  // Wrap the ring many times over: exactly the newest `capacity` events
  // survive, in timestamp order, with the total recorded count intact.
  TraceRing ring(8);
  ring.set_enabled(true);
  constexpr uint64_t kEvents = 1000;  // 125 full wraps
  for (uint64_t i = 0; i < kEvents; ++i) ring.Record("e", i, 1);
  EXPECT_EQ(ring.events_recorded(), kEvents);
  std::vector<TraceEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ts_ns, kEvents - 8 + i) << "slot " << i;
  }
}

TEST(TraceRingTest, ChromeTraceJsonShape) {
  TraceRing ring(16);
  ring.set_enabled(true);
  ring.Record("window_flush", 1000, 500);
  ring.Instant("ss_z_adjust_cleaning", 2000, "z", 42.0);
  std::string json = ring.ToChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"window_flush\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"z\": 42"), std::string::npos) << json;
}

// ---------- concurrency (exercised under TSan in CI) ----------

TEST(ObsConcurrencyTest, ConcurrentMetricRecordingAndExport) {
  // Producers hammer counters, gauges and histograms while readers export
  // snapshots: no torn reads, no lost counts, no data races.
  MetricRegistry reg;
  Counter* c = reg.GetCounter("streamop_conc_total");
  Gauge* g = reg.GetGauge("streamop_conc_gauge");
  Histogram* h = reg.GetHistogram("streamop_conc_ns");
  constexpr int kProducers = 4;
  constexpr int kIters = 20000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)reg.ToJson();
      (void)reg.ToPrometheus();
    }
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kIters; ++i) {
        c->Add();
        g->Set(static_cast<double>(i));
        h->Record(static_cast<uint64_t>(p * kIters + i));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(c->value(), static_cast<uint64_t>(kProducers) * kIters);
  EXPECT_EQ(h->count(), static_cast<uint64_t>(kProducers) * kIters);
}

TEST(ObsConcurrencyTest, ConcurrentTraceRecordingAndSnapshots) {
  TraceRing ring(128);
  ring.set_enabled(true);
  constexpr int kProducers = 4;
  constexpr int kIters = 5000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)ring.Snapshot();
      (void)ring.ToChromeTraceJson();
    }
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kIters; ++i) {
        ring.Record("e", static_cast<uint64_t>(p) * kIters + i, 1);
      }
    });
  }
  for (std::thread& t : producers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(ring.events_recorded(),
            static_cast<uint64_t>(kProducers) * kIters);
  EXPECT_EQ(ring.Snapshot().size(), 128u);
}

// ---------- ring buffer instrumentation ----------

TEST(RingBufferMetricsTest, CountsPushesPopsFailuresAndHwm) {
  MetricRegistry reg;
  const obs::RingBufferMetrics m = obs::RingBufferMetrics::Create(reg);
  RingBuffer<int> ring(3);  // usable capacity 3
  ring.AttachMetrics(&m);

  EXPECT_TRUE(ring.TryPush(1));
  EXPECT_TRUE(ring.TryPush(2));
  EXPECT_TRUE(ring.TryPush(3));
  EXPECT_FALSE(ring.TryPush(4));  // full
  int v = 0;
  EXPECT_TRUE(ring.TryPop(&v));
  EXPECT_TRUE(ring.TryPop(&v));
  EXPECT_TRUE(ring.TryPop(&v));
  EXPECT_FALSE(ring.TryPop(&v));  // empty: not counted

  EXPECT_EQ(m.pushes->value(), 3u);
  EXPECT_EQ(m.push_failures->value(), 1u);
  EXPECT_EQ(m.pops->value(), 3u);
  EXPECT_DOUBLE_EQ(m.occupancy_hwm->value(), 3.0);
}

// ---------- end-to-end: runtimes populate the registry ----------

TEST(RuntimeMetricsTest, SingleQueryRunPopulatesOperatorAndRingMetrics) {
  MetricRegistry reg;
  Trace trace = TraceGenerator::MakeResearchFeed(61.0, 42);
  auto cq = CompileQuery(
      "SELECT tb, srcIP, sum(len) FROM PKT GROUP BY time/20 as tb, srcIP",
      Catalog::Default(), {.seed = 1});
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  auto run = RunQueryOverTrace(*cq, trace, "q", &reg);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  const std::string node = "node=\"q\"";
  // The single-query path reads the trace in batches: no ring, so the
  // ring counters stay at zero.
  EXPECT_EQ(reg.GetCounter("streamop_ring_pushes_total")->value(), 0u);
  EXPECT_EQ(reg.GetCounter("streamop_ring_pops_total")->value(), 0u);
  EXPECT_EQ(reg.GetCounter("streamop_operator_tuples_total", node)->value(),
            trace.size());
  EXPECT_GT(reg.GetCounter("streamop_operator_windows_total", node)->value(),
            0u);
  EXPECT_GT(reg.GetHistogram("streamop_node_batch_latency_ns", node)->count(),
            0u);
  EXPECT_GT(reg.GetHistogram("streamop_operator_flush_ns", node)->count(), 0u);
  EXPECT_GT(reg.GetGauge("streamop_operator_peak_groups", node)->value(), 0.0);

  // RunReport tuple totals agree with the registry counters.
  EXPECT_EQ(run->report.tuples_in, trace.size());
}

TEST(RuntimeMetricsTest, ThreadedRunOnTinyRingCountsRetries) {
  // A 2-slot ring guarantees the producer finds it full: the report (and
  // registry) must surface the overload instead of hiding it.
  MetricRegistry reg;
  Trace trace = TraceGenerator::MakeResearchFeed(31.0, 9);
  auto low = CompileQuery(
      "SELECT time, ts_ns, srcIP, destIP, srcPort, destPort, proto, len "
      "FROM PKT",
      Catalog::Default());
  auto high = CompileQuery("SELECT tb, sum(len) FROM PKT GROUP BY time/20 as tb",
                           Catalog::Default());
  ASSERT_TRUE(low.ok());
  ASSERT_TRUE(high.ok());
  RuntimeOptions options;
  options.ring_capacity = 2;
  options.batch_size = 1;
  options.registry = &reg;
  TwoLevelRuntime rt(*low, {*high}, options);
  auto report = rt.RunThreaded(trace);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_EQ(report->low.tuples_in, trace.size());
  EXPECT_GT(report->ring_producer_retries, 0u);
  EXPECT_GT(report->ring_push_failures, 0u);
  EXPECT_EQ(report->packets_dropped, 0u);  // default: retry, never drop
  EXPECT_GT(report->ring_occupancy_hwm, 0u);
  EXPECT_EQ(reg.GetCounter("streamop_runtime_producer_retries_total")->value(),
            report->ring_producer_retries);
}

TEST(RuntimeMetricsTest, RingCountersCountOneRunOnASharedRegistry) {
  // Two runtimes on one registry, each with a 2-slot ring: every report
  // counts its own run's push failures (one per producer retry) and ring
  // high-water mark, not the registry's process-lifetime totals. A Run()
  // after them has no ring at all.
  MetricRegistry reg;
  Trace trace = TraceGenerator::MakeResearchFeed(31.0, 9);
  auto low = CompileQuery(
      "SELECT time, ts_ns, srcIP, destIP, srcPort, destPort, proto, len "
      "FROM PKT",
      Catalog::Default());
  auto high = CompileQuery("SELECT tb, sum(len) FROM PKT GROUP BY time/20 as tb",
                           Catalog::Default());
  ASSERT_TRUE(low.ok());
  ASSERT_TRUE(high.ok());
  RuntimeOptions options;
  options.ring_capacity = 2;
  options.batch_size = 1;
  options.registry = &reg;
  for (int run = 0; run < 2; ++run) {
    TwoLevelRuntime rt(*low, {*high}, options);
    auto report = rt.RunThreaded(trace);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_GT(report->ring_producer_retries, 0u) << "run " << run;
    EXPECT_EQ(report->ring_push_failures, report->ring_producer_retries)
        << "run " << run;
    EXPECT_GT(report->ring_occupancy_hwm, 0u) << "run " << run;
  }
  TwoLevelRuntime rt(*low, {*high}, options);
  auto report = rt.Run(trace);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->ring_push_failures, 0u);
  EXPECT_EQ(report->ring_occupancy_hwm, 0u);
}

TEST(RuntimeMetricsTest, DropOnOverloadAccountsForEveryPacket) {
  MetricRegistry reg;
  Trace trace = TraceGenerator::MakeResearchFeed(31.0, 13);
  auto low = CompileQuery(
      "SELECT time, ts_ns, srcIP, destIP, srcPort, destPort, proto, len "
      "FROM PKT",
      Catalog::Default());
  auto high = CompileQuery("SELECT tb, count(*) FROM PKT GROUP BY time/20 as tb",
                           Catalog::Default());
  ASSERT_TRUE(low.ok());
  ASSERT_TRUE(high.ok());
  RuntimeOptions options;
  options.ring_capacity = 2;
  options.batch_size = 1;
  options.drop_on_overload = true;
  options.registry = &reg;
  TwoLevelRuntime rt(*low, {*high}, options);
  auto report = rt.RunThreaded(trace);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Every packet is either consumed or counted as dropped — none vanish.
  EXPECT_EQ(report->low.tuples_in + report->packets_dropped, trace.size());
  EXPECT_EQ(reg.GetCounter("streamop_runtime_packets_dropped_total")->value(),
            report->packets_dropped);
}

TEST(RuntimeMetricsTest, SamplingQueryCountsSfunCallsAndZAdjustments) {
  // Subset-sum sampling drives the stateful-function counter (ssample is
  // called per admitted tuple) and, when the sampler overflows, the z
  // adjustment counter in the default registry.
  MetricRegistry reg;
  Trace trace = TraceGenerator::MakeResearchFeed(59.0, 45);
  auto cq = CompileQuery(R"(
      SELECT tb, srcIP, destIP, UMAX(sum(len), ssthreshold())
      FROM PKT
      WHERE ssample(len, 0, 2, 100, 10.0) = TRUE
      GROUP BY time/20 as tb, srcIP, destIP
      HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
      CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
      CLEANING BY ssclean_with(sum(len)) = TRUE
  )",
                         Catalog::Default(), {.seed = 4});
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  auto run = RunQueryOverTrace(*cq, trace, "ss", &reg);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  const std::string node = "node=\"ss\"";
  EXPECT_GT(reg.GetCounter("streamop_operator_sfun_calls_total", node)->value(),
            0u);
  EXPECT_GT(
      reg.GetCounter("streamop_operator_cleaning_phases_total", node)->value(),
      0u);
  EXPECT_GT(reg.GetHistogram("streamop_operator_cleaning_ns", node)->count(),
            0u);
  // z adjustments go to the process-wide default registry (the SFUN package
  // has no per-operator handle).
  EXPECT_GT(MetricRegistry::Default()
                .GetCounter("streamop_sfun_z_adjustments_total")
                ->value(),
            0u);
}

}  // namespace
}  // namespace streamop
