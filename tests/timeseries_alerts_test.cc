// Tests for the flight-recorder observability stack (src/obs): the
// delta-encoded metrics time-series ring (hand-computed scrape sequences,
// wraparound, gauge carry-forward, histogram bucket deltas), the SLO alert
// engine (rule parser, pending -> firing -> resolved state machine with
// hysteresis, rate/burn expressions), the CRC-guarded flight segment
// (spill/load round-trip, corruption rejection) and a forked-and-SIGKILLed
// child whose pre-crash telemetry must survive as a readable forensic
// report with a fired alert.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/runtime.h"
#include "net/trace_generator.h"
#include "obs/alerts.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "query/query.h"
#include "rss_probe.h"

namespace streamop {
namespace {

namespace fs = std::filesystem;

using obs::AlertEngine;
using obs::AlertRule;
using obs::AlertSeverity;
using obs::AlertState;
using obs::AlertStatus;
using obs::AlertTransition;
using obs::Counter;
using obs::FlightRecorder;
using obs::FlightRecorderOptions;
using obs::ForensicReport;
using obs::Gauge;
using obs::Histogram;
using obs::MetricRegistry;
using obs::SeriesKind;
using obs::TimeSeries;
using obs::TimeSeriesOptions;
using obs::TimeSeriesPoint;

constexpr uint64_t kNs = 1;
constexpr uint64_t kMs = 1000000 * kNs;
constexpr uint64_t kT0 = 1000000000ull;  // synthetic epoch
constexpr uint64_t kStep = 100 * kMs;    // synthetic scrape period

TimeSeriesOptions SmallRing(size_t capacity) {
  TimeSeriesOptions o;
  o.capacity = capacity;
  o.max_series = 64;
  o.max_points = 64;
  o.max_bucket_deltas = 256;
  o.interval_ms = 100;
  return o;
}

// ---------- time-series ring: hand-computed scrapes ----------

TEST(TimeSeriesTest, CounterDeltasMatchHandComputedScrapes) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  MetricRegistry reg;
  Counter* c = reg.GetCounter("streamop_test_total");
  TimeSeries ts(SmallRing(8));

  // Scrape values 5, 12, 12 (no move), 20.
  c->Add(5);
  ts.Scrape(reg, kT0 + 0 * kStep);
  c->Add(7);
  ts.Scrape(reg, kT0 + 1 * kStep);
  ts.Scrape(reg, kT0 + 2 * kStep);
  c->Add(8);
  ts.Scrape(reg, kT0 + 3 * kStep);

  const std::vector<TimeSeriesPoint> pts = ts.Window("streamop_test_total", 8);
  ASSERT_EQ(pts.size(), 4u);
  // Cumulative reconstruction: 5, 12, 12, 20 with deltas 5, 7, 0, 8.
  EXPECT_DOUBLE_EQ(pts[0].value, 5.0);
  EXPECT_DOUBLE_EQ(pts[0].delta, 5.0);
  EXPECT_DOUBLE_EQ(pts[1].value, 12.0);
  EXPECT_DOUBLE_EQ(pts[1].delta, 7.0);
  EXPECT_DOUBLE_EQ(pts[2].value, 12.0);
  EXPECT_DOUBLE_EQ(pts[2].delta, 0.0);
  EXPECT_DOUBLE_EQ(pts[3].value, 20.0);
  EXPECT_DOUBLE_EQ(pts[3].delta, 8.0);
  EXPECT_EQ(pts[0].t_ns, kT0);
  EXPECT_EQ(pts[3].t_ns, kT0 + 3 * kStep);
  EXPECT_DOUBLE_EQ(ts.LatestValue("streamop_test_total"), 20.0);
}

TEST(TimeSeriesTest, WraparoundFoldsDeltasIntoBaseExactly) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  MetricRegistry reg;
  Counter* c = reg.GetCounter("streamop_test_total");
  TimeSeries ts(SmallRing(4));

  // 10 scrapes, scrape k adds k+1: cumulative after k is (k+1)(k+2)/2.
  for (uint64_t k = 0; k < 10; ++k) {
    c->Add(k + 1);
    ts.Scrape(reg, kT0 + k * kStep);
  }
  EXPECT_DOUBLE_EQ(ts.LatestValue("streamop_test_total"), 55.0);

  // Only 4 intervals are retained (scrapes 6..9); reconstruction must use
  // the folded base (value after scrape 5 = 21) and stay exact.
  const std::vector<TimeSeriesPoint> pts = ts.Window("streamop_test_total", 99);
  ASSERT_EQ(pts.size(), 4u);
  double expect = 21.0;
  for (size_t i = 0; i < 4; ++i) {
    const double delta = static_cast<double>(6 + i + 1);
    expect += delta;
    EXPECT_DOUBLE_EQ(pts[i].delta, delta) << "interval " << i;
    EXPECT_DOUBLE_EQ(pts[i].value, expect) << "interval " << i;
    EXPECT_EQ(pts[i].t_ns, kT0 + (6 + i) * kStep);
  }
}

TEST(TimeSeriesTest, GaugeCarryForwardAcrossSparseIntervalsAndEviction) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  MetricRegistry reg;
  Gauge* g = reg.GetGauge("streamop_test_gauge");
  TimeSeries ts(SmallRing(4));

  g->Set(5.0);
  ts.Scrape(reg, kT0);  // the only interval holding a point
  for (uint64_t k = 1; k < 7; ++k) {
    ts.Scrape(reg, kT0 + k * kStep);  // unchanged: sparse, no points
  }
  // The interval that carried the value has been evicted; the fold must
  // have moved it into the series base.
  const std::vector<TimeSeriesPoint> pts = ts.Window("streamop_test_gauge", 99);
  ASSERT_EQ(pts.size(), 4u);
  for (const TimeSeriesPoint& p : pts) EXPECT_DOUBLE_EQ(p.value, 5.0);
  EXPECT_DOUBLE_EQ(ts.LatestValue("streamop_test_gauge"), 5.0);

  g->Set(9.5);
  ts.Scrape(reg, kT0 + 7 * kStep);
  EXPECT_DOUBLE_EQ(ts.LatestValue("streamop_test_gauge"), 9.5);
  const std::vector<TimeSeriesPoint> pts2 =
      ts.Window("streamop_test_gauge", 2);
  ASSERT_EQ(pts2.size(), 2u);
  EXPECT_DOUBLE_EQ(pts2[0].value, 5.0);
  EXPECT_DOUBLE_EQ(pts2[1].value, 9.5);
}

TEST(TimeSeriesTest, RateUsesCoveredSpanAndExcludesOldestDelta) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  MetricRegistry reg;
  Counter* c = reg.GetCounter("streamop_test_total");
  TimeSeries ts(SmallRing(8));

  // +10 per 100ms scrape => 100/s. The oldest retained interval's covering
  // span is unknown, so its delta must not be counted.
  for (uint64_t k = 0; k < 5; ++k) {
    c->Add(10);
    ts.Scrape(reg, kT0 + k * kStep);
  }
  // Window covers everything: 4 counted deltas over 4 steps.
  EXPECT_NEAR(ts.Rate("streamop_test_total", 60.0), 100.0, 1e-9);
  // Narrow window: only the newest ~2 intervals are included, span runs
  // from their predecessor — still exactly 100/s.
  EXPECT_NEAR(ts.Rate("streamop_test_total", 0.25), 100.0, 1e-9);
  // A single retained interval cannot produce a rate.
  TimeSeries fresh(SmallRing(8));
  c->Add(1);
  fresh.Scrape(reg, kT0);
  EXPECT_TRUE(std::isnan(fresh.Rate("streamop_test_total", 60.0)));
}

TEST(TimeSeriesTest, RateAggregatesAcrossLabeledSeriesByBareName) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  MetricRegistry reg;
  Counter* a = reg.GetCounter("streamop_ingest_gap_records_total",
                              "source=\"udp:1\"");
  Counter* b = reg.GetCounter("streamop_ingest_gap_records_total",
                              "source=\"udp:2\"");
  TimeSeries ts(SmallRing(8));
  for (uint64_t k = 0; k < 4; ++k) {
    a->Add(3);
    b->Add(7);
    ts.Scrape(reg, kT0 + k * kStep);
  }
  // 10 per 100ms across both sources => 100/s under the bare name.
  EXPECT_NEAR(ts.Rate("streamop_ingest_gap_records_total", 60.0), 100.0,
              1e-9);
  // Exact keys still resolve individually.
  EXPECT_NEAR(
      ts.Rate("streamop_ingest_gap_records_total{source=\"udp:1\"}", 60.0),
      30.0, 1e-9);
  EXPECT_DOUBLE_EQ(
      ts.LatestValue("streamop_ingest_gap_records_total{source=\"udp:2\"}"),
      28.0);
}

TEST(TimeSeriesTest, HistogramBucketDeltasYieldIntervalAccurateQuantiles) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  MetricRegistry reg;
  Histogram* h = reg.GetHistogram("streamop_test_lat_ns");
  TimeSeries ts(SmallRing(8));

  for (int i = 0; i < 3; ++i) h->Record(100);
  ts.Scrape(reg, kT0);
  for (int i = 0; i < 5; ++i) h->Record(1000000);
  ts.Scrape(reg, kT0 + kStep);

  // The histogram decomposes into _count/_sum counter series.
  EXPECT_DOUBLE_EQ(ts.LatestValue("streamop_test_lat_ns_count"), 8.0);
  EXPECT_DOUBLE_EQ(ts.LatestValue("streamop_test_lat_ns_sum"),
                   3.0 * 100 + 5.0 * 1000000);

  // Quantiles over the whole window: 8 samples, 3 at ~100, 5 at ~1M.
  const double low_ub = static_cast<double>(
      Histogram::BucketUpperBound(Histogram::BucketIndex(100)));
  const double high_ub = static_cast<double>(
      Histogram::BucketUpperBound(Histogram::BucketIndex(1000000)));
  EXPECT_DOUBLE_EQ(ts.HistogramQuantile("streamop_test_lat_ns", 60.0, 0.3),
                   low_ub);
  EXPECT_DOUBLE_EQ(ts.HistogramQuantile("streamop_test_lat_ns", 60.0, 0.9),
                   high_ub);
  // Narrow window covering only the newest interval: every sample there is
  // ~1M, so even the low quantile jumps to the high bucket — the
  // interval-accurate behaviour a cumulative histogram cannot give.
  EXPECT_DOUBLE_EQ(ts.HistogramQuantile("streamop_test_lat_ns", 0.05, 0.3),
                   high_ub);
  EXPECT_TRUE(std::isnan(ts.HistogramQuantile("streamop_absent", 60.0, 0.5)));
}

TEST(TimeSeriesTest, OverflowDropsArePerIntervalAndCounted) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  TimeSeriesOptions o = SmallRing(4);
  o.max_points = 16;  // constructor floor
  MetricRegistry reg;
  std::vector<Counter*> cs;
  for (int i = 0; i < 24; ++i) {
    cs.push_back(
        reg.GetCounter("streamop_test_total", "i=\"" + std::to_string(i) +
                                                  "\""));
  }
  TimeSeries ts(o);
  for (Counter* c : cs) c->Add(1);
  ts.Scrape(reg, kT0);
  // 24 moving counters into 16 point slots: 8 dropped, counted, no crash.
  EXPECT_EQ(ts.dropped_points(), 8u);
  EXPECT_EQ(ts.num_series(), 24u);
}

TEST(TimeSeriesTest, SeriesBeyondMaxSeriesAreDroppedAndCounted) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  TimeSeriesOptions o = SmallRing(4);
  o.max_series = 3;
  MetricRegistry reg;
  for (int i = 0; i < 5; ++i) {
    reg.GetCounter("streamop_test_total",
                   "i=\"" + std::to_string(i) + "\"")->Add(1);
  }
  TimeSeries ts(o);
  ts.Scrape(reg, kT0);
  EXPECT_EQ(ts.num_series(), 3u);
  EXPECT_EQ(ts.dropped_series(), 2u);
}

TEST(TimeSeriesTest, JsonEndpointsCarrySeriesAndPoints) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  MetricRegistry reg;
  Counter* c = reg.GetCounter("streamop_test_total");
  TimeSeries ts(SmallRing(8));
  c->Add(5);
  ts.Scrape(reg, kT0);
  c->Add(5);
  ts.Scrape(reg, kT0 + kStep);

  const std::string list = ts.SeriesListJson();
  EXPECT_NE(list.find("\"streamop_test_total\""), std::string::npos) << list;
  EXPECT_NE(list.find("\"kind\": \"counter\""), std::string::npos) << list;
  EXPECT_NE(list.find("\"scrapes\": 2"), std::string::npos) << list;

  const std::string range = ts.RangeJson("streamop_test_total", 60.0);
  EXPECT_NE(range.find("\"points\": [["), std::string::npos) << range;
  // Second point: cumulative 10 at rate 5 per 0.1s = 50/s.
  EXPECT_NE(range.find(", 10, 50]"), std::string::npos) << range;
}

// The default ring reserves 240 x (1024 + 2048) x 16 B = 11.25 MiB of
// point and bucket-delta slabs; construction must commit none of it (the
// kernel commits a page when a scrape first writes into it).
TEST(TimeSeriesTest, ConstructionCommitsNoRingPages) {
  const int64_t growth = testing_rss::ChildRssGrowthBytes(
      [] { return std::make_unique<TimeSeries>(); });
  ASSERT_GE(growth, 0) << "RSS probe child failed";
  EXPECT_LT(growth, 1 << 20) << "constructing a default TimeSeries added "
                             << growth << " resident bytes";
}

// ---------- alert rule parser ----------

TEST(AlertRuleParserTest, ParsesFullRule) {
  auto r = AlertEngine::ParseRuleLine(
      "alert shed_high if value(streamop_runtime_shed_fraction) > 0.05 "
      "for 3 resolve 2 clear 0.01 over 30 severity critical");
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(r->name, "shed_high");
  EXPECT_EQ(r->expr, AlertRule::Expr::kValue);
  EXPECT_EQ(r->metric, "streamop_runtime_shed_fraction");
  EXPECT_EQ(r->cmp, AlertRule::Cmp::kGt);
  EXPECT_DOUBLE_EQ(r->threshold, 0.05);
  EXPECT_EQ(r->for_intervals, 3u);
  EXPECT_EQ(r->resolve_intervals, 2u);
  EXPECT_TRUE(r->has_clear_threshold);
  EXPECT_DOUBLE_EQ(r->clear_threshold, 0.01);
  EXPECT_DOUBLE_EQ(r->window_s, 30.0);
  EXPECT_EQ(r->severity, AlertSeverity::kCritical);
}

TEST(AlertRuleParserTest, ParsesBurnWithSpacedOperands) {
  auto r = AlertEngine::ParseRuleLine(
      "alert err_budget if burn(streamop_err_total, streamop_req_total) "
      ">= 0.1 severity warning");
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(r->expr, AlertRule::Expr::kBurn);
  EXPECT_EQ(r->metric, "streamop_err_total");
  EXPECT_EQ(r->denom_metric, "streamop_req_total");
  EXPECT_EQ(r->cmp, AlertRule::Cmp::kGe);
}

TEST(AlertRuleParserTest, RejectsMalformedRules) {
  const char* bad[] = {
      "warn x if value(m) > 1 severity info",       // not 'alert'
      "alert x value(m) > 1 severity info",         // missing 'if'
      "alert x if frob(m) > 1 severity info",       // unknown expr
      "alert x if value(m) ~ 1 severity info",      // unknown comparator
      "alert x if value(m) > nope severity info",   // bad threshold
      "alert x if value(m) > 1 severity shouting",  // bad severity
      "alert x if value(m) > 1",                    // missing severity
      "alert x if burn(m) > 1 severity info",       // burn needs two args
      "alert x if value(m) > 1 for 0 severity info",  // zero 'for'
  };
  for (const char* line : bad) {
    EXPECT_FALSE(AlertEngine::ParseRuleLine(line).ok()) << line;
  }
}

TEST(AlertRuleParserTest, RuleTextSkipsCommentsAndNamesBadLines) {
  AlertEngine eng;
  Status ok = eng.AddRulesFromText(
      "# comment only\n"
      "\n"
      "alert a if value(m) > 1 severity info  # trailing comment\n"
      "alert b if rate(n) > 5 over 20 severity warning\n");
  EXPECT_TRUE(ok.ok()) << ok.message();
  EXPECT_EQ(eng.num_rules(), 2u);

  AlertEngine eng2;
  Status bad = eng2.AddRulesFromText(
      "alert a if value(m) > 1 severity info\n"
      "alert broken if nope\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.message().find("line 2"), std::string::npos) << bad.message();
  EXPECT_EQ(eng2.num_rules(), 1u);  // earlier lines still installed
}

// ---------- alert state machine ----------

class StateMachineFixture {
 public:
  StateMachineFixture() : ts_(SmallRing(16)) {
    gauge_ = reg_.GetGauge("streamop_test_gauge");
    AlertRule r;
    r.name = "g_high";
    r.expr = AlertRule::Expr::kValue;
    r.metric = "streamop_test_gauge";
    r.cmp = AlertRule::Cmp::kGt;
    r.threshold = 10.0;
    r.clear_threshold = 5.0;  // hysteresis
    r.has_clear_threshold = true;
    r.for_intervals = 2;
    r.resolve_intervals = 2;
    r.severity = AlertSeverity::kCritical;
    engine_.AddRule(r);
  }

  AlertState Step(double gauge_value) {
    gauge_->Set(gauge_value);
    ts_.Scrape(reg_, t_);
    engine_.Evaluate(ts_, t_);
    t_ += kStep;
    return engine_.Snapshot()[0].state;
  }

  MetricRegistry reg_;
  Gauge* gauge_ = nullptr;
  TimeSeries ts_;
  AlertEngine engine_;
  uint64_t t_ = kT0;
};

TEST(AlertStateMachineTest, PendingFiringResolvedWithHysteresis) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  StateMachineFixture f;
  EXPECT_EQ(f.Step(3.0), AlertState::kInactive);   // below threshold
  EXPECT_EQ(f.Step(20.0), AlertState::kPending);   // 1st true < for 2
  EXPECT_EQ(f.Step(20.0), AlertState::kFiring);    // 2nd true -> firing
  EXPECT_TRUE(f.engine_.critical_firing());
  EXPECT_EQ(f.engine_.Summary().firing, 1u);

  // Hysteresis: 7 is below the firing threshold (10) but above the clear
  // threshold (5) — the alert must NOT resolve.
  EXPECT_EQ(f.Step(7.0), AlertState::kFiring);
  EXPECT_EQ(f.Step(7.0), AlertState::kFiring);
  // Truly clear, but resolve needs 2 consecutive clear evals.
  EXPECT_EQ(f.Step(3.0), AlertState::kFiring);
  EXPECT_EQ(f.Step(3.0), AlertState::kInactive);
  EXPECT_FALSE(f.engine_.critical_firing());

  // A clear interval mid-way resets the resolve count.
  EXPECT_EQ(f.Step(20.0), AlertState::kPending);
  EXPECT_EQ(f.Step(20.0), AlertState::kFiring);
  EXPECT_EQ(f.Step(3.0), AlertState::kFiring);   // clear #1
  EXPECT_EQ(f.Step(20.0), AlertState::kFiring);  // re-crossed: reset
  EXPECT_EQ(f.Step(3.0), AlertState::kFiring);   // clear #1 again
  EXPECT_EQ(f.Step(3.0), AlertState::kInactive);

  const std::vector<AlertStatus> snap = f.engine_.Snapshot();
  EXPECT_EQ(snap[0].times_fired, 2u);

  // The transition log replays the whole story, oldest first.
  const std::vector<AlertTransition> log = f.engine_.Transitions();
  ASSERT_EQ(log.size(), 6u);
  EXPECT_EQ(log[0].from, AlertState::kInactive);
  EXPECT_EQ(log[0].to, AlertState::kPending);
  EXPECT_EQ(log[1].to, AlertState::kFiring);
  EXPECT_EQ(log[2].from, AlertState::kFiring);
  EXPECT_EQ(log[2].to, AlertState::kInactive);
  EXPECT_EQ(log[5].to, AlertState::kInactive);
}

TEST(AlertStateMachineTest, PendingFallsBackToInactiveWhenConditionClears) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  StateMachineFixture f;
  EXPECT_EQ(f.Step(20.0), AlertState::kPending);
  EXPECT_EQ(f.Step(3.0), AlertState::kInactive);  // never fired
  EXPECT_EQ(f.engine_.Snapshot()[0].times_fired, 0u);
}

TEST(AlertEngineTest, RateAndBurnRulesEvaluateOverTheRing) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  MetricRegistry reg;
  Counter* err = reg.GetCounter("streamop_err_total");
  Counter* req = reg.GetCounter("streamop_req_total");
  TimeSeries ts(SmallRing(16));
  AlertEngine eng;
  ASSERT_TRUE(eng.AddRulesFromText(
                     "alert err_rate if rate(streamop_err_total) > 40 "
                     "over 60 severity warning\n"
                     "alert err_burn if burn(streamop_err_total, "
                     "streamop_req_total) > 0.05 over 60 severity critical\n")
                  .ok());
  uint64_t t = kT0;
  for (int k = 0; k < 4; ++k) {
    err->Add(5);    // 50/s at 100ms scrapes
    req->Add(50);   // 500/s -> burn fraction 0.1
    ts.Scrape(reg, t);
    eng.Evaluate(ts, t);
    t += kStep;
  }
  const std::vector<AlertStatus> snap = eng.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].state, AlertState::kFiring) << "rate rule";
  EXPECT_NEAR(snap[0].last_value, 50.0, 1e-6);
  EXPECT_EQ(snap[1].state, AlertState::kFiring) << "burn rule";
  EXPECT_NEAR(snap[1].last_value, 0.1, 1e-6);
  EXPECT_TRUE(eng.critical_firing());

  const std::string json = eng.ToJson();
  EXPECT_NE(json.find("\"critical_firing\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("burn(streamop_err_total"), std::string::npos) << json;
}

TEST(AlertEngineTest, BuiltinRulesCoverTheEngineSlos) {
  AlertEngine eng;
  eng.AddBuiltinRules();
  const std::vector<AlertStatus> snap = eng.Snapshot();
  std::vector<std::string> names;
  for (const AlertStatus& st : snap) names.push_back(st.rule.name);
  for (const char* want :
       {"shed_fraction_high", "shed_fraction_critical", "ring_push_failures",
        "ingest_gap_records", "ingest_duplicates", "late_tuples",
        "checkpoint_degraded", "checkpoint_age", "watchdog_fired"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), want), names.end())
        << want;
  }
  // The accuracy-SLO rule appears only with a target configured.
  AlertEngine::Options opt;
  opt.quality_ci_target = 123.0;
  AlertEngine with_quality(opt);
  with_quality.AddBuiltinRules();
  EXPECT_EQ(with_quality.num_rules(), eng.num_rules() + 1);
}

// ---------- concurrency (named for the TSan CI regex) ----------

TEST(ObsConcurrencyTest, ScrapeVsExportVsEvaluate) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  MetricRegistry reg;
  Counter* c = reg.GetCounter("streamop_test_total");
  Gauge* g = reg.GetGauge("streamop_test_gauge");
  Histogram* h = reg.GetHistogram("streamop_test_lat_ns");
  TimeSeries ts(SmallRing(16));
  AlertEngine eng;
  eng.AddBuiltinRules();

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      c->Add(3);
      g->Set(static_cast<double>(i % 100));
      h->Record(i % 4096);
      ++i;
    }
  });
  std::thread scraper([&] {
    uint64_t t = kT0;
    for (int k = 0; k < 400; ++k) {
      ts.Scrape(reg, t);
      eng.Evaluate(ts, t);
      t += kStep;
    }
  });
  std::thread reader([&] {
    for (int k = 0; k < 200; ++k) {
      (void)ts.SeriesListJson();
      (void)ts.RangeJson("streamop_test_total", 60.0);
      (void)ts.Rate("streamop_test_total", 10.0);
      (void)ts.MaxValue("streamop_test_gauge");
      (void)eng.ToJson();
      (void)eng.Summary();
    }
  });
  scraper.join();
  reader.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_EQ(ts.scrapes(), 400u);
  EXPECT_EQ(eng.evaluations(), 400u);
}

// ---------- flight recorder ----------

class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("flight_" + std::string(::testing::UnitTest::GetInstance()
                                        ->current_test_info()
                                        ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(FlightRecorderTest, SpillLoadRoundTrip) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  MetricRegistry reg;
  Counter* c = reg.GetCounter("streamop_test_total");
  Gauge* g = reg.GetGauge("streamop_runtime_shed_fraction");
  TimeSeries ts(SmallRing(16));
  AlertEngine eng;
  eng.AddBuiltinRules();
  uint64_t t = kT0;
  for (int k = 0; k < 6; ++k) {
    c->Add(10);
    g->Set(0.6);  // above shed_fraction_critical's 0.5 for 2 -> fires
    ts.Scrape(reg, t);
    eng.Evaluate(ts, t);
    t += kStep;
  }
  ASSERT_TRUE(eng.critical_firing());

  FlightRecorderOptions fopt;
  fopt.dir = dir_.string();
  FlightRecorder rec(fopt);
  ASSERT_TRUE(rec.Spill(ts, &eng).ok());
  EXPECT_EQ(rec.spills(), 1u);

  auto loaded = FlightRecorder::Load(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  const ForensicReport& r = *loaded;
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.scrapes, 6u);
  EXPECT_GE(r.fired_alerts(), 1u);
  bool found_series = false, found_alert = false, found_transition = false;
  for (const auto& row : r.rows) {
    if (row.key == "streamop_test_total") {
      found_series = true;
      ASSERT_FALSE(row.values.empty());
      // Counters are pre-rendered as rates: 10 per 100ms = 100/s.
      EXPECT_NEAR(row.values.back(), 100.0, 1e-6);
    }
  }
  for (const auto& a : r.alerts) {
    if (a.name == "shed_fraction_critical") {
      found_alert = true;
      EXPECT_EQ(a.state, "firing");
      EXPECT_EQ(a.severity, "critical");
      EXPECT_GE(a.times_fired, 1u);
    }
  }
  for (const auto& tr : r.transitions) {
    if (tr.rule == "shed_fraction_critical" && tr.to == "firing") {
      found_transition = true;
    }
  }
  EXPECT_TRUE(found_series);
  EXPECT_TRUE(found_alert);
  EXPECT_TRUE(found_transition);

  // Both render paths must mention the fired alert.
  EXPECT_NE(r.ToText().find("shed_fraction_critical"), std::string::npos);
  EXPECT_NE(r.ToJson().find("shed_fraction_critical"), std::string::npos);
}

// A spill writes the newest max_spans spans by start time, and its segment
// bytes depend only on the span ring and the series table. The spans go
// into a private 4,096-slot ring out of start order, and more of them than
// it holds, so the newest by start time are neither the newest emitted nor
// one run of slots. The digest covers the segment after its 32-byte header
// (the header carries the spill time).
TEST_F(FlightRecorderTest, SpillWritesTheNewestSpansByStartTime) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  MetricRegistry reg;
  Counter* c = reg.GetCounter("streamop_test_total");
  Gauge* g = reg.GetGauge("streamop_runtime_shed_fraction");
  Histogram* h = reg.GetHistogram("streamop_test_latency_ns");
  TimeSeries ts(SmallRing(16));
  AlertEngine eng;
  eng.AddBuiltinRules();
  uint64_t t = kT0;
  for (int k = 0; k < 20; ++k) {
    c->Add(10 + k);
    g->Set(0.1 * (k % 8));
    h->Record(1000 * (k + 1));
    ts.Scrape(reg, t);
    eng.Evaluate(ts, t);
    t += kStep;
  }

  obs::SpanRing ring(4096);
  ring.set_enabled(true);
  constexpr uint64_t kEmitted = 5000;
  std::vector<uint64_t> retained_ts;
  for (uint64_t i = 0; i < kEmitted; ++i) {
    obs::SpanRecord s;
    s.name = i % 3 == 0 ? "flush" : "admission";
    s.window_seq = i / 100;
    // 7919 is prime to 5000, so the start times are a permutation.
    s.ts_ns = kT0 + (i * 7919) % kEmitted * 1000;
    s.dur_ns = 10 + i;
    s.rows = i % 512;
    ring.Emit(s);
    if (i >= kEmitted - ring.capacity()) retained_ts.push_back(s.ts_ns);
  }
  std::sort(retained_ts.begin(), retained_ts.end());

  FlightRecorderOptions fopt;
  fopt.dir = dir_.string();
  fopt.span_ring = &ring;
  FlightRecorder rec(fopt);
  ASSERT_TRUE(rec.Spill(ts, &eng).ok());

  auto loaded = FlightRecorder::Load(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ASSERT_EQ(loaded->spans.size(), fopt.max_spans);
  const size_t first = retained_ts.size() - fopt.max_spans;
  for (size_t i = 0; i < fopt.max_spans; ++i) {
    EXPECT_EQ(loaded->spans[i].ts_ns, retained_ts[first + i]) << "span " << i;
  }

  std::ifstream in(rec.segment_path(), std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  ASSERT_GT(bytes.size(), FlightRecorder::kHeaderSize);
  uint64_t hash = 14695981039346656037ULL;  // FNV-1a 64
  for (size_t i = FlightRecorder::kHeaderSize; i < bytes.size(); ++i) {
    hash ^= static_cast<unsigned char>(bytes[i]);
    hash *= 1099511628211ULL;
  }
  char hex[24];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(hash));
  EXPECT_STREQ(hex, "d93df28412495704");
}

TEST_F(FlightRecorderTest, CorruptAndTruncatedSegmentsAreRejected) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  MetricRegistry reg;
  reg.GetCounter("streamop_test_total")->Add(7);
  TimeSeries ts(SmallRing(8));
  ts.Scrape(reg, kT0);
  ts.Scrape(reg, kT0 + kStep);
  FlightRecorderOptions fopt;
  fopt.dir = dir_.string();
  FlightRecorder rec(fopt);
  ASSERT_TRUE(rec.Spill(ts, nullptr).ok());
  const std::string path = rec.segment_path();

  // Pristine copy loads.
  ASSERT_TRUE(FlightRecorder::Load(dir_.string()).ok());

  // Flip one payload byte: payload CRC must reject it.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(FlightRecorder::kHeaderSize + 5);
    char b = 0;
    f.seekg(FlightRecorder::kHeaderSize + 5);
    f.read(&b, 1);
    b ^= 0x40;
    f.seekp(FlightRecorder::kHeaderSize + 5);
    f.write(&b, 1);
  }
  EXPECT_FALSE(FlightRecorder::Load(dir_.string()).ok());

  // Rewrite, then truncate mid-payload: torn write must be rejected.
  ASSERT_TRUE(rec.Spill(ts, nullptr).ok());
  ASSERT_TRUE(FlightRecorder::Load(dir_.string()).ok());
  fs::resize_file(path, fs::file_size(path) - 7);
  EXPECT_FALSE(FlightRecorder::Load(dir_.string()).ok());

  // Empty dir: NotFound, not an error that looks like corruption.
  fs::remove(path);
  auto missing = FlightRecorder::Load(dir_.string());
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST_F(FlightRecorderTest, SpillCreatesMissingNestedDir) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  MetricRegistry reg;
  reg.GetCounter("streamop_test_total")->Add(3);
  TimeSeries ts(SmallRing(8));
  ts.Scrape(reg, kT0);
  ts.Scrape(reg, kT0 + kStep);
  const fs::path nested = dir_ / "a" / "b" / "flight";
  FlightRecorderOptions fopt;
  fopt.dir = nested.string();
  FlightRecorder rec(fopt);
  EXPECT_FALSE(fs::exists(dir_ / "a"));  // construction touches no disk
  ASSERT_TRUE(rec.Spill(ts, nullptr).ok());
  EXPECT_EQ(rec.spills(), 1u);
  auto loaded = FlightRecorder::Load(nested.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded->scrapes, 2u);
}

TEST_F(FlightRecorderTest, MaybeSpillHonoursCadenceAndRequests) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  MetricRegistry reg;
  reg.GetCounter("streamop_test_total")->Add(1);
  TimeSeries ts(SmallRing(8));
  ts.Scrape(reg, kT0);
  FlightRecorderOptions fopt;
  fopt.dir = dir_.string();
  fopt.spill_every_n_ticks = 4;
  FlightRecorder rec(fopt);
  rec.MaybeSpill(ts, nullptr, 1);
  rec.MaybeSpill(ts, nullptr, 2);
  EXPECT_EQ(rec.spills(), 0u);  // off-cadence, no request
  rec.MaybeSpill(ts, nullptr, 4);
  EXPECT_EQ(rec.spills(), 1u);  // cadence hit
  rec.RequestSpill();
  rec.MaybeSpill(ts, nullptr, 5);
  EXPECT_EQ(rec.spills(), 2u);  // explicit request, off-cadence
  rec.MaybeSpill(ts, nullptr, 6);
  EXPECT_EQ(rec.spills(), 2u);  // request consumed
}

// ---------- SIGKILL forensics: the tentpole end-to-end guarantee ----------

// The child drives the whole stack the way the runtime's sampler does —
// scrape, evaluate, spill — while its telemetry degrades (ingest gaps, a
// fired watchdog). SIGKILL means no destructors and no final flush: only
// what the cadence spills already persisted can survive.
bool RunForensicsChildAndKill(const std::string& dir) {
  const pid_t pid = fork();
  if (pid == 0) {
    MetricRegistry reg;
    Counter* gaps = reg.GetCounter("streamop_ingest_gap_records_total",
                                   "source=\"udp:9999\"");
    Gauge* watchdog = reg.GetGauge("streamop_runtime_watchdog_fired");
    TimeSeries ts(SmallRing(32));
    AlertEngine eng;
    eng.AddBuiltinRules();
    FlightRecorderOptions fopt;
    fopt.dir = dir;
    fopt.spill_every_n_ticks = 1;  // every tick, so the parent can kill fast
    FlightRecorder rec(fopt);
    uint64_t t = kT0;
    for (uint64_t k = 0;; ++k) {
      gaps->Add(25);        // pre-crash gap spike -> ingest_gap_records fires
      watchdog->Set(1.0);   // critical watchdog_fired
      ts.Scrape(reg, t);
      eng.Evaluate(ts, t);
      rec.MaybeSpill(ts, &eng, k);
      t += kStep;
      ::usleep(2000);
    }
  }
  // Wait until at least one complete segment exists, give the child a few
  // more spill rounds, then kill it dead.
  const std::string seg = dir + "/flight.seg";
  bool seen = false;
  for (int i = 0; i < 500; ++i) {
    std::error_code ec;
    if (fs::exists(seg, ec) && fs::file_size(seg, ec) > 0) {
      seen = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (seen) std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ::kill(pid, SIGKILL);
  int wstatus = 0;
  ::waitpid(pid, &wstatus, 0);
  return seen && WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL;
}

TEST_F(FlightRecorderTest, SegmentSurvivesSigkillWithFiredAlerts) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  ASSERT_TRUE(RunForensicsChildAndKill(dir_.string()))
      << "child never produced a segment";

  auto loaded = FlightRecorder::Load(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  const ForensicReport& r = *loaded;
  ASSERT_TRUE(r.valid);
  EXPECT_GE(r.scrapes, 1u);
  EXPECT_GE(r.fired_alerts(), 1u) << r.ToText();

  bool watchdog_fired = false, gaps_recorded = false;
  for (const auto& a : r.alerts) {
    if (a.name == "watchdog_fired" && a.state == "firing") {
      watchdog_fired = true;
    }
  }
  for (const auto& row : r.rows) {
    if (row.key ==
        "streamop_ingest_gap_records_total{source=\"udp:9999\"}") {
      gaps_recorded = true;
      ASSERT_FALSE(row.values.empty());
    }
  }
  EXPECT_TRUE(watchdog_fired) << r.ToText();
  EXPECT_TRUE(gaps_recorded) << r.ToText();

  // The human-readable report is actually readable.
  const std::string text = r.ToText();
  EXPECT_NE(text.find("pre-crash forensics"), std::string::npos);
  EXPECT_NE(text.find("watchdog_fired"), std::string::npos);

  // The runtime's recovery path surfaces the same report: a fresh runtime
  // pointed at the flight dir loads the segment at construction.
  Catalog catalog = Catalog::Default();
  auto low = CompileQuery(
      "SELECT time, ts_ns, srcIP, destIP, srcPort, destPort, proto, len "
      "FROM PKT",
      catalog, {.seed = 1});
  auto high = CompileQuery(
      "SELECT tb, count(*) FROM PKT GROUP BY time/5 as tb", catalog,
      {.seed = 1});
  ASSERT_TRUE(low.ok() && high.ok());
  RuntimeOptions opt;
  opt.flight.dir = dir_.string();
  opt.timeseries.interval_ms = 50;
  TwoLevelRuntime rt(*low, {*high}, opt);
  EXPECT_TRUE(rt.forensic_report().valid);
  EXPECT_GE(rt.forensic_report().fired_alerts(), 1u);
  EXPECT_NE(rt.forensic_report().ToJson().find("watchdog_fired"),
            std::string::npos);
}

// ---------- sampler ----------

TEST(TimeSeriesSamplerTest, ThreadedSamplerScrapesAndStops) {
  MetricRegistry reg;
  Counter* c = reg.GetCounter("streamop_test_total");
  TimeSeries ts(SmallRing(16));
  obs::TimeSeriesSampler::Options opt;
  opt.interval_ms = 5;
  opt.registry = &reg;
  opt.timeseries = &ts;
  obs::TimeSeriesSampler sampler(opt);
  ASSERT_TRUE(sampler.Start().ok());
#ifndef STREAMOP_NO_STATS
  EXPECT_TRUE(sampler.running());
  for (int i = 0; i < 100 && ts.scrapes() < 3; ++i) {
    c->Add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(ts.scrapes(), 3u);
#endif
  sampler.Stop();
  EXPECT_FALSE(sampler.running());
  const uint64_t after = ts.scrapes();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(ts.scrapes(), after);  // really stopped
}

}  // namespace
}  // namespace streamop
