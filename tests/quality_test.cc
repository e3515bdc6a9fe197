// Tests for per-window sample-quality reporting (src/obs/quality.h + the
// SamplingOperator::RecordWindowQuality hook): the bounded QualityRing, the
// JSON schema of WindowQualityReport, the per-estimator quality entries
// (subset-sum threshold bounds, reservoir coverage, KMV sample sizes), the
// worst-case quality gauges, and — the acceptance criterion — empirical
// coverage of the Horvitz–Thompson 95% confidence intervals against ground
// truth over 100+ windows of Bernoulli-subsampled traffic.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/sampling_operator.h"
#include "engine/runtime.h"
#include "net/trace_generator.h"
#include "obs/metrics.h"
#include "obs/quality.h"
#include "query/query.h"
#include "tuple/tuple_batch.h"

namespace streamop {
namespace {

using obs::EstimatorQuality;
using obs::QualityRing;
using obs::WindowQualityReport;

// ---------- ring semantics ----------

TEST(QualityRingTest, PushOverwritesOldestWhenFull) {
  QualityRing ring(4);
  for (uint64_t i = 0; i < 10; ++i) {
    WindowQualityReport r;
    r.seq = i;
    ring.Push(std::move(r));
  }
  EXPECT_EQ(ring.reports_recorded(), 10u);
  EXPECT_EQ(ring.size(), 4u);
  std::vector<WindowQualityReport> got = ring.Snapshot();
  ASSERT_EQ(got.size(), 4u);
  // Only the newest four survive, oldest first.
  EXPECT_EQ(got.front().seq, 6u);
  EXPECT_EQ(got.back().seq, 9u);
}

TEST(QualityRingTest, EnabledRequiresExplicitOptIn) {
  QualityRing ring(4);
  EXPECT_FALSE(ring.enabled());
  ring.set_enabled(true);
  EXPECT_EQ(ring.enabled(), obs::kStatsEnabled);
  ring.set_enabled(false);
  EXPECT_FALSE(ring.enabled());
}

TEST(QualityRingTest, JsonCarriesSchema) {
  QualityRing ring(8);
  WindowQualityReport r;
  r.node = "high0";
  r.seq = 3;
  r.window_id = "42";
  r.tuples_in = 100;
  r.tuples_admitted = 90;
  r.groups_output = 7;
  r.supergroups = 1;
  r.max_weight = 2.0;
  r.shed_p_min = 0.5;
  EstimatorQuality q;
  q.kind = "sum_ht";
  q.display = "sum$(len)";
  q.has_estimate = true;
  q.estimate = 1234.5;
  q.variance = 100.0;
  q.ci95 = 1.96 * 10.0;
  q.coverage = 0.25;
  q.threshold_z = 77.0;
  q.samples = 90;
  q.target = 100;
  r.estimators.push_back(q);
  ring.Push(std::move(r));

  std::string json = ring.ToJson();
  for (const char* needle :
       {"\"node\": \"high0\"", "\"seq\": 3", "\"window_id\": \"42\"",
        "\"tuples_in\": 100", "\"tuples_admitted\": 90",
        "\"groups_output\": 7", "\"supergroups\": 1", "\"truncated\": false",
        "\"max_weight\": 2", "\"shed_p_min\": 0.5", "\"kind\": \"sum_ht\"",
        "\"display\": \"sum$(len)\"", "\"estimate\": 1234.5",
        "\"variance\": 100", "\"coverage\": 0.25", "\"threshold_z\": 77",
        "\"samples\": 90", "\"target\": 100"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle << "\n" << json;
  }
}

TEST(QualityRingTest, JsonOmitsInapplicableFields) {
  // coverage < 0 means "not applicable" and must not serialize; non-finite
  // doubles become null instead of breaking the JSON.
  WindowQualityReport r;
  EstimatorQuality q;
  q.kind = "kmv";
  q.coverage = -1.0;
  q.variance = std::nan("");
  r.estimators.push_back(q);
  std::string json = obs::WindowQualityReportToJson(r);
  EXPECT_EQ(json.find("coverage"), std::string::npos) << json;
  EXPECT_NE(json.find("\"variance\": null"), std::string::npos) << json;
}

// ---------- operator-built reports ----------

// Test schema S(t increasing, k, v) and a plan computing sum$(v) per
// window: SELECT tb, sum$(v) FROM S GROUP BY t/10 as tb, k.
SchemaPtr TestSchema() {
  return std::make_shared<Schema>(
      "S", std::vector<Field>{{"t", FieldType::kUInt, Ordering::kIncreasing},
                              {"k", FieldType::kUInt, Ordering::kNone},
                              {"v", FieldType::kUInt, Ordering::kNone}});
}

Tuple Row(uint64_t t, uint64_t k, uint64_t v) {
  return Tuple({Value::UInt(t), Value::UInt(k), Value::UInt(v)});
}

std::shared_ptr<SamplingQueryPlan> MakeHtSumPlan() {
  auto plan = std::make_shared<SamplingQueryPlan>();
  plan->input_schema = TestSchema();
  plan->group_by_exprs = {
      Expr::Binary(BinaryOp::kDiv, Expr::InputRef("t", 0),
                   Expr::Literal(Value::UInt(10))),
      Expr::InputRef("k", 1)};
  plan->group_by_names = {"tb", "k"};
  plan->group_by_ordered = {true, false};

  // Shadow aggregate backing the subtractable sum$.
  AggregateSpec shadow;
  shadow.kind = AggregateKind::kSum;
  shadow.arg = Expr::InputRef("v", 2);
  shadow.display = "sum(v)";
  plan->aggregates = {shadow};

  SuperAggSpec total;
  total.kind = SuperAggKind::kSum;
  total.arg = Expr::InputRef("v", 2);
  total.shadow_agg_slot = 0;
  total.display = "sum$(v)";
  plan->superaggs = {total};

  plan->select_exprs = {Expr::GroupByRef("tb", 0), Expr::GroupByRef("k", 1),
                        Expr::SuperAggRef(0)};
  plan->output_names = {"tb", "k", "total"};
  return plan;
}

TEST(QualityReportTest, UnweightedWindowHasZeroVarianceAndFullAdmission) {
  QualityRing ring(64);
  ring.set_enabled(true);
  SamplingOperator op(MakeHtSumPlan());
  op.set_quality(&ring, "plain");
  ASSERT_TRUE(op.Process(Row(1, 1, 5)).ok());
  ASSERT_TRUE(op.Process(Row(2, 2, 7)).ok());
  ASSERT_TRUE(op.Process(Row(12, 1, 9)).ok());  // closes window 0
  ASSERT_TRUE(op.FinishStream().ok());

  if (!obs::kStatsEnabled) return;  // stats compiled out
  std::vector<WindowQualityReport> reps = ring.Snapshot();
  ASSERT_EQ(reps.size(), 2u);
  const WindowQualityReport& w0 = reps[0];
  EXPECT_EQ(w0.node, "plain");
  EXPECT_EQ(w0.seq, 0u);
  EXPECT_EQ(w0.window_id, "0");
  EXPECT_EQ(w0.tuples_in, 2u);
  EXPECT_EQ(w0.tuples_admitted, 2u);
  EXPECT_DOUBLE_EQ(w0.max_weight, 1.0);
  EXPECT_DOUBLE_EQ(w0.shed_p_min, 1.0);
  ASSERT_EQ(w0.estimators.size(), 1u);
  const EstimatorQuality& q = w0.estimators[0];
  EXPECT_STREQ(q.kind, "sum_ht");
  EXPECT_EQ(q.display, "sum$(v)");
  EXPECT_TRUE(q.has_estimate);
  EXPECT_DOUBLE_EQ(q.estimate, 12.0);
  // No tuple was shed: the HT variance estimator is exactly zero.
  EXPECT_DOUBLE_EQ(q.variance, 0.0);
  EXPECT_DOUBLE_EQ(q.ci95, 0.0);
  EXPECT_EQ(reps[1].seq, 1u);
  EXPECT_EQ(reps[1].window_id, "1");
}

TEST(QualityReportTest, DisabledRingRecordsNothing) {
  QualityRing ring(64);  // never enabled
  SamplingOperator op(MakeHtSumPlan());
  op.set_quality(&ring, "off");
  ASSERT_TRUE(op.Process(Row(1, 1, 5)).ok());
  ASSERT_TRUE(op.FinishStream().ok());
  EXPECT_EQ(ring.reports_recorded(), 0u);
}

// The acceptance criterion: run a subset-sum style estimation under
// Bernoulli subsampling (admission probability p, admitted tuples weighted
// 1/p — exactly the load-shedding contract) for 120+ windows, and check the
// per-window 95% confidence intervals against the exact per-window sums.
// Empirical coverage must land in [90%, 99%].
TEST(QualityReportTest, HtConfidenceIntervalsCoverGroundTruth) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  constexpr int kWindows = 120;
  constexpr int kTuplesPerWindow = 400;
  constexpr double kAdmitP = 0.6;

  QualityRing ring(2 * kWindows);
  ring.set_enabled(true);
  SamplingOperator op(MakeHtSumPlan());
  op.set_quality(&ring, "cov");

  Pcg64 rng(20260806);
  std::vector<double> truth(kWindows, 0.0);
  for (int w = 0; w < kWindows; ++w) {
    for (int i = 0; i < kTuplesPerWindow; ++i) {
      const uint64_t t = static_cast<uint64_t>(w) * 10 +
                         static_cast<uint64_t>(i) * 10 / kTuplesPerWindow;
      // Skewed packet-length-like values so the variance is non-trivial.
      const uint64_t v = 40 + rng.NextBounded(1460);
      truth[w] += static_cast<double>(v);
      if (rng.NextBernoulli(kAdmitP)) {
        ASSERT_TRUE(op.Process(Row(t, i % 8, v), 1.0 / kAdmitP).ok());
      }
    }
  }
  ASSERT_TRUE(op.FinishStream().ok());

  std::vector<WindowQualityReport> reps = ring.Snapshot();
  ASSERT_EQ(reps.size(), static_cast<size_t>(kWindows));
  int covered = 0;
  for (int w = 0; w < kWindows; ++w) {
    const WindowQualityReport& rep = reps[w];
    EXPECT_EQ(rep.seq, static_cast<uint64_t>(w));
    EXPECT_DOUBLE_EQ(rep.max_weight, 1.0 / kAdmitP);
    EXPECT_NEAR(rep.shed_p_min, kAdmitP, 1e-12);
    ASSERT_EQ(rep.estimators.size(), 1u) << "window " << w;
    const EstimatorQuality& q = rep.estimators[0];
    ASSERT_STREQ(q.kind, "sum_ht");
    ASSERT_TRUE(q.has_estimate);
    EXPECT_GT(q.variance, 0.0) << "window " << w;
    EXPECT_GT(q.ci95, 0.0) << "window " << w;
    if (std::fabs(q.estimate - truth[w]) <= q.ci95) ++covered;
  }
  const double coverage = static_cast<double>(covered) / kWindows;
  EXPECT_GE(coverage, 0.90) << covered << "/" << kWindows;
  EXPECT_LE(coverage, 0.99) << covered << "/" << kWindows;
}

// ---------- SQL-compiled estimators report quality entries ----------

TEST(QualityReportTest, SubsetSumQueryReportsThresholdAndBounds) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  QualityRing ring(256);
  ring.set_enabled(true);
  obs::MetricRegistry reg;
  Trace trace = TraceGenerator::MakeResearchFeed(59.0, 45);
  auto cq = CompileQuery(R"(
      SELECT tb, srcIP, destIP, UMAX(sum(len), ssthreshold())
      FROM PKT
      WHERE ssample(len, 100, 2, 100, 10.0) = TRUE
      GROUP BY time/20 as tb, srcIP, destIP
      HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
      CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
      CLEANING BY ssclean_with(sum(len)) = TRUE
  )",
                         Catalog::Default(), {.seed = 4});
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  SamplingOperator op(cq->sampling);
  op.set_metrics(obs::OperatorMetrics::Create(reg, "ss"));
  op.set_quality(&ring, "ss");
  for (const PacketRecord& p : trace.packets()) {
    ASSERT_TRUE(op.Process(PacketToTuple(p)).ok());
  }
  ASSERT_TRUE(op.FinishStream().ok());

  std::vector<WindowQualityReport> reps = ring.Snapshot();
  ASSERT_GE(reps.size(), 2u);
  bool saw_subset_sum = false;
  bool saw_paired_sum = false;
  for (const WindowQualityReport& rep : reps) {
    double det_bound = 0.0;
    for (const EstimatorQuality& q : rep.estimators) {
      if (std::strcmp(q.kind, "subset_sum") == 0) {
        saw_subset_sum = true;
        EXPECT_GT(q.threshold_z, 0.0);
        EXPECT_EQ(q.target, 100u);
        // Counter mode (mode 0): deviation is deterministically <= z.
        EXPECT_DOUBLE_EQ(q.deterministic_bound, q.threshold_z);
        det_bound = q.deterministic_bound;
      }
    }
    // The supergroup's sum_ht CI is widened by the subset-sum bound.
    for (const EstimatorQuality& q : rep.estimators) {
      if (std::strcmp(q.kind, "sum_ht") == 0 && det_bound > 0.0 &&
          q.ci95 >= det_bound) {
        saw_paired_sum = true;
      }
    }
  }
  EXPECT_TRUE(saw_subset_sum);

  // Worst-case quality gauges refreshed on the last flush.
  obs::Gauge* z = reg.GetGauge("streamop_quality_threshold_z", "node=\"ss\"");
  ASSERT_NE(z, nullptr);
  EXPECT_GT(z->value(), 0.0);
  obs::Gauge* p_min =
      reg.GetGauge("streamop_quality_shed_p_min", "node=\"ss\"");
  ASSERT_NE(p_min, nullptr);
  EXPECT_DOUBLE_EQ(p_min->value(), 1.0);  // nothing shed in this run
  (void)saw_paired_sum;
}

TEST(QualityReportTest, ReservoirQueryReportsCoverage) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  QualityRing ring(256);
  ring.set_enabled(true);
  Trace trace = TraceGenerator::MakeResearchFeed(45.0, 7);
  auto cq = CompileQuery(R"(
      SELECT tb, srcIP, destIP
      FROM PKT
      WHERE rsample(100) = TRUE
      GROUP BY time/20 as tb, srcIP, destIP
      HAVING rsfinal_clean(count_distinct$(*)) = TRUE
      CLEANING WHEN rsdo_clean(count_distinct$(*)) = TRUE
      CLEANING BY rsclean_with() = TRUE
  )",
                         Catalog::Default(), {.seed = 11});
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  SamplingOperator op(cq->sampling);
  op.set_quality(&ring, "rs");
  for (const PacketRecord& p : trace.packets()) {
    ASSERT_TRUE(op.Process(PacketToTuple(p)).ok());
  }
  ASSERT_TRUE(op.FinishStream().ok());

  bool saw_reservoir = false;
  for (const WindowQualityReport& rep : ring.Snapshot()) {
    for (const EstimatorQuality& q : rep.estimators) {
      if (std::strcmp(q.kind, "reservoir") != 0) continue;
      saw_reservoir = true;
      EXPECT_EQ(q.target, 100u);
      EXPECT_GE(q.coverage, 0.0);
      EXPECT_LE(q.coverage, 1.0);
      EXPECT_DOUBLE_EQ(q.rel_error, 1.0 / std::sqrt(100.0));
    }
  }
  EXPECT_TRUE(saw_reservoir);
}

TEST(QualityReportTest, KmvSuperaggReportsSampleSize) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  QualityRing ring(256);
  ring.set_enabled(true);
  Trace trace = TraceGenerator::MakeResearchFeed(45.0, 21);
  auto cq = CompileQuery(R"(
      SELECT tb, srcIP, HX
      FROM PKT
      WHERE HX <= Kth_smallest_value$(HX, 50)
      GROUP BY time/20 as tb, srcIP, H(destIP) as HX
      SUPERGROUP BY tb, srcIP
      HAVING HX <= Kth_smallest_value$(HX, 50)
      CLEANING WHEN count_distinct$(*) >= 50
      CLEANING BY HX <= Kth_smallest_value$(HX, 50)
  )",
                         Catalog::Default(), {.seed = 8});
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  SamplingOperator op(cq->sampling);
  op.set_quality(&ring, "mh");
  for (const PacketRecord& p : trace.packets()) {
    ASSERT_TRUE(op.Process(PacketToTuple(p)).ok());
  }
  ASSERT_TRUE(op.FinishStream().ok());

  bool saw_kmv = false;
  for (const WindowQualityReport& rep : ring.Snapshot()) {
    EXPECT_GE(rep.supergroups, 1u);
    for (const EstimatorQuality& q : rep.estimators) {
      if (std::strcmp(q.kind, "kmv") != 0) continue;
      saw_kmv = true;
      EXPECT_EQ(q.target, 50u);
      EXPECT_LE(q.samples, 50u + 1u);  // multiset trimmed to k per update
      EXPECT_DOUBLE_EQ(q.rel_error, 1.0 / std::sqrt(50.0));
    }
  }
  EXPECT_TRUE(saw_kmv);
}

// Reports of high-cardinality supergroup queries stay bounded.
TEST(QualityReportTest, ReportTruncatesBeyondSupergroupCap) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  auto plan = std::make_shared<SamplingQueryPlan>();
  plan->input_schema = TestSchema();
  plan->group_by_exprs = {
      Expr::Binary(BinaryOp::kDiv, Expr::InputRef("t", 0),
                   Expr::Literal(Value::UInt(10))),
      Expr::InputRef("k", 1)};
  plan->group_by_names = {"tb", "k"};
  plan->group_by_ordered = {true, false};
  plan->supergroup_slots = {1};  // one supergroup per k
  AggregateSpec cnt;
  cnt.kind = AggregateKind::kCount;
  cnt.star = true;
  cnt.display = "count(*)";
  plan->aggregates = {cnt};
  SuperAggSpec cd;
  cd.kind = SuperAggKind::kCountDistinct;
  cd.display = "count_distinct$(*)";
  plan->superaggs = {cd};
  plan->select_exprs = {Expr::GroupByRef("tb", 0), Expr::GroupByRef("k", 1),
                        Expr::AggregateRef(0)};
  plan->output_names = {"tb", "k", "cnt"};

  QualityRing ring(8);
  ring.set_enabled(true);
  SamplingOperator op(plan);
  op.set_quality(&ring, "many");
  for (uint64_t k = 0; k < 40; ++k) {
    ASSERT_TRUE(op.Process(Row(1, k, 1)).ok());
  }
  ASSERT_TRUE(op.FinishStream().ok());

  std::vector<WindowQualityReport> reps = ring.Snapshot();
  ASSERT_EQ(reps.size(), 1u);
  EXPECT_EQ(reps[0].supergroups, 40u);
  EXPECT_TRUE(reps[0].truncated);
}

}  // namespace
}  // namespace streamop
