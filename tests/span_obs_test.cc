// Tests for the causal-span / profiler / exemplar observability pillar
// (src/obs/span.h, src/obs/profiler.h, src/obs/exemplar.h): SpanRing
// mechanics and exports, phase totals and the SIGPROF sampler, exemplar
// reservoirs, ring wraparound under concurrent export (TSan coverage via
// the ObsConcurrencyTest.* names), and end-to-end span parent/child
// integrity and threshold attributes through the operator.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/sampling_operator.h"
#include "net/trace_generator.h"
#include "obs/exemplar.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/span.h"
#include "query/query.h"
#include "rss_probe.h"
#include "tuple/tuple_batch.h"

namespace streamop {
namespace {

using obs::Exemplar;
using obs::ExemplarStore;
using obs::Profiler;
using obs::SpanContext;
using obs::SpanRecord;
using obs::SpanRing;

// ---------- SpanRing mechanics ----------

TEST(SpanRingTest, EmitRoundTripsEveryField) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  SpanRing ring(16);
  ring.set_enabled(true);
  SpanRecord r;
  r.name = "admission";
  r.parent_id = 7;
  r.window_seq = 3;
  r.ts_ns = 1000;
  r.dur_ns = 250;
  r.rows = 512;
  r.admitted = 480;
  r.shed_p = 0.25;
  r.max_weight = 4.0;
  r.z = 20.1;
  const uint64_t id = ring.Emit(r);
  ASSERT_NE(id, 0u);

  std::vector<SpanRecord> spans = ring.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "admission");
  EXPECT_EQ(spans[0].span_id, id);
  EXPECT_EQ(spans[0].parent_id, 7u);
  EXPECT_EQ(spans[0].window_seq, 3u);
  EXPECT_EQ(spans[0].ts_ns, 1000u);
  EXPECT_EQ(spans[0].dur_ns, 250u);
  EXPECT_EQ(spans[0].rows, 512u);
  EXPECT_EQ(spans[0].admitted, 480u);
  EXPECT_DOUBLE_EQ(spans[0].shed_p, 0.25);
  EXPECT_DOUBLE_EQ(spans[0].max_weight, 4.0);
  EXPECT_DOUBLE_EQ(spans[0].z, 20.1);
}

TEST(SpanRingTest, NextIdIsUniqueAndEmitHonorsPreallocatedIds) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  SpanRing ring(16);
  ring.set_enabled(true);
  const uint64_t a = ring.NextId();
  const uint64_t b = ring.NextId();
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, b);

  SpanRecord r;
  r.name = "window";
  r.span_id = a;  // pre-allocated at window open
  EXPECT_EQ(ring.Emit(r), a);

  r.span_id = 0;  // fresh draw must not collide with a or b
  const uint64_t c = ring.Emit(r);
  EXPECT_NE(c, a);
  EXPECT_NE(c, b);
}

TEST(SpanRingTest, DisabledRingRecordsNothing) {
  SpanRing ring(16);
  SpanRecord r;
  r.name = "flush";
  EXPECT_EQ(ring.Emit(r), 0u);
  EXPECT_EQ(ring.spans_recorded(), 0u);
  EXPECT_TRUE(ring.Snapshot().empty());
}

TEST(SpanRingTest, WraparoundKeepsAtMostCapacitySpans) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  // Over one wrap and over 125: exactly the newest `capacity` spans
  // survive, and a snapshot lists them by start timestamp, not by slot
  // (timestamps fall as the spans are emitted).
  for (uint64_t total : {20u, 1000u}) {
    SpanRing ring(8);
    ring.set_enabled(true);
    for (uint64_t i = 0; i < total; ++i) {
      SpanRecord r;
      r.name = "flush";
      r.ts_ns = total - i;
      ring.Emit(r);
    }
    EXPECT_EQ(ring.spans_recorded(), total);
    EXPECT_EQ(ring.capacity(), 8u);
    std::vector<SpanRecord> spans = ring.Snapshot();
    ASSERT_EQ(spans.size(), 8u);
    for (size_t i = 0; i < spans.size(); ++i) {
      EXPECT_EQ(spans[i].ts_ns, i + 1) << total << " spans, slot " << i;
    }
  }
}

TEST(SpanRingTest, WindowJsonFiltersBySequence) {
  SpanRing ring(16);
  ring.set_enabled(true);
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    SpanRecord r;
    r.name = "flush";
    r.window_seq = seq;
    r.ts_ns = seq * 100;
    ring.Emit(r);
  }
  const std::string two = ring.WindowJson(2);
  EXPECT_NE(two.find("\"window_seq\": 2"), std::string::npos);
  EXPECT_EQ(two.find("\"window_seq\": 1,"), std::string::npos);
  EXPECT_EQ(two.find("\"window_seq\": 3,"), std::string::npos);
  // A sequence never seen renders an empty list, still valid JSON.
  EXPECT_NE(ring.WindowJson(99).find("\"spans\": []"), std::string::npos);
}

TEST(SpanRingTest, JsonExportsAreWellFormedWhenEmptyAndWhenFull) {
  SpanRing ring(4);
  EXPECT_NE(ring.ToJson().find("\"spans\": []"), std::string::npos);
  EXPECT_NE(ring.ToChromeTraceJson().find("\"traceEvents\": ["),
            std::string::npos);

  if (!obs::kStatsEnabled) return;  // stats compiled out
  ring.set_enabled(true);
  SpanRecord r;
  r.name = "clean";
  r.window_seq = 5;
  r.z = 42.0;
  ring.Emit(r);
  const std::string chrome = ring.ToChromeTraceJson();
  EXPECT_NE(chrome.find("\"name\": \"clean\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(chrome.find("\"window_seq\": 5"), std::string::npos);
  EXPECT_NE(chrome.find("\"z\": 42}"), std::string::npos) << chrome;
  EXPECT_NE(ring.ToJson().find("\"z\": 42}"), std::string::npos);
  EXPECT_NE(ring.WindowJson(5).find("\"z\": 42}"), std::string::npos);
}

// ---------- Profiler ----------

TEST(ProfilerTest, PhaseNamesCoverEveryPhase) {
  for (uint32_t p = 0; p < Profiler::kNumPhases; ++p) {
    EXPECT_STRNE(Profiler::PhaseName(p), nullptr);
    EXPECT_STRNE(Profiler::PhaseName(p), "");
  }
}

TEST(ProfilerTest, PhaseNsAccumulateAndExport) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  Profiler prof;
  prof.AddPhaseNs(Profiler::kAdmission, 100);
  prof.AddPhaseNs(Profiler::kAdmission, 50);
  prof.AddPhaseNs(Profiler::kFlush, 7);
  prof.AddPhaseNs(Profiler::kNumPhases, 999);  // out of range: dropped
  EXPECT_EQ(prof.phase_ns(Profiler::kAdmission), 150u);
  EXPECT_EQ(prof.phase_ns(Profiler::kFlush), 7u);
  EXPECT_EQ(prof.phase_ns(Profiler::kNumPhases), 0u);

  const std::string json = prof.PhasesJson();
  EXPECT_NE(json.find("\"phase_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"admission\": 150"), std::string::npos);
  EXPECT_NE(json.find("\"ring_drain\""), std::string::npos);
  EXPECT_NE(json.find("\"quality_report\""), std::string::npos);
}

TEST(ProfilerTest, OnlyOneProfilerRunsAtATime) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  Profiler a;
  Profiler b;
  ASSERT_TRUE(a.Start().ok());
  EXPECT_TRUE(a.running());
  EXPECT_TRUE(a.Start().ok());  // idempotent on the same instance
  EXPECT_FALSE(b.Start().ok());  // the handler targets one process-wide
  a.Stop();
  a.Stop();  // idempotent
  EXPECT_FALSE(a.running());
  EXPECT_TRUE(b.Start().ok());  // slot freed
  b.Stop();
}

// The 8,192-sample ring (~2.1 MiB) exists only once Start() runs: every
// operator points at Profiler::Default(), and most processes never profile.
TEST(ProfilerTest, UnstartedProfilerHoldsNoSampleRing) {
  const int64_t growth = testing_rss::ChildRssGrowthBytes(
      [] { return std::make_unique<Profiler>(); });
  ASSERT_GE(growth, 0) << "RSS probe child failed";
  EXPECT_LT(growth, 256 << 10) << "constructing a Profiler added " << growth
                               << " resident bytes";
  Profiler prof;
  EXPECT_EQ(prof.samples_recorded(), 0u);
  EXPECT_TRUE(prof.Folded(0).empty());
  prof.TakeSample();  // no ring yet: dropped, not a crash
  EXPECT_EQ(prof.samples_recorded(), 0u);
}

TEST(ProfilerTest, SamplerCapturesStacksAndFoldsThem) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  Profiler prof;
  ASSERT_TRUE(prof.Start().ok());
  // ITIMER_PROF counts consumed CPU time, so burn some; at 97 Hz a few
  // tens of milliseconds of CPU yields samples.
  volatile uint64_t sink = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (prof.samples_recorded() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    for (int i = 0; i < 100000; ++i) sink += static_cast<uint64_t>(i) * i;
  }
  prof.Stop();
  ASSERT_GT(prof.samples_recorded(), 0u) << "no SIGPROF samples after 10s";

  const std::string folded = prof.Folded(0);
  ASSERT_FALSE(folded.empty());
  // Every line is "frame[;frame...] count".
  const size_t nl = folded.find('\n');
  ASSERT_NE(nl, std::string::npos);
  const std::string line = folded.substr(0, nl);
  const size_t sp = line.rfind(' ');
  ASSERT_NE(sp, std::string::npos);
  EXPECT_GT(std::stoull(line.substr(sp + 1)), 0u);
}

// ---------- ExemplarStore ----------

TEST(ExemplarStoreTest, LatencyBandsAreMonotonic) {
  uint32_t prev = 0;
  for (uint64_t ns = 1; ns < (1ULL << 40); ns *= 2) {
    const uint32_t band = ExemplarStore::LatencyBand(ns);
    ASSERT_LT(band, ExemplarStore::kLatencyBands);
    EXPECT_GE(band, prev) << "ns=" << ns;
    prev = band;
  }
  for (uint32_t b = 1; b + 1 < ExemplarStore::kLatencyBands; ++b) {
    EXPECT_GT(ExemplarStore::LatencyBandUpperNs(b),
              ExemplarStore::LatencyBandUpperNs(b - 1));
  }
  EXPECT_EQ(ExemplarStore::LatencyBandUpperNs(ExemplarStore::kLatencyBands - 1),
            UINT64_MAX);
  // A latency inside band b must not exceed the band's upper bound.
  const uint64_t probe = 123456;
  const uint32_t band = ExemplarStore::LatencyBand(probe);
  EXPECT_LE(probe, ExemplarStore::LatencyBandUpperNs(band));
  if (band > 0) {
    EXPECT_GT(probe, ExemplarStore::LatencyBandUpperNs(band - 1));
  }
}

TEST(ExemplarStoreTest, DisabledStoreDropsOffers) {
  ExemplarStore store;
  Exemplar e;
  e.value = 1.0;
  store.Offer(ExemplarStore::kShedDrop, e);
  store.OfferLatency(5000, e);
  EXPECT_EQ(store.offered(ExemplarStore::kShedDrop), 0u);
  for (uint32_t b = 0; b < ExemplarStore::kLatencyBands; ++b) {
    EXPECT_EQ(store.latency_offered(b), 0u);
  }
}

TEST(ExemplarStoreTest, ReservoirCapsAtSlotsButCountsEveryOffer) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  ExemplarStore store;
  store.set_enabled(true);
  for (uint64_t i = 0; i < 100; ++i) {
    Exemplar e;
    e.ts_ns = i;
    e.value = static_cast<double>(i);
    e.dims = {i, i + 1, 0, 0};
    e.ndims = 2;
    store.Offer(ExemplarStore::kLateTuple, e);
  }
  EXPECT_EQ(store.offered(ExemplarStore::kLateTuple), 100u);
  std::vector<Exemplar> kept = store.Snapshot(ExemplarStore::kLateTuple);
  EXPECT_EQ(kept.size(), ExemplarStore::kSlotsPerReservoir);
  for (const Exemplar& e : kept) EXPECT_LT(e.ts_ns, 100u);
}

TEST(ExemplarStoreTest, LatencyOffersLandInTheirBand) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  ExemplarStore store;
  store.set_enabled(true);
  const uint64_t lat_ns = 5000;  // 5us
  Exemplar e;
  e.window_seq = 9;
  store.OfferLatency(lat_ns, e);
  const uint32_t band = ExemplarStore::LatencyBand(lat_ns);
  EXPECT_EQ(store.latency_offered(band), 1u);
  std::vector<Exemplar> kept = store.LatencySnapshot(band);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_DOUBLE_EQ(kept[0].value, static_cast<double>(lat_ns));  // stamped
  EXPECT_EQ(kept[0].window_seq, 9u);
}

TEST(ExemplarStoreTest, ToJsonListsEveryBandAndCounter) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  ExemplarStore store;
  store.set_enabled(true);
  Exemplar e;
  e.value = 0.5;
  store.Offer(ExemplarStore::kShedDrop, e);
  store.OfferLatency(2000, e);
  const std::string json = store.ToJson();
  EXPECT_NE(json.find("\"latency_bands\""), std::string::npos);
  EXPECT_NE(json.find("\"+Inf\""), std::string::npos);
  EXPECT_NE(json.find("\"shed_drop\""), std::string::npos);
  EXPECT_NE(json.find("\"late_tuple\""), std::string::npos);
  EXPECT_NE(json.find("\"malformed\""), std::string::npos);
  EXPECT_NE(json.find("\"offered\": 1"), std::string::npos);
}

// ---------- concurrency (run under TSan via the ObsConcurrency name) ----

TEST(ObsConcurrencyTest, SpanRingEmitRacesEveryExportPath) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  // A ring far smaller than the write volume, so every writer wraps many
  // times while a reader exports: the slot stores must never race the
  // snapshot loads (torn spans are filtered, not UB).
  SpanRing ring(64);
  ring.set_enabled(true);
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 5000;
  std::atomic<bool> done{false};

  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      std::vector<SpanRecord> snap = ring.Snapshot();
      EXPECT_LE(snap.size(), ring.capacity());
      ring.ToJson();
      ring.ToChromeTraceJson();
      ring.WindowJson(1);
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&ring, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        SpanRecord r;
        r.name = (i % 2 == 0) ? "admission" : "flush";
        r.parent_id = static_cast<uint64_t>(w) + 1;
        r.window_seq = static_cast<uint64_t>(i % 3) + 1;
        r.ts_ns = static_cast<uint64_t>(w) * kPerWriter + i;
        r.dur_ns = 3;
        r.rows = static_cast<uint64_t>(i);
        ring.Emit(r);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(ring.spans_recorded(),
            static_cast<uint64_t>(kWriters) * kPerWriter);
  EXPECT_EQ(ring.Snapshot().size(), ring.capacity());
}

// ---------- end-to-end span integrity through the operator ----------

// Test schema: S(t increasing, k, v) — same shape operator_test uses.
SchemaPtr TestSchema() {
  return std::make_shared<Schema>(
      "S", std::vector<Field>{{"t", FieldType::kUInt, Ordering::kIncreasing},
                              {"k", FieldType::kUInt, Ordering::kNone},
                              {"v", FieldType::kUInt, Ordering::kNone}});
}

Tuple Row(uint64_t t, uint64_t k, uint64_t v) {
  return Tuple({Value::UInt(t), Value::UInt(k), Value::UInt(v)});
}

// SELECT tb, k, sum(v) FROM S GROUP BY t/10 as tb, k.
std::shared_ptr<SamplingQueryPlan> MakePlan() {
  auto plan = std::make_shared<SamplingQueryPlan>();
  plan->input_schema = TestSchema();
  plan->group_by_exprs = {
      Expr::Binary(BinaryOp::kDiv, Expr::InputRef("t", 0),
                   Expr::Literal(Value::UInt(10))),
      Expr::InputRef("k", 1)};
  plan->group_by_names = {"tb", "k"};
  plan->group_by_ordered = {true, false};
  AggregateSpec sum_spec;
  sum_spec.kind = AggregateKind::kSum;
  sum_spec.arg = Expr::InputRef("v", 2);
  sum_spec.display = "sum(v)";
  plan->aggregates = {sum_spec};
  plan->select_exprs = {Expr::GroupByRef("tb", 0), Expr::GroupByRef("k", 1),
                        Expr::AggregateRef(0)};
  plan->output_names = {"tb", "k", "sum_v"};
  return plan;
}

// Indexes the "window" root spans by sequence and checks the invariants
// every closed window must satisfy; returns the roots for further asserts.
std::map<uint64_t, SpanRecord> CheckIntegrity(
    const std::vector<SpanRecord>& spans, uint64_t expect_windows) {
  std::map<uint64_t, SpanRecord> roots;
  for (const SpanRecord& s : spans) {
    if (std::string(s.name) != "window") continue;
    EXPECT_EQ(s.parent_id, 0u) << "window roots must be roots";
    EXPECT_NE(s.span_id, 0u);
    EXPECT_TRUE(roots.emplace(s.window_seq, s).second)
        << "duplicate window root for seq " << s.window_seq;
  }
  EXPECT_EQ(roots.size(), expect_windows);
  for (const SpanRecord& s : spans) {
    if (std::string(s.name) == "window") continue;
    if (s.window_seq == 0) {
      ADD_FAILURE() << s.name << " span outside any window";
      continue;
    }
    auto it = roots.find(s.window_seq);
    if (it == roots.end()) {
      ADD_FAILURE() << s.name << " references unknown window " << s.window_seq;
      continue;
    }
    const SpanRecord& root = it->second;
    EXPECT_EQ(s.parent_id, root.span_id)
        << s.name << " must parent under its window root";
    // The root covers open -> flush. Window-scoped phases start within it;
    // batch-level spans (batch_select/admission/ring_drain) may begin
    // before the window they end up attributed to was opened.
    const std::string name = s.name;
    if (name == "clean" || name == "flush" || name == "quality_report") {
      EXPECT_GE(s.ts_ns, root.ts_ns) << name;
      EXPECT_LE(s.ts_ns, root.ts_ns + root.dur_ns) << name;
    }
  }
  return roots;
}

TEST(SpanIntegrityTest, RowPathParentsEveryPhaseUnderItsWindow) {
  SpanRing ring(256);
  ring.set_enabled(true);
  SamplingOperator op(MakePlan());
  op.set_span_ring(&ring);
  // Three windows: t in [0,10), [10,20), [20,30).
  for (uint64_t t : {1u, 5u, 9u, 12u, 15u, 21u}) {
    ASSERT_TRUE(op.Process(Row(t, t % 2, t)).ok());
  }
  ASSERT_TRUE(op.FinishStream().ok());
  if (!obs::kStatsEnabled) return;  // stats compiled out
  EXPECT_EQ(op.window_seq(), 3u);

  std::vector<SpanRecord> spans = ring.Snapshot();
  std::map<uint64_t, SpanRecord> roots = CheckIntegrity(spans, 3);
  // Sequences are 1-based and contiguous.
  EXPECT_TRUE(roots.count(1) && roots.count(2) && roots.count(3));
  // Each lifecycle recorded at least its flush phase.
  std::map<uint64_t, int> flushes;
  for (const SpanRecord& s : spans) {
    if (std::string(s.name) == "flush") ++flushes[s.window_seq];
  }
  EXPECT_EQ(flushes.size(), 3u);
}

TEST(SpanIntegrityTest, BatchPathReportsContextAndParentsPhaseSpans) {
  SpanRing ring(256);
  ring.set_enabled(true);
  Profiler prof;
  obs::MetricRegistry registry;
  SamplingOperator op(MakePlan());
  op.set_span_ring(&ring);
  op.set_profiler(&prof);
  // Phase totals tick with the metrics, from the spans' clock reads.
  op.set_metrics(obs::OperatorMetrics::Create(registry, "spans"));

  // One batch straddling two window boundaries (t/10: 0 -> 1 -> 2).
  TupleBatch batch(3, 32);
  for (uint64_t t : {1u, 2u, 9u, 11u, 15u, 22u, 25u}) {
    batch.AppendTuple(Row(t, t % 3, t));
  }
  SpanContext ctx;
  ctx.shed_p = 0.5;
  ctx.rows = batch.num_rows();
  ASSERT_TRUE(op.ProcessBatch(batch, 2.0, &ctx).ok());
  ASSERT_TRUE(op.FinishStream().ok());
  if (!obs::kStatsEnabled) return;  // stats compiled out
  // Back-report: the batch last fed window 3, whose root id was already
  // reserved (the window was still open).
  EXPECT_EQ(ctx.window_seq, 3u);
  EXPECT_NE(ctx.window_span_id, 0u);

  std::vector<SpanRecord> spans = ring.Snapshot();
  std::map<uint64_t, SpanRecord> roots = CheckIntegrity(spans, 3);
  EXPECT_EQ(roots[3].span_id, ctx.window_span_id);

  int batch_selects = 0, admissions = 0;
  for (const SpanRecord& s : spans) {
    const std::string name = s.name;
    if (name == "batch_select") {
      ++batch_selects;
      EXPECT_EQ(s.rows, 7u);
      EXPECT_DOUBLE_EQ(s.shed_p, 0.5);  // threaded from the SpanContext
    } else if (name == "admission") {
      ++admissions;
    }
  }
  EXPECT_EQ(batch_selects, 1);
  EXPECT_EQ(admissions, 1);
  // The phase totals saw the batch phases tick.
  EXPECT_GT(prof.phase_ns(Profiler::kBatchSelect), 0u);
  EXPECT_GT(prof.phase_ns(Profiler::kAdmission), 0u);
  EXPECT_GT(prof.phase_ns(Profiler::kFlush), 0u);
}

TEST(SpanIntegrityTest, SpansDisabledLeavesRingEmptyAndContextZero) {
  SpanRing ring(16);  // never enabled
  SamplingOperator op(MakePlan());
  op.set_span_ring(&ring);
  TupleBatch batch(3, 8);
  batch.AppendTuple(Row(1, 1, 1));
  SpanContext ctx;
  ctx.rows = 1;
  ASSERT_TRUE(op.ProcessBatch(batch, 1.0, &ctx).ok());
  ASSERT_TRUE(op.FinishStream().ok());
  EXPECT_EQ(ring.spans_recorded(), 0u);
  EXPECT_EQ(ctx.window_span_id, 0u);  // no root reserved when disabled
  if (!obs::kStatsEnabled) return;    // window_seq is stats-gated
  EXPECT_EQ(ctx.window_seq, 1u);      // the lifecycle count still advances
}

// The threshold z of each subset-sum adjustment rides on the span of the
// phase that made it. The expected values were recorded from the
// ss_z_adjust_cleaning and ss_z_adjust_final trace events of this run
// (datacenter feed, 2 s, seed 7: 15 cleanings and a final adjustment in
// the first window, 6 and one in the second) before those events became
// span attributes; each clean span carries a cleaning z, each flush span
// a final one, in the same order.
TEST(SpanIntegrityTest, CleanAndFlushSpansCarryTheSubsetSumThreshold) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  Result<CompiledQuery> cq = CompileQuery(
      "SELECT tb, srcIP, destIP, UMAX(sum(len), ssthreshold()), sum$(len) "
      "FROM PKT WHERE ssample(len, 100, 2, 100, 10.0) = TRUE "
      "GROUP BY time as tb, srcIP, destIP "
      "HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE "
      "CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE "
      "CLEANING BY ssclean_with(sum(len)) = TRUE",
      Catalog::Default(), {.seed = 7});
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  SpanRing ring(4096);
  ring.set_enabled(true);
  SamplingOperator op(cq->sampling);
  op.set_span_ring(&ring);
  const Trace trace = TraceGenerator::MakeDataCenterFeed(2.0, 7);
  TupleBatch batch(op.plan().input_schema->num_fields(), 512);
  for (size_t i = 0; i < trace.size(); i += 512) {
    batch.Clear();
    for (size_t j = i; j < std::min(trace.size(), i + 512); ++j) {
      batch.AppendPacket(trace.packets()[j]);
    }
    ASSERT_TRUE(op.ProcessBatch(batch).ok());
  }
  ASSERT_TRUE(op.FinishStream().ok());
  ASSERT_LT(ring.spans_recorded(), ring.capacity()) << "spans overwritten";

  const std::vector<std::pair<std::string, double>> expected = {
      {"clean", 20.099999999999998},  {"clean", 40.602},
      {"clean", 82.01603999999999},   {"clean", 164.85224039999997},
      {"clean", 331.3530032039999},   {"clean", 666.0195364400397},
      {"clean", 1338.6992682444798},  {"clean", 2690.785529171404},
      {"clean", 5408.478913634522},   {"clean", 10871.042616405388},
      {"clean", 21850.79565897483},   {"clean", 43920.0992745394},
      {"clean", 88279.3995418242},    {"clean", 177441.59307906663},
      {"clean", 356657.6020889239},   {"flush", 470788.0347573796},
      {"clean", 9462.839498623329},   {"clean", 19020.307392232888},
      {"clean", 38230.8178583881},    {"clean", 76843.94389536008},
      {"clean", 154456.32722967374},  {"clean", 310457.21773164417},
      {"flush", 481208.6874840485},
  };
  std::vector<std::pair<std::string, double>> got;
  for (const SpanRecord& s : ring.Snapshot()) {
    const std::string name = s.name;
    if (name == "clean" || name == "flush") got.emplace_back(name, s.z);
  }
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, expected[i].first) << "span " << i;
    EXPECT_DOUBLE_EQ(got[i].second, expected[i].second) << "span " << i;
  }
}

}  // namespace
}  // namespace streamop
