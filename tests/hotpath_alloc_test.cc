// Zero-allocation guarantee of the steady-state per-tuple hot path: once
// every group exists and no window boundary or cleaning phase fires,
// SamplingOperator::Process must not touch the heap (ISSUE 1 acceptance
// criterion). Verified by replacing the global allocator with a counting
// one and asserting a zero delta across a steady-state burst.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "core/sampling_operator.h"
#include "net/packet.h"
#include "net/trace_sender.h"
#include "obs/alerts.h"
#include "obs/exemplar.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/profiler.h"
#include "obs/span.h"
#include "query/query.h"
#include "stream/socket_source.h"
#include "stream/trace_source.h"
#include "tuple/tuple.h"
#include "tuple/tuple_batch.h"
#include "tuple/value.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
std::atomic<uint64_t> g_allocated_bytes{0};

void CountAllocation(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(n, std::memory_order_relaxed);
}
}  // namespace

// Counting global allocator: calls and bytes. Only the allocation side is
// counted — the steady-state invariant is "no heap traffic", and every
// free implies a prior counted allocation.
void* operator new(std::size_t n) {
  CountAllocation(n);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  CountAllocation(n);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t a) {
  CountAllocation(n);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(a),
                                   (n + static_cast<std::size_t>(a) - 1) /
                                       static_cast<std::size_t>(a) *
                                       static_cast<std::size_t>(a))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return operator new(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace streamop {
namespace {

// Packet-shaped tuples over a fixed key grid within one window (time
// pinned), mirroring the steady-state benchmark.
std::vector<Tuple> SteadyStateTuples(size_t count, uint64_t num_src,
                                     uint64_t num_dst) {
  std::vector<Tuple> tuples;
  tuples.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    uint64_t src = 0x0a000000ULL + (i % num_src);
    uint64_t dst = 0xc0a80000ULL + ((i / num_src) % num_dst);
    uint64_t len = 40 + (i * 97) % 1460;
    tuples.push_back(Tuple({Value::UInt(100), Value::UInt(i * 1000),
                            Value::UInt(src), Value::UInt(dst),
                            Value::UInt(1234), Value::UInt(80), Value::UInt(6),
                            Value::UInt(len)}));
  }
  return tuples;
}

uint64_t SteadyStateAllocationDelta(const std::string& sql,
                                    bool with_metrics = false) {
  Catalog catalog = Catalog::Default();
  Result<CompiledQuery> cq = CompileQuery(sql, catalog, {.seed = 3});
  EXPECT_TRUE(cq.ok()) << cq.status().ToString();
  EXPECT_EQ(cq->kind, CompiledQueryKind::kSampling);
  SamplingOperator op(cq->sampling);
  if (with_metrics) {
    // Registry + rings allocate at registration/construction time, never
    // after — everything below happens before the measured burst. Spans,
    // exemplar reservoirs and the profiler's phase totals ride along so
    // the whole third pillar is covered by the zero-delta.
    op.set_metrics(obs::OperatorMetrics::Create(
        obs::MetricRegistry::Default(), "hotpath"));
    obs::SpanRing::Default().set_enabled(true);
    op.set_span_ring(&obs::SpanRing::Default());
    obs::ExemplarStore::Default().set_enabled(true);
    op.set_exemplars(&obs::ExemplarStore::Default());
    op.set_profiler(&obs::Profiler::Default());
  }
  std::vector<Tuple> tuples = SteadyStateTuples(2048, 32, 16);
  // Warm-up: create every group (and let scratch buffers reach capacity).
  size_t failures = 0;
  for (const Tuple& t : tuples) failures += !op.Process(t).ok();
  EXPECT_EQ(failures, 0u);
  const size_t groups_before = op.num_groups();

  uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (const Tuple& t : tuples) failures += !op.Process(t).ok();
  uint64_t after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(failures, 0u);
  EXPECT_EQ(op.num_groups(), groups_before);  // steady state: no new groups
  return after - before;
}

TEST(HotPathAllocTest, GroupedAggregationSteadyStateAllocatesNothing) {
  EXPECT_EQ(SteadyStateAllocationDelta(
                "SELECT tb, srcIP, destIP, sum(len), count(*) FROM PKTS "
                "GROUP BY time/20 as tb, srcIP, destIP"),
            0u);
}

TEST(HotPathAllocTest, GroupedSamplingSteadyStateAllocatesNothing) {
  // The paper's subset-sum shape: stateful WHERE admission, superaggregate
  // maintenance and a per-tuple CLEANING WHEN check. The target is set high
  // enough that no cleaning phase fires inside the measured burst.
  EXPECT_EQ(SteadyStateAllocationDelta(R"(
      SELECT tb, srcIP, destIP, UMAX(sum(len), ssthreshold())
      FROM PKTS
      WHERE ssample(len, 1000000000, 2, 10, 0.5) = TRUE
      GROUP BY time/20 as tb, srcIP, destIP
      HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
      CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
      CLEANING BY ssclean_with(sum(len)) = TRUE
  )"),
            0u);
}

// The same invariant must hold with the full observability layer attached:
// counters, sampled phase timers and the span ring are all fixed-size and
// heap-free after registration.
TEST(HotPathAllocTest, InstrumentedSteadyStateAllocatesNothing) {
  EXPECT_EQ(SteadyStateAllocationDelta(
                "SELECT tb, srcIP, destIP, sum(len), count(*) FROM PKTS "
                "GROUP BY time/20 as tb, srcIP, destIP",
                /*with_metrics=*/true),
            0u);
}

TEST(HotPathAllocTest, InstrumentedSamplingSteadyStateAllocatesNothing) {
  EXPECT_EQ(SteadyStateAllocationDelta(R"(
      SELECT tb, srcIP, destIP, UMAX(sum(len), ssthreshold())
      FROM PKTS
      WHERE ssample(len, 1000000000, 2, 10, 0.5) = TRUE
      GROUP BY time/20 as tb, srcIP, destIP
      HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
      CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
      CLEANING BY ssclean_with(sum(len)) = TRUE
  )",
                                       /*with_metrics=*/true),
            0u);
}

// The batched hot path (DESIGN.md §9) carries the same guarantee: once the
// operator's columnar scratch (key columns, WHERE column, aggregate-argument
// columns, program stacks) has reached capacity, ProcessBatch must not touch
// the heap in steady state. A zero delta here also proves the expression
// programs are compiled exactly once, at construction — compilation
// allocates, so any per-batch recompilation would show up immediately.
uint64_t SteadyStateBatchAllocationDelta(const std::string& sql,
                                         bool with_metrics = false) {
  Catalog catalog = Catalog::Default();
  Result<CompiledQuery> cq = CompileQuery(sql, catalog, {.seed = 3});
  EXPECT_TRUE(cq.ok()) << cq.status().ToString();
  EXPECT_EQ(cq->kind, CompiledQueryKind::kSampling);
  SamplingOperator op(cq->sampling);
  if (with_metrics) {
    op.set_metrics(obs::OperatorMetrics::Create(
        obs::MetricRegistry::Default(), "hotpath_batch"));
    obs::SpanRing::Default().set_enabled(true);
    op.set_span_ring(&obs::SpanRing::Default());
    obs::ExemplarStore::Default().set_enabled(true);
    op.set_exemplars(&obs::ExemplarStore::Default());
    op.set_profiler(&obs::Profiler::Default());
  }
  std::vector<Tuple> tuples = SteadyStateTuples(2048, 32, 16);
  // Pre-build the batches outside the measured region, as the runtime's
  // reused ring-drain batch would be.
  std::vector<TupleBatch> batches;
  for (size_t i = 0; i < tuples.size(); i += 512) {
    batches.emplace_back(tuples.front().size(), 512);
    for (size_t j = i; j < i + 512; ++j) batches.back().AppendTuple(tuples[j]);
  }
  // Warm-up: create every group and let the columnar scratch reach capacity.
  for (const TupleBatch& b : batches) {
    Status s = op.ProcessBatch(b);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  const size_t groups_before = op.num_groups();

  uint64_t before = g_allocations.load(std::memory_order_relaxed);
  size_t failures = 0;
  for (const TupleBatch& b : batches) failures += !op.ProcessBatch(b).ok();
  uint64_t after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(failures, 0u);
  EXPECT_EQ(op.num_groups(), groups_before);  // steady state: no new groups
  return after - before;
}

TEST(HotPathAllocTest, BatchedGroupedAggregationSteadyStateAllocatesNothing) {
  EXPECT_EQ(SteadyStateBatchAllocationDelta(
                "SELECT tb, srcIP, destIP, sum(len), count(*) FROM PKTS "
                "GROUP BY time/20 as tb, srcIP, destIP"),
            0u);
}

TEST(HotPathAllocTest, BatchedGroupedSamplingSteadyStateAllocatesNothing) {
  // Stateful WHERE: the batch loop drops to compiled row mode per lane for
  // ssample, which must be as heap-free as the tree walk it replaces.
  EXPECT_EQ(SteadyStateBatchAllocationDelta(R"(
      SELECT tb, srcIP, destIP, UMAX(sum(len), ssthreshold())
      FROM PKTS
      WHERE ssample(len, 1000000000, 2, 10, 0.5) = TRUE
      GROUP BY time/20 as tb, srcIP, destIP
      HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
      CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
      CLEANING BY ssclean_with(sum(len)) = TRUE
  )"),
            0u);
}

TEST(HotPathAllocTest, BatchedInstrumentedSteadyStateAllocatesNothing) {
  EXPECT_EQ(SteadyStateBatchAllocationDelta(
                "SELECT tb, srcIP, destIP, sum(len), count(*) FROM PKTS "
                "GROUP BY time/20 as tb, srcIP, destIP",
                /*with_metrics=*/true),
            0u);
}

// A window close frees nothing, and what it allocates does not grow with
// its output rows. After a warm-up window, one more window of 4,096 groups
// is created and then closed by the next window's first lane: that may
// allocate at most 64 times in all, for the output chunk (its column
// arrays, one set per 4,096 rows) and the per-window bookkeeping (window
// stats, the supergroup entry, the chunk list's growth). Group records,
// index slots and membership entries come from storage the warm-up window
// left behind. With `with_obs`, metrics, spans, exemplars and the
// profiler's phase totals are on, as in SteadyStateBatchAllocationDelta.
struct WindowCloseCount {
  uint64_t allocations = 0;
  size_t rows = 0;
  WindowStats stats;  // of the measured window
};

WindowCloseCount WindowCloseAllocations(const std::string& sql,
                                        bool with_obs = false) {
  Catalog catalog = Catalog::Default();
  Result<CompiledQuery> cq = CompileQuery(sql, catalog, {.seed = 3});
  EXPECT_TRUE(cq.ok()) << cq.status().ToString();
  SamplingOperator op(cq->sampling);
  if (with_obs) {
    op.set_metrics(obs::OperatorMetrics::Create(
        obs::MetricRegistry::Default(), "hotpath_close"));
    obs::SpanRing::Default().set_enabled(true);
    op.set_span_ring(&obs::SpanRing::Default());
    obs::ExemplarStore::Default().set_enabled(true);
    op.set_exemplars(&obs::ExemplarStore::Default());
    op.set_profiler(&obs::Profiler::Default());
  }
  constexpr size_t kGroups = 4096;
  constexpr size_t kRows = 512;
  // Per window: a one-row batch holding its first lane (the one that
  // closes the window before it), then 16 full batches in which every
  // group gets two tuples.
  auto lane = [](uint64_t window, size_t j) {
    PacketRecord p{};
    p.ts_ns = (100 + 20 * window) * 1000000000ULL + j;
    p.src_ip = 0x0a000000U + static_cast<uint32_t>(j % kGroups);
    p.dst_ip = 0xc0a80001U;
    p.proto = 6;
    p.len = static_cast<uint16_t>(40 + (j * 97) % 1460);
    return p;
  };
  std::vector<TupleBatch> openers;
  std::vector<std::vector<TupleBatch>> bodies(3);
  for (uint64_t w = 0; w < 3; ++w) {
    openers.emplace_back(8, 1);
    openers.back().AppendPacket(lane(w, 0));
    for (size_t i = 1; i < 2 * kGroups; i += kRows) {
      TupleBatch& b = bodies[w].emplace_back(8, kRows);
      for (size_t j = i; j < i + kRows && j < 2 * kGroups; ++j) {
        b.AppendPacket(lane(w, j));
      }
    }
  }
  auto run = [&](const TupleBatch& b) {
    Status s = op.ProcessBatch(b);
    EXPECT_TRUE(s.ok()) << s.ToString();
  };
  // Warm-up: window 0 is filled and closed by window 1's first lane.
  run(openers[0]);
  for (const TupleBatch& b : bodies[0]) run(b);
  run(openers[1]);
  EXPECT_EQ(op.DrainOutput().size(), op.window_stats()[0].tuples_output);

  WindowCloseCount count;
  uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (const TupleBatch& b : bodies[1]) run(b);
  run(openers[2]);
  uint64_t after = g_allocations.load(std::memory_order_relaxed);
  count.allocations = after - before;
  count.rows = op.output_size();
  EXPECT_EQ(op.window_stats().size(), 2u);
  if (op.window_stats().size() == 2) count.stats = op.window_stats()[1];
  return count;
}

TEST(HotPathAllocTest, WindowCloseAllocatesOnlyOutputRows) {
  // replay_agg's query.
  const WindowCloseCount c = WindowCloseAllocations(
      "SELECT tb, srcIP, count(*), sum(len) FROM PKT "
      "GROUP BY time/5 as tb, srcIP");
  EXPECT_EQ(c.stats.groups_created, 4096u);
  EXPECT_EQ(c.rows, 4096u);
  EXPECT_LE(c.allocations, 64u) << c.rows << " rows emitted";
}

TEST(HotPathAllocTest, SamplingWindowCloseWithCleaningAllocatesOnlyOutputRows) {
  // The subset-sum shape at a target low enough that cleaning phases fire
  // while the window fills. The second pass runs the same windows with
  // observability on: each clean and flush span reads the threshold z
  // through the SFUN quality hook, and that must not allocate either.
  const std::string sql = R"(
      SELECT tb, srcIP, destIP, UMAX(sum(len), ssthreshold())
      FROM PKTS
      WHERE ssample(len, 500, 2, 10, 0.5) = TRUE
      GROUP BY time/20 as tb, srcIP, destIP
      HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
      CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
      CLEANING BY ssclean_with(sum(len)) = TRUE
  )";
  for (bool with_obs : {false, true}) {
    SCOPED_TRACE(with_obs ? "observability on" : "bare operator");
    const WindowCloseCount c = WindowCloseAllocations(sql, with_obs);
    EXPECT_GT(c.stats.cleaning_phases, 0u);
    EXPECT_GT(c.stats.groups_removed, 0u);
    EXPECT_GT(c.rows, 0u);
    EXPECT_LE(c.allocations, 64u) << c.rows << " rows emitted";
  }
  if (!obs::kStatsEnabled) return;  // spans compiled out
  bool clean_with_z = false;
  for (const obs::SpanRecord& s : obs::SpanRing::Default().Snapshot()) {
    clean_with_z |= std::string(s.name) == "clean" && s.z > 0.0;
  }
  EXPECT_TRUE(clean_with_z) << "no clean span carried a threshold";
}

// Refilling a reused batch from packets (the runtime's drive loop) must
// also be allocation-free once the batch owns its capacity.
TEST(HotPathAllocTest, BatchRefillFromPacketsAllocatesNothing) {
  TupleBatch batch(8, 512);
  PacketRecord p{};
  p.ts_ns = 100ULL * 1000000000ULL;
  p.src_ip = 0x0a000001;
  p.dst_ip = 0xc0a80001;
  p.src_port = 1234;
  p.dst_port = 80;
  p.proto = 6;
  p.len = 512;
  const std::vector<PacketRecord> packets(512, p);
  for (int i = 0; i < 512; ++i) batch.AppendPacket(p);  // reach capacity
  uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int pass = 0; pass < 8; ++pass) {
    batch.Clear();
    for (int i = 0; i < 512; ++i) batch.AppendPacket(p);
  }
  // The drive loop's one-call refill, whole and in two parts.
  for (int pass = 0; pass < 8; ++pass) {
    batch.Clear();
    batch.AppendPackets(packets.data(), packets.size());
    batch.Clear();
    batch.AppendPackets(packets.data(), 100);
    batch.AppendPackets(packets.data() + 100, packets.size() - 100);
  }
  uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(batch.num_rows(), packets.size());
}

// A spill allocates about its own segment: it copies out only the spans it
// writes (not every slot of the span ring), writes each series as it is
// visited and frames the segment in the buffer it was written to. The
// ring here is full (4,096 slots, 352 KiB as SpanRecords); the table and
// the alert board are small, so anything near a copy of the ring breaks
// the bound. The first spill sizes the buffer; the second is measured.
TEST(HotPathAllocTest, FlightSpillAllocatesAboutItsSegment) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "hotpath_flight_spill";
  fs::remove_all(dir);

  obs::MetricRegistry reg;
  obs::Counter* c = reg.GetCounter("streamop_test_total");
  obs::Gauge* g = reg.GetGauge("streamop_runtime_shed_fraction");
  obs::TimeSeries ts({.capacity = 64, .max_series = 64, .max_points = 64,
                      .max_bucket_deltas = 256, .interval_ms = 100});
  obs::AlertEngine alerts;
  alerts.AddBuiltinRules();
  uint64_t t_ns = 1000000000ull;
  for (int k = 0; k < 48; ++k) {
    c->Add(10 + k);
    g->Set(0.01 * k);
    ts.Scrape(reg, t_ns += 100000000ull);
    alerts.Evaluate(ts, t_ns);
  }
  obs::SpanRing ring(4096);
  ring.set_enabled(true);
  for (uint64_t i = 0; i < 2 * ring.capacity(); ++i) {
    obs::SpanRecord s;
    s.name = "admission";
    s.ts_ns = (i * 7919) % (2 * ring.capacity());
    ring.Emit(s);
  }
  obs::FlightRecorder flight(
      {.dir = dir.string(), .span_ring = &ring});
  ASSERT_TRUE(flight.Spill(ts, &alerts).ok());

  const uint64_t before = g_allocated_bytes.load(std::memory_order_relaxed);
  ASSERT_TRUE(flight.Spill(ts, &alerts).ok());
  const uint64_t spill_bytes =
      g_allocated_bytes.load(std::memory_order_relaxed) - before;
  const uint64_t segment = fs::file_size(flight.segment_path());
  fs::remove_all(dir);
  EXPECT_LE(spill_bytes, segment + 64 * 1024)
      << "segment " << segment << " B";
}

// The flight-recorder stack rides along without reintroducing heap
// traffic: with the registry being scraped into the time-series ring and
// every built-in alert rule evaluated between bursts, the steady-state
// delta must still be zero. The spill itself is checkpoint-cadence disk
// I/O and allocates by design, so it happens outside the measured region;
// inside it only the cadence gate (the per-tick cost) runs.
TEST(HotPathAllocTest, TimeseriesAlertsAndFlightGateStayAllocationFree) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "hotpath_flight_gate";
  fs::remove_all(dir);
  fs::create_directories(dir);

  Catalog catalog = Catalog::Default();
  Result<CompiledQuery> cq = CompileQuery(
      "SELECT tb, srcIP, destIP, sum(len), count(*) FROM PKTS "
      "GROUP BY time/20 as tb, srcIP, destIP",
      catalog, {.seed = 3});
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  SamplingOperator op(cq->sampling);
  obs::MetricRegistry reg;
  op.set_metrics(obs::OperatorMetrics::Create(reg, "hotpath_ts"));

  obs::TimeSeries ts(
      {.capacity = 32, .max_series = 128, .max_points = 128,
       .max_bucket_deltas = 1024, .interval_ms = 100});
  obs::AlertEngine alerts(
      obs::AlertEngine::Options{.quality_ci_target = 0.05});
  alerts.AddBuiltinRules();
  obs::FlightRecorder flight(
      {.dir = dir.string(), .spill_every_n_ticks = 1ull << 40});

  std::vector<Tuple> tuples = SteadyStateTuples(2048, 32, 16);
  uint64_t t_ns = 1000000000ull;
  const uint64_t step_ns = 100ull * 1000 * 1000;
  uint64_t tick = 0;
  // Warm-up: create every group, let the ring learn every series (the
  // one-time descriptor allocations), run the state machines once and
  // take the allocating spill now rather than in the measured region.
  for (const Tuple& t : tuples) ASSERT_TRUE(op.Process(t).ok());
  for (int i = 0; i < 4; ++i) {
    ts.Scrape(reg, t_ns += step_ns);
    alerts.Evaluate(ts, t_ns);
    flight.MaybeSpill(ts, &alerts, ++tick);
  }
  flight.RequestSpill();
  flight.MaybeSpill(ts, &alerts, ++tick);
  if (obs::kStatsEnabled) {
    ASSERT_EQ(flight.spills(), 1u);
  }

  uint64_t before = g_allocations.load(std::memory_order_relaxed);
  size_t failures = 0;
  for (size_t burst = 0; burst < 4; ++burst) {
    for (size_t i = burst * 512; i < (burst + 1) * 512; ++i) {
      failures += !op.Process(tuples[i]).ok();
    }
    ts.Scrape(reg, t_ns += step_ns);
    alerts.Evaluate(ts, t_ns);
    flight.MaybeSpill(ts, &alerts, ++tick);  // cadence gate only: no spill
  }
  uint64_t after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(failures, 0u);
  EXPECT_EQ(after - before, 0u);
  fs::remove_all(dir);
  if (!obs::kStatsEnabled) return;  // stats compiled out: nothing scraped
  EXPECT_EQ(flight.spills(), 1u);  // the gate never spilled mid-burst
  EXPECT_GE(ts.scrapes(), 8u);
}

// Socket ingest carries the guarantee too: the receive buffer and the
// pending-frame queue are allocated once, at construction, and records are
// decoded from the buffer straight into the caller's array. So once a
// loopback TCP source has connected and cycled its buffer, a Read loop
// allocates nothing (the sender thread's streaming loop included).
TEST(HotPathAllocTest, TcpSocketSourceSteadyStateReadAllocatesNothing) {
  std::vector<PacketRecord> records(400000);
  for (size_t i = 0; i < records.size(); ++i) {
    records[i].ts_ns = i;
    records[i].len = static_cast<uint16_t>(40 + i % 1460);
  }
  TraceSenderConfig scfg;
  scfg.records = records;
  scfg.records_per_frame = 512;
  scfg.handshake_timeout_ms = 20000;
  TraceSender sender(std::move(scfg));
  ASSERT_TRUE(sender.BindTcp(0).ok());
  std::thread producer([&sender] { sender.ServeTcp(); });

  SocketSourceConfig cfg;
  cfg.mode = SocketSourceConfig::Mode::kTcp;
  cfg.port = sender.tcp_port();
  SocketSource src(cfg);
  ASSERT_TRUE(src.Open().ok());
  std::vector<PacketRecord> buf(512);
  auto read_records = [&](size_t want) {
    size_t got = 0;
    while (got < want) {
      size_t n = 0;
      if (src.Read(buf.data(), buf.size(), &n) ==
          ResumableSource::ReadResult::kEnd) {
        break;
      }
      got += n;
    }
    return got;
  };
  // Warm-up: connect, handshake, and several buffer refills.
  const size_t warm = read_records(50000);

  uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const size_t measured = read_records(200000);
  uint64_t after = g_allocations.load(std::memory_order_relaxed);

  sender.RequestStop();
  producer.join();
  EXPECT_GE(warm, 50000u);
  EXPECT_GE(measured, 200000u);
  EXPECT_EQ(src.stats().reconnects, 0u);
  EXPECT_EQ(after - before, 0u);
}

// The in-memory trace source copies records straight out of the trace's
// arena into the caller's array: reading a trace allocates nothing.
TEST(HotPathAllocTest, TraceSourceSteadyStateReadAllocatesNothing) {
  std::vector<PacketRecord> records(200000);
  for (size_t i = 0; i < records.size(); ++i) {
    records[i].ts_ns = i;
    records[i].len = static_cast<uint16_t>(40 + i % 1460);
  }
  Trace trace(std::move(records));
  TraceSource src(&trace);
  ASSERT_TRUE(src.Open().ok());
  std::vector<PacketRecord> buf(512);
  size_t n = 0;
  ASSERT_EQ(src.Read(buf.data(), buf.size(), &n),
            ResumableSource::ReadResult::kRecords);

  size_t got = n;
  uint64_t before = g_allocations.load(std::memory_order_relaxed);
  while (src.Read(buf.data(), buf.size(), &n) ==
         ResumableSource::ReadResult::kRecords) {
    got += n;
  }
  uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(got, trace.size());
  EXPECT_EQ(after - before, 0u);
}

// The counting allocator itself must work, or the zero-deltas above would
// be vacuously true.
TEST(HotPathAllocTest, CounterObservesAllocations) {
  uint64_t before = g_allocations.load(std::memory_order_relaxed);
  std::vector<uint64_t>* v = new std::vector<uint64_t>(1000);
  uint64_t after = g_allocations.load(std::memory_order_relaxed);
  delete v;
  EXPECT_GE(after - before, 2u);  // the vector object + its buffer
}

}  // namespace
}  // namespace streamop
