// Micro-benchmarks for the observability layer (src/obs): the primitive
// record costs (counter add, histogram record, trace-ring event) and the
// tentpole's overhead criterion — the sampling operator's steady-state
// ns/tuple with full instrumentation attached vs detached. run_bench.sh
// computes the instrumented/uninstrumented ratio and embeds it in
// BENCH_operator.json; the budget is <= 2% (DESIGN.md §7). Building with
// -DSTREAMOP_NO_STATS=ON compiles every increment away, which should make
// the two steady-state benchmarks indistinguishable.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>

#include "bench/bench_util.h"
#include "core/sampling_operator.h"
#include "obs/alerts.h"
#include "obs/exemplar.h"
#include "obs/http_server.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/quality.h"
#include "obs/span.h"
#include "obs/timeseries.h"
#include "obs/trace_ring.h"

namespace streamop {
namespace {

// ---------- primitives ----------

void BM_CounterAdd(benchmark::State& state) {
  obs::Counter c;
  for (auto _ : state) {
    c.Add();
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterAdd);

void BM_GaugeSetMax(benchmark::State& state) {
  obs::Gauge g;
  double v = 0.0;
  for (auto _ : state) {
    g.SetMax(v);
    v += 0.5;
    benchmark::DoNotOptimize(g);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GaugeSetMax);

void BM_HistogramRecord(benchmark::State& state) {
  obs::Histogram h;
  uint64_t v = 1;
  for (auto _ : state) {
    h.Record(v);
    v = v * 31 % 1000003;  // spread across buckets
    benchmark::DoNotOptimize(h);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

void BM_NowNanos(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(obs::NowNanos());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NowNanos);

void BM_TraceRingRecord(benchmark::State& state) {
  obs::TraceRing ring(8192);
  ring.set_enabled(true);
  uint64_t ts = 0;
  for (auto _ : state) {
    ring.Record("bench_event", ts, 10);
    ts += 100;
  }
  benchmark::DoNotOptimize(ring.events_recorded());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceRingRecord);

void BM_TraceRingDisabled(benchmark::State& state) {
  obs::TraceRing ring(8192);  // disabled: one relaxed bool load per call
  uint64_t ts = 0;
  for (auto _ : state) {
    ring.Record("bench_event", ts, 10);
    ts += 100;
  }
  benchmark::DoNotOptimize(ring.events_recorded());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceRingDisabled);

// ---------- operator steady state: instrumented vs uninstrumented ----------

// Same tuple shape as micro_operator's steady-state benchmarks: fixed key
// grid, time pinned so no window boundary fires while timing.
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

constexpr char kAggregationSql[] =
    "SELECT tb, srcIP, destIP, sum(len), count(*) FROM PKTS "
    "GROUP BY time/20 as tb, srcIP, destIP";

// The A/B pair drives the operator the way the runtime does since the
// batched hot path landed (DESIGN.md §9): prebuilt 512-row TupleBatches
// through ProcessBatch. Instrumentation on this path is amortized per
// batch — one pending-counter flush and one admission-latency record per
// 512 tuples — so the ratio is the overhead of exactly what production
// pays. Items are scaled ×512 to stay a tuples/s rate.
constexpr size_t kObsBatchRows = 512;

// Shared setup for the steady-state legs: compiled operator with the full
// obs bundle attached, prebuilt batches warmed to columnar capacity.
// Members are ordered so the operator outlives nothing it points at.
struct SteadyStateRig {
  obs::SpanRing spans{4096};
  obs::Profiler profiler;
  obs::ExemplarStore exemplars;
  std::optional<Result<CompiledQuery>> cq;
  std::optional<SamplingOperator> op;
  std::vector<TupleBatch> batches;

  // Returns false (after SkipWithError) if compilation or warm-up failed.
  bool Init(benchmark::State& state, bool instrumented) {
    Catalog catalog = Catalog::Default();
    cq.emplace(CompileQuery(kAggregationSql, catalog, {.seed = 3}));
    if (!cq->ok() || (*cq)->kind != CompiledQueryKind::kSampling) {
      state.SkipWithError(cq->ok() ? "not a sampling query"
                                   : cq->status().ToString().c_str());
      return false;
    }
    op.emplace((*cq)->sampling);
    if (instrumented) {
      // The full third pillar rides in the instrumented leg: metrics, span
      // emission, phase-cycle accounting, the live SIGPROF stack sampler and
      // exemplar reservoirs — the ratio prices everything production runs.
      op->set_metrics(obs::OperatorMetrics::Create(
          obs::MetricRegistry::Default(), "micro_obs"));
      spans.set_enabled(true);
      op->set_span_ring(&spans);
      profiler.set_phase_accounting(true);
      (void)profiler.Start();  // busy slot (another instance): run unsampled
      op->set_profiler(&profiler);
      exemplars.set_enabled(true);
      op->set_exemplars(&exemplars);
    }
    const std::vector<Tuple> tuples = SteadyStateTuples(4096, 64, 16);
    for (const Tuple& t : tuples) {
      Status s = op->Process(t);
      if (!s.ok()) {
        state.SkipWithError(s.ToString().c_str());
        return false;
      }
    }
    for (size_t i = 0; i < tuples.size(); i += kObsBatchRows) {
      batches.emplace_back(tuples.front().size(), kObsBatchRows);
      for (size_t j = i; j < i + kObsBatchRows; ++j) {
        batches.back().AppendTuple(tuples[j]);
      }
    }
    for (const TupleBatch& b : batches) {
      Status s = op->ProcessBatch(b);  // columnar scratch reaches capacity
      if (!s.ok()) {
        state.SkipWithError(s.ToString().c_str());
        return false;
      }
    }
    return true;
  }
};

void RunSteadyState(benchmark::State& state, bool instrumented) {
  SteadyStateRig rig;
  if (!rig.Init(state, instrumented)) return;
  size_t i = 0;
  for (auto _ : state) {
    Status s = rig.op->ProcessBatch(rig.batches[i]);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
    i = (i + 1) & (rig.batches.size() - 1);
  }
  rig.profiler.Stop();
  const double total = static_cast<double>(state.iterations()) *
                       static_cast<double>(kObsBatchRows);
  state.SetItemsProcessed(static_cast<int64_t>(total));
  state.counters["tuples_per_sec"] =
      benchmark::Counter(total, benchmark::Counter::kIsRate);
}

// Baseline: metrics bundle detached — every record site short-circuits on
// enabled(), the same cost profile as a STREAMOP_NO_STATS build.
void BM_SteadyStateUninstrumented(benchmark::State& state) {
  RunSteadyState(state, /*instrumented=*/false);
}
// Longer window than the suite default: the A/B overhead ratio feeds the
// <=1.02 budget check and needs sub-percent timing stability.
BENCHMARK(BM_SteadyStateUninstrumented)->MinTime(2.0);

// Full instrumentation: batch-amortized counter flushes, per-batch
// admission timing, gauges at group creation. The ratio vs the benchmark
// above is the observability overhead (budget: <= 2%).
void BM_SteadyStateInstrumented(benchmark::State& state) {
  RunSteadyState(state, /*instrumented=*/true);
}
BENCHMARK(BM_SteadyStateInstrumented)->MinTime(2.0);

// Paired variant of the A/B above: both rigs live in one process and
// alternate ~50ms bursts with the phase order swapped every iteration, so
// host drift between two separately-timed benchmarks cancels out of the
// ratio. Reported time is the instrumented burst (manual timing); the
// per-rep paired ratio rides in the overhead_ratio counter, which
// run_bench.sh medians into obs_overhead.ratio — the <=1.02 budget
// criterion. The separately-timed legs stay registered for context.
void BM_ObsInstrumentationPairedOverhead(benchmark::State& state) {
  SteadyStateRig instr;
  SteadyStateRig plain;
  if (!instr.Init(state, /*instrumented=*/true)) return;
  if (!plain.Init(state, /*instrumented=*/false)) return;
  constexpr size_t kPhaseBatches = 2048;
  auto burst = [&](SteadyStateRig& rig, double* acc_ns) -> bool {
    const auto t0 = std::chrono::steady_clock::now();
    size_t i = 0;
    for (size_t n = 0; n < kPhaseBatches; ++n) {
      Status s = rig.op->ProcessBatch(rig.batches[i]);
      if (!s.ok()) {
        state.SkipWithError(s.ToString().c_str());
        return false;
      }
      i = (i + 1) & (rig.batches.size() - 1);
    }
    *acc_ns += std::chrono::duration<double, std::nano>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    return true;
  };
  double instr_ns = 0.0;
  double plain_ns = 0.0;
  bool instr_first = true;
  for (auto _ : state) {
    double phase_instr = 0.0;
    double phase_plain = 0.0;
    bool ok = instr_first ? burst(instr, &phase_instr) &&
                                burst(plain, &phase_plain)
                          : burst(plain, &phase_plain) &&
                                burst(instr, &phase_instr);
    if (!ok) return;
    instr_first = !instr_first;
    instr_ns += phase_instr;
    plain_ns += phase_plain;
    state.SetIterationTime(phase_instr * 1e-9);
  }
  instr.profiler.Stop();
  state.SetItemsProcessed(static_cast<int64_t>(
      state.iterations() * kPhaseBatches * kObsBatchRows));
  state.counters["overhead_ratio"] =
      benchmark::Counter(plain_ns > 0.0 ? instr_ns / plain_ns : 0.0);
}
BENCHMARK(BM_ObsInstrumentationPairedOverhead)->UseManualTime()->MinTime(1.0);

// ---------- time-series sampler A/B ----------

// The flight-recorder stack live against the hot path: a sampler thread
// scrapes the default registry into the ring, evaluates every built-in
// alert rule and runs the flight recorder's cadence gate — at 10ms
// intervals, 25x production's default cadence. The ratio vs
// BM_SteadyStateInstrumented is the time-series overhead criterion
// (budget: <= 2%, run_bench.sh embeds it in BENCH_operator.json). The
// scrape holds no operator lock — the only coupling is cache traffic on
// the atomics the hot path writes — so the two legs should be within
// noise of each other.
void BM_SteadyStateWithTimeseriesSampler(benchmark::State& state) {
  obs::TimeSeries ts({.capacity = 240,
                      .max_series = 1024,
                      .max_points = 1024,
                      .max_bucket_deltas = 2048,
                      .interval_ms = 10});
  obs::AlertEngine alerts;
  alerts.AddBuiltinRules();
  obs::TimeSeriesSampler sampler({.interval_ms = 10,
                                  .registry = &obs::MetricRegistry::Default(),
                                  .timeseries = &ts,
                                  .alerts = &alerts});
  Status started = sampler.Start();
  if (!started.ok()) {
    state.SkipWithError(started.ToString().c_str());
    return;
  }
  RunSteadyState(state, /*instrumented=*/true);
  sampler.Stop();
  state.counters["scrapes"] =
      benchmark::Counter(static_cast<double>(ts.scrapes()));
  state.counters["alert_evals"] =
      benchmark::Counter(static_cast<double>(alerts.evaluations()));
}
BENCHMARK(BM_SteadyStateWithTimeseriesSampler)->MinTime(2.0);

// The sampler's true cost (~6us of tick work per 10ms interval) is far
// below the run-to-run swing of comparing two separately-timed benchmarks
// on a shared host, so this benchmark measures the ratio *within* one
// process: alternating sampler-on / sampler-off bursts milliseconds
// apart, phase order swapped every iteration so host drift cancels.
// Reported time is the sampler-on burst (manual timing); the per-rep
// paired ratio rides in the overhead_ratio counter, which run_bench.sh
// medians into timeseries_overhead.ratio — the <=1.02 budget criterion.
void BM_TimeseriesSamplerPairedOverhead(benchmark::State& state) {
  SteadyStateRig rig;
  if (!rig.Init(state, /*instrumented=*/true)) return;
  obs::TimeSeries ts({.capacity = 240,
                      .max_series = 1024,
                      .max_points = 1024,
                      .max_bucket_deltas = 2048,
                      .interval_ms = 10});
  obs::AlertEngine alerts;
  alerts.AddBuiltinRules();
  obs::TimeSeriesSampler sampler({.interval_ms = 10,
                                  .registry = &obs::MetricRegistry::Default(),
                                  .timeseries = &ts,
                                  .alerts = &alerts});
  // ~50ms per phase at the steady-state rate: each phase spans ~5 sampler
  // ticks, and one iteration yields one on/off pair.
  constexpr size_t kPhaseBatches = 2048;
  auto burst = [&](double* acc_ns) -> bool {
    const auto t0 = std::chrono::steady_clock::now();
    size_t i = 0;
    for (size_t n = 0; n < kPhaseBatches; ++n) {
      Status s = rig.op->ProcessBatch(rig.batches[i]);
      if (!s.ok()) {
        state.SkipWithError(s.ToString().c_str());
        return false;
      }
      i = (i + 1) & (rig.batches.size() - 1);
    }
    *acc_ns += std::chrono::duration<double, std::nano>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    return true;
  };
  double on_ns = 0.0;
  double off_ns = 0.0;
  bool on_first = true;
  for (auto _ : state) {
    double phase_on = 0.0;
    double phase_off = 0.0;
    bool ok;
    if (on_first) {
      (void)sampler.Start();
      ok = burst(&phase_on);
      sampler.Stop();
      ok = ok && burst(&phase_off);
    } else {
      ok = burst(&phase_off);
      (void)sampler.Start();
      ok = ok && burst(&phase_on);
      sampler.Stop();
    }
    if (!ok) return;
    on_first = !on_first;
    on_ns += phase_on;
    off_ns += phase_off;
    state.SetIterationTime(phase_on * 1e-9);
  }
  rig.profiler.Stop();
  state.SetItemsProcessed(static_cast<int64_t>(
      state.iterations() * kPhaseBatches * kObsBatchRows));
  state.counters["overhead_ratio"] =
      benchmark::Counter(off_ns > 0.0 ? on_ns / off_ns : 0.0);
  state.counters["scrapes"] =
      benchmark::Counter(static_cast<double>(ts.scrapes()));
}
BENCHMARK(BM_TimeseriesSamplerPairedOverhead)->UseManualTime()->MinTime(1.0);

// The per-tick cost in isolation: one scrape of a realistically-sized
// registry + one evaluation pass of the built-in rules + the spill
// cadence gate. This is what the sampler thread pays every interval_ms —
// it bounds how tight the interval can go.
void BM_SamplerTick(benchmark::State& state) {
  obs::MetricRegistry reg;
  // A registry shaped like a live pipeline: per-operator bundles plus two
  // ingest sources (scalar + histogram entries, some labeled).
  (void)obs::OperatorMetrics::Create(reg, "bench_op_a");
  (void)obs::OperatorMetrics::Create(reg, "bench_op_b");
  (void)obs::IngestSourceMetrics::Create(reg, "udp:9999");
  (void)obs::IngestSourceMetrics::Create(reg, "pcap:bench.pcap");
  obs::TimeSeries ts({.capacity = 240,
                      .max_series = 1024,
                      .max_points = 1024,
                      .max_bucket_deltas = 2048,
                      .interval_ms = 100});
  obs::AlertEngine alerts;
  alerts.AddBuiltinRules();
  obs::TimeSeriesSampler sampler({.interval_ms = 100,
                                  .registry = &reg,
                                  .timeseries = &ts,
                                  .alerts = &alerts});
  obs::Counter* hot = reg.GetCounter("streamop_bench_hot_total");
  uint64_t t_ns = 1;
  for (auto _ : state) {
    hot->Add(17);  // every tick sees a moving counter
    sampler.TickOnce(t_ns += 100000000ull);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SamplerTick);

// ---------- windowed steady state: quality reports + live HTTP scrapes ----

// Windows actually close during the timed loop here (time advances every
// kTuplesPerWindow tuples), so the quality-report build runs at its real
// cadence — and in the full-observability variant an HTTP poller hammers
// every introspection endpoint (metrics, traces, spans, profile, exemplars,
// windows, healthz) concurrently. The ratio vs the plain variant is the
// "serving overhead" criterion (budget: <= 2%).
constexpr uint64_t kTuplesPerWindow = 16384;

void RunWindowedSteadyState(benchmark::State& state, bool full_obs) {
  Catalog catalog = Catalog::Default();
  Result<CompiledQuery> cq =
      CompileQuery(kAggregationSql, catalog, {.seed = 3});
  if (!cq.ok() || cq->kind != CompiledQueryKind::kSampling) {
    state.SkipWithError(cq.ok() ? "not a sampling query"
                                : cq.status().ToString().c_str());
    return;
  }
  obs::SpanRing spans(4096);
  obs::Profiler profiler;
  obs::ExemplarStore exemplars;
  SamplingOperator op(cq->sampling);
  obs::QualityRing ring(512);
  op.set_quality(&ring, "micro_obs_q");  // disabled ring in the plain case
  std::unique_ptr<obs::HttpServer> server;
  std::thread poller;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> http_ok{0};
  if (full_obs) {
    op.set_metrics(obs::OperatorMetrics::Create(
        obs::MetricRegistry::Default(), "micro_obs_q"));
    ring.set_enabled(true);
    spans.set_enabled(true);
    op.set_span_ring(&spans);
    profiler.set_phase_accounting(true);
    (void)profiler.Start();  // busy slot (another instance): run unsampled
    op.set_profiler(&profiler);
    exemplars.set_enabled(true);
    op.set_exemplars(&exemplars);
    obs::HttpServerOptions hopt;
    hopt.port = 0;
    hopt.quality_ring = &ring;
    hopt.span_ring = &spans;
    hopt.profiler = &profiler;
    hopt.exemplars = &exemplars;
    server = std::make_unique<obs::HttpServer>(hopt);
    Status started = server->Start();
    if (!started.ok()) {
      state.SkipWithError(started.ToString().c_str());
      return;
    }
    const int port = server->port();
    poller = std::thread([port, &stop, this_ok = &http_ok] {
      // Scrape every endpoint round-robin at a cadence far above any real
      // scraper's (Prometheus defaults to 15s intervals).
      const char* kPaths[] = {"/metrics", "/metrics.json",  "/traces",
                              "/spans",   "/profile?format=phases",
                              "/exemplars", "/windows",     "/healthz"};
      constexpr size_t kNumPaths = sizeof(kPaths) / sizeof(kPaths[0]);
      size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        Result<std::string> r =
            obs::HttpGet(port, kPaths[i % kNumPaths], 2000);
        if (r.ok()) this_ok->fetch_add(1, std::memory_order_relaxed);
        ++i;
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
      }
    });
  }

  // Driven as the runtime drives it: one 512-row batch per iteration. The
  // batches are rebuilt, untimed, with the next time/20 bucket every
  // kTuplesPerWindow tuples, and the first batch after that closes the
  // window.
  const std::vector<Tuple> tuples = SteadyStateTuples(4096, 64, 16);
  std::vector<std::vector<uint64_t>> cols(8,
                                          std::vector<uint64_t>(tuples.size()));
  for (size_t i = 0; i < tuples.size(); ++i) {
    for (size_t c = 0; c < 8; ++c) cols[c][i] = tuples[i].at(c).AsUInt();
  }
  const std::vector<uint8_t> types(kObsBatchRows,
                                   static_cast<uint8_t>(FieldType::kUInt));
  std::vector<uint64_t> time_col(kObsBatchRows);
  std::vector<TupleBatch> batches(tuples.size() / kObsBatchRows);
  for (TupleBatch& b : batches) b.Configure(8, kObsBatchRows);
  auto fill = [&](uint64_t now) {
    std::fill(time_col.begin(), time_col.end(), now);
    for (size_t k = 0; k < batches.size(); ++k) {
      TupleBatch& b = batches[k];
      b.Clear();
      b.AppendColumn(0, time_col.data(), types.data(), kObsBatchRows);
      for (size_t c = 1; c < 8; ++c) {
        b.AppendColumn(c, cols[c].data() + k * kObsBatchRows, types.data(),
                       kObsBatchRows);
      }
      b.FinishRows(kObsBatchRows);
    }
  };
  uint64_t now = 100;
  fill(now);
  for (const TupleBatch& b : batches) {
    Status s = op.ProcessBatch(b);  // every group exists before timing
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
  }
  constexpr uint64_t kBatchesPerWindow = kTuplesPerWindow / kObsBatchRows;
  uint64_t i = 0;
  for (auto _ : state) {
    if (++i % kBatchesPerWindow == 0) {
      state.PauseTiming();
      fill(now += 20);  // next time/20 bucket: the window closes mid-loop
      state.ResumeTiming();
    }
    Status s = op.ProcessBatch(batches[i & (batches.size() - 1)]);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
  }
  if (full_obs) {
    // Authoritative liveness sweep, outside the timed region: on a
    // single-CPU host the spinning loop above starves the poller (its
    // in-flight scrapes time out), so verify from this thread that every
    // endpoint answers against the still-live operator state. Blocking in
    // HttpGet yields the CPU to the serving thread.
    for (const char* path :
         {"/metrics", "/metrics.json", "/traces", "/spans",
          "/spans?format=chrome", "/profile?seconds=2",
          "/profile?format=phases", "/exemplars", "/windows", "/healthz"}) {
      for (int attempt = 0; attempt < 3; ++attempt) {
        Result<std::string> r = obs::HttpGet(server->port(), path, 2000);
        if (r.ok()) {
          http_ok.fetch_add(1, std::memory_order_relaxed);
          break;
        }
      }
    }
    stop.store(true, std::memory_order_relaxed);
    if (poller.joinable()) poller.join();
    server->Stop();
    profiler.Stop();
    state.counters["quality_reports"] =
        benchmark::Counter(static_cast<double>(ring.reports_recorded()));
    state.counters["http_requests"] =
        benchmark::Counter(static_cast<double>(server->requests_served()));
    state.counters["http_ok"] =
        benchmark::Counter(static_cast<double>(
            http_ok.load(std::memory_order_relaxed)));
  }
  const double total = static_cast<double>(state.iterations()) *
                       static_cast<double>(kObsBatchRows);
  state.SetItemsProcessed(static_cast<int64_t>(total));
  state.counters["tuples_per_sec"] =
      benchmark::Counter(total, benchmark::Counter::kIsRate);
}

void BM_WindowedSteadyStatePlain(benchmark::State& state) {
  RunWindowedSteadyState(state, /*full_obs=*/false);
}
BENCHMARK(BM_WindowedSteadyStatePlain);

// Quality ring, spans, profiler and exemplars attached, and an HTTP client
// scraping every endpoint while the operator runs at full rate.
void BM_WindowedSteadyStateServing(benchmark::State& state) {
  RunWindowedSteadyState(state, /*full_obs=*/true);
}
BENCHMARK(BM_WindowedSteadyStateServing);

}  // namespace
}  // namespace streamop

BENCHMARK_MAIN();
