// Micro-benchmarks (google-benchmark): the query-engine hot paths — tuple
// conversion, selection, plain aggregation through the sampling operator,
// and the full dynamic subset-sum query — in tuples/second.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/serde.h"
#include "engine/checkpoint.h"
#include "engine/query_node.h"
#include "net/trace_generator.h"
#include "tuple/tuple_batch.h"

namespace streamop {
namespace {

const Trace& BenchTrace() {
  static const Trace* trace =
      new Trace(TraceGenerator::MakeDataCenterFeed(2.0, 7));
  return *trace;
}

void BM_PacketToTuple(benchmark::State& state) {
  const Trace& trace = BenchTrace();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(PacketToTuple(trace.at(i)));
    i = (i + 1) % trace.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PacketToTuple);

// Pushes the whole trace through a freshly compiled query once per
// iteration, batched the way the runtime drives nodes (512-row TupleBatches
// refilled from the packet trace); reports tuples/second.
void RunQueryBenchmark(benchmark::State& state, const std::string& sql) {
  const Trace& trace = BenchTrace();
  Catalog catalog = Catalog::Default();
  for (auto _ : state) {
    Result<CompiledQuery> cq = CompileQuery(sql, catalog, {.seed = 3});
    if (!cq.ok()) {
      state.SkipWithError(cq.status().ToString().c_str());
      return;
    }
    QueryNode node("bench", *cq);
    TupleBatch batch(node.input_width(), 512);
    const std::vector<PacketRecord>& pkts = trace.packets();
    size_t i = 0;
    while (i < pkts.size()) {
      batch.Clear();
      while (i < pkts.size() && !batch.full()) batch.AppendPacket(pkts[i++]);
      Status s = node.PushBatch(batch);
      if (!s.ok()) {
        state.SkipWithError(s.ToString().c_str());
        return;
      }
    }
    Status s = node.Finish();
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(node.DrainOutput());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(trace.size()));
}

void BM_SelectionPassThrough(benchmark::State& state) {
  RunQueryBenchmark(state,
                    "SELECT time, srcIP, destIP, len FROM PKT");
}
BENCHMARK(BM_SelectionPassThrough);

void BM_SelectionFiltered(benchmark::State& state) {
  RunQueryBenchmark(state,
                    "SELECT time, srcIP, len FROM PKT WHERE len > 1400");
}
BENCHMARK(BM_SelectionFiltered);

void BM_SelectionBasicSubsetSum(benchmark::State& state) {
  RunQueryBenchmark(state, bench::BasicSubsetSumSelectionSql(50000.0));
}
BENCHMARK(BM_SelectionBasicSubsetSum);

void BM_AggregationQuery(benchmark::State& state) {
  RunQueryBenchmark(state,
                    "SELECT tb, srcIP, sum(len), count(*) FROM PKT "
                    "GROUP BY time/20 as tb, srcIP");
}
BENCHMARK(BM_AggregationQuery);

void BM_DynamicSubsetSumQuery(benchmark::State& state) {
  RunQueryBenchmark(
      state, bench::SubsetSumSql(static_cast<uint64_t>(state.range(0)), 10.0));
}
BENCHMARK(BM_DynamicSubsetSumQuery)->Arg(100)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_HeavyHitterQuery(benchmark::State& state) {
  RunQueryBenchmark(state, R"(
      SELECT tb, srcIP, sum(len), count(*)
      FROM TCP
      GROUP BY time/60 as tb, srcIP
      CLEANING WHEN local_count(1000) = TRUE
      CLEANING BY count(*) >= current_bucket() - first(current_bucket())
  )");
}
BENCHMARK(BM_HeavyHitterQuery)->Unit(benchmark::kMillisecond);

void BM_QueryCompilation(benchmark::State& state) {
  Catalog catalog = Catalog::Default();
  const std::string sql = bench::SubsetSumSql(1000, 10.0);
  for (auto _ : state) {
    Result<CompiledQuery> cq = CompileQuery(sql, catalog);
    benchmark::DoNotOptimize(cq);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueryCompilation);

// ---------------------------------------------------------------------------
// Steady-state benchmarks: the hot path of the sampling operator with every
// group already created and no window boundary in sight. This is the regime
// the paper's CPU evaluation (§8, Fig. 5) cares about — the operator must
// keep up with ~100k pkt/s line rate — and the regime the flat-table /
// hash-once-key / scratch-buffer / batched-columnar work targets. The
// headline benchmarks drive the operator the way the runtime does since
// DESIGN.md §9: prebuilt 512-row TupleBatches through ProcessBatch, one
// batch per iteration, items scaled by the batch size so `tuples_per_sec`
// stays comparable across the perf trajectory (bench/run_bench.sh). The
// *RowAtATime variants drive Process() one tuple at a time, which runs
// each tuple as a one-row batch: the price of the per-tuple entry point
// (cascades, tests), not a second execution path.
// ---------------------------------------------------------------------------

// Packet-shaped tuples over a fixed (srcIP, destIP) key grid, all within one
// time window (time is pinned) so the window never closes while timing.
std::vector<Tuple> SteadyStateTuples(size_t count, uint64_t num_src,
                                     uint64_t num_dst) {
  std::vector<Tuple> tuples;
  tuples.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    uint64_t src = 0x0a000000ULL + (i % num_src);
    uint64_t dst = 0xc0a80000ULL + ((i / num_src) % num_dst);
    uint64_t len = 40 + (i * 97) % 1460;
    tuples.push_back(Tuple({Value::UInt(100),          // time (pinned)
                            Value::UInt(i * 1000),     // ts_ns
                            Value::UInt(src), Value::UInt(dst),
                            Value::UInt(1234), Value::UInt(80),
                            Value::UInt(6), Value::UInt(len)}));
  }
  return tuples;
}

constexpr size_t kSteadyBatchRows = 512;

// Shared setup: compile, build the tuple pool, warm up every group. The
// pool holds every (src, dst) pair at least once, and its size is a power
// of two (at least 4,096 tuples), so the drivers can wrap their tuple and
// batch indices with a mask.
bool SteadyStateSetup(benchmark::State& state, const std::string& sql,
                      uint64_t num_src, uint64_t num_dst,
                      std::unique_ptr<SamplingOperator>* op,
                      std::vector<Tuple>* tuples) {
  Catalog catalog = Catalog::Default();
  Result<CompiledQuery> cq = CompileQuery(sql, catalog, {.seed = 3});
  if (!cq.ok() || cq->kind != CompiledQueryKind::kSampling) {
    state.SkipWithError(cq.ok() ? "not a sampling query"
                                : cq.status().ToString().c_str());
    return false;
  }
  *op = std::make_unique<SamplingOperator>(cq->sampling);
  const size_t num_groups = static_cast<size_t>(num_src * num_dst);
  size_t pool = 4096;
  while (pool < num_groups) pool <<= 1;
  *tuples = SteadyStateTuples(pool, num_src, num_dst);
  // Warm-up: create every group so the timed loop only sees existing ones.
  for (const Tuple& t : *tuples) {
    Status s = (*op)->Process(t);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return false;
    }
  }
  if ((*op)->num_groups() != num_groups) {
    // A pool too small for the key grid would quietly time fewer groups.
    state.SkipWithError(("warm-up created " +
                         std::to_string((*op)->num_groups()) + " groups, not " +
                         std::to_string(num_groups))
                            .c_str());
    return false;
  }
  return true;
}

void SetSteadyStateCounters(benchmark::State& state, size_t tuples_per_iter,
                            size_t live_groups) {
  const double total =
      static_cast<double>(state.iterations()) *
      static_cast<double>(tuples_per_iter);
  state.SetItemsProcessed(static_cast<int64_t>(total));
  state.counters["tuples_per_sec"] =
      benchmark::Counter(total, benchmark::Counter::kIsRate);
  // Every steady-state tuple probes and updates exactly one group.
  state.counters["groups_per_sec"] =
      benchmark::Counter(total, benchmark::Counter::kIsRate);
  state.counters["live_groups"] =
      benchmark::Counter(static_cast<double>(live_groups));
}

// Batched driver: one prebuilt 512-row batch per iteration through
// ProcessBatch — the production drive since the runtime drains the ring
// into TupleBatches. real_time is ns/batch; items are scaled ×512.
void RunSteadyState(benchmark::State& state, const std::string& sql,
                    uint64_t num_src, uint64_t num_dst) {
  std::unique_ptr<SamplingOperator> op;
  std::vector<Tuple> tuples;
  if (!SteadyStateSetup(state, sql, num_src, num_dst, &op, &tuples)) return;
  std::vector<TupleBatch> batches;
  for (size_t i = 0; i < tuples.size(); i += kSteadyBatchRows) {
    batches.emplace_back(tuples.front().size(), kSteadyBatchRows);
    for (size_t j = i; j < i + kSteadyBatchRows; ++j) {
      batches.back().AppendTuple(tuples[j]);
    }
  }
  // One batched warm-up pass so columnar scratch reaches capacity too.
  for (const TupleBatch& b : batches) {
    Status s = op->ProcessBatch(b);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
  }
  const size_t groups_at_steady_state = op->num_groups();
  size_t i = 0;
  for (auto _ : state) {
    Status s = op->ProcessBatch(batches[i]);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
    i = (i + 1) & (batches.size() - 1);
  }
  SetSteadyStateCounters(state, kSteadyBatchRows, groups_at_steady_state);
}

// Tuple-at-a-time driver through Process()'s one-row batches: real_time is
// ns/tuple.
void RunSteadyStateRow(benchmark::State& state, const std::string& sql,
                       uint64_t num_src, uint64_t num_dst) {
  std::unique_ptr<SamplingOperator> op;
  std::vector<Tuple> tuples;
  if (!SteadyStateSetup(state, sql, num_src, num_dst, &op, &tuples)) return;
  const size_t groups_at_steady_state = op->num_groups();
  size_t i = 0;
  for (auto _ : state) {
    Status s = op->Process(tuples[i]);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
    i = (i + 1) & (tuples.size() - 1);
  }
  SetSteadyStateCounters(state, 1, groups_at_steady_state);
}

constexpr char kGroupedAggregationSql[] =
    "SELECT tb, srcIP, destIP, sum(len), count(*) FROM PKTS "
    "GROUP BY time/20 as tb, srcIP, destIP";

constexpr char kGroupedSamplingSql[] = R"(
      SELECT tb, srcIP, destIP, UMAX(sum(len), ssthreshold())
      FROM PKTS
      WHERE ssample(len, 1000000000, 2, 10, 0.5) = TRUE
      GROUP BY time/20 as tb, srcIP, destIP
      HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
      CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
      CLEANING BY ssclean_with(sum(len)) = TRUE
  )";

// Plain grouped aggregation: group probe + two aggregate updates per tuple,
// fully columnar (key hashes, WHERE and aggregate arguments all vectorized).
// 64 sources × the argument's destinations: 1,024, 4,096 and 16,384 live
// groups, the last about replay_agg's 18.3k per window.
void BM_SteadyStateGroupedAggregation(benchmark::State& state) {
  RunSteadyState(state, kGroupedAggregationSql, 64,
                 static_cast<uint64_t>(state.range(0)));
}
// The two headline benchmarks pin a longer timing window than the suite
// default: single-core VMs drift by tens of percent across seconds, and
// these numbers carry the recorded perf trajectory (BENCH_operator.json).
BENCHMARK(BM_SteadyStateGroupedAggregation)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->MinTime(2.0);

// Window close at real group counts: each iteration fills one window with
// two tuples for each of 64 × the argument's groups and closes the window
// before it (the window's first lane does). The time per iteration is one
// window's admission plus one window close: HAVING-free SELECT over every
// group, the output rows, and the reset of the group state. Refilling the
// batches with the next window's time and draining the output are not
// timed.
void BM_WindowCloseGroupedAggregation(benchmark::State& state) {
  Catalog catalog = Catalog::Default();
  Result<CompiledQuery> cq =
      CompileQuery(kGroupedAggregationSql, catalog, {.seed = 3});
  if (!cq.ok()) {
    state.SkipWithError(cq.status().ToString().c_str());
    return;
  }
  SamplingOperator op(cq->sampling);
  const uint64_t num_src = 64;
  const uint64_t num_dst = static_cast<uint64_t>(state.range(0));
  const size_t num_groups = static_cast<size_t>(num_src * num_dst);
  const size_t rows = 2 * num_groups;
  const std::vector<Tuple> tuples = SteadyStateTuples(rows, num_src, num_dst);
  std::vector<std::vector<uint64_t>> cols(8, std::vector<uint64_t>(rows));
  for (size_t i = 0; i < rows; ++i) {
    for (size_t c = 0; c < 8; ++c) cols[c][i] = tuples[i].at(c).AsUInt();
  }
  const std::vector<uint8_t> types(
      kSteadyBatchRows, static_cast<uint8_t>(FieldType::kUInt));
  std::vector<uint64_t> time_col(kSteadyBatchRows);
  std::vector<TupleBatch> batches(rows / kSteadyBatchRows);
  for (TupleBatch& b : batches) b.Configure(8, kSteadyBatchRows);
  uint64_t t = 100;
  for (auto _ : state) {
    state.PauseTiming();
    t += 20;  // the next time/20 bucket
    std::fill(time_col.begin(), time_col.end(), t);
    for (size_t k = 0; k < batches.size(); ++k) {
      TupleBatch& b = batches[k];
      b.Clear();
      b.AppendColumn(0, time_col.data(), types.data(), kSteadyBatchRows);
      for (size_t c = 1; c < 8; ++c) {
        b.AppendColumn(c, cols[c].data() + k * kSteadyBatchRows, types.data(),
                       kSteadyBatchRows);
      }
      b.FinishRows(kSteadyBatchRows);
    }
    benchmark::DoNotOptimize(op.DrainOutput());
    state.ResumeTiming();
    for (const TupleBatch& b : batches) {
      Status s = op.ProcessBatch(b);
      if (!s.ok()) {
        state.SkipWithError(s.ToString().c_str());
        return;
      }
    }
  }
  if (!op.window_stats().empty() &&
      op.window_stats().back().groups_created != num_groups) {
    state.SkipWithError("a window did not hold every group");
    return;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows));
  state.counters["groups_per_window"] =
      benchmark::Counter(static_cast<double>(num_groups));
  state.counters["windows_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_WindowCloseGroupedAggregation)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_SteadyStateGroupedAggregationRowAtATime(benchmark::State& state) {
  RunSteadyStateRow(state, kGroupedAggregationSql, 64,
                    static_cast<uint64_t>(state.range(0)));
}
BENCHMARK(BM_SteadyStateGroupedAggregationRowAtATime)->Arg(16)->Arg(64);

// The paper's grouped subset-sum sampling shape: stateful admission in
// WHERE (compiled row mode per lane, RNG order preserved), superaggregate
// maintenance, CLEANING WHEN checked per tuple. The sample target is set
// high enough that no cleaning phase ever fires, so the timed loop is pure
// steady state (existing group, no window close).
void BM_SteadyStateGroupedSampling(benchmark::State& state) {
  RunSteadyState(state, kGroupedSamplingSql, 64,
                 static_cast<uint64_t>(state.range(0)));
}
BENCHMARK(BM_SteadyStateGroupedSampling)->Arg(16)->Arg(64)->MinTime(2.0);

void BM_SteadyStateGroupedSamplingRowAtATime(benchmark::State& state) {
  RunSteadyStateRow(state, kGroupedSamplingSql, 64,
                    static_cast<uint64_t>(state.range(0)));
}
BENCHMARK(BM_SteadyStateGroupedSamplingRowAtATime)->Arg(16)->Arg(64);

// ---------------------------------------------------------------------------
// Durability cost (DESIGN.md §10). Checkpoints ride window flushes, so the
// steady-state hot path (no flush in sight) must be unaffected by merely
// enabling them — BM_SteadyStateGroupedSamplingCheckpointed installs the
// flush hook and must land within 2% of BM_SteadyStateGroupedSampling. The
// windowed A/B pair then measures what a flush-time snapshot actually
// costs: every iteration advances the window attribute, so each batch
// closes a window, and the checkpointed arm serializes the full durable
// state and writes a CRC-framed snapshot (temp + fsync + rename) per
// flush. run_bench.sh records the ratio as `checkpoint_overhead`.
// ---------------------------------------------------------------------------

void BM_SteadyStateGroupedSamplingCheckpointed(benchmark::State& state) {
  std::unique_ptr<SamplingOperator> op;
  std::vector<Tuple> tuples;
  if (!SteadyStateSetup(state, kGroupedSamplingSql, 64,
                        static_cast<uint64_t>(state.range(0)), &op,
                        &tuples)) {
    return;
  }
  const std::string dir =
      "/tmp/streamop_bench_ckpt_" + std::to_string(::getpid());
  CheckpointConfig cfg;
  cfg.dir = dir;
  cfg.node = "bench";
  cfg.retain = 2;
  CheckpointManager mgr(cfg);
  op->set_window_flush_hook([&op_ref = *op, &mgr](uint64_t windows) {
    if (!mgr.ShouldWrite(windows)) return;
    ByteWriter w;
    op_ref.SerializeDurableState(w);
    mgr.Write(windows, w.data());
  });
  std::vector<TupleBatch> batches;
  for (size_t i = 0; i < tuples.size(); i += kSteadyBatchRows) {
    batches.emplace_back(tuples.front().size(), kSteadyBatchRows);
    for (size_t j = i; j < i + kSteadyBatchRows; ++j) {
      batches.back().AppendTuple(tuples[j]);
    }
  }
  for (const TupleBatch& b : batches) {
    Status s = op->ProcessBatch(b);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
  }
  const size_t groups_at_steady_state = op->num_groups();
  size_t i = 0;
  for (auto _ : state) {
    Status s = op->ProcessBatch(batches[i]);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
    i = (i + 1) & (batches.size() - 1);
  }
  SetSteadyStateCounters(state, kSteadyBatchRows, groups_at_steady_state);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}
BENCHMARK(BM_SteadyStateGroupedSamplingCheckpointed)
    ->Arg(16)
    ->Arg(64)
    ->MinTime(2.0);

// GROUP BY time (no /20): each new timestamp closes the window, so one
// window flush per timed iteration.
constexpr char kWindowedSamplingSql[] = R"(
      SELECT tb, srcIP, destIP, UMAX(sum(len), ssthreshold())
      FROM PKTS
      WHERE ssample(len, 1000000000, 2, 10, 0.5) = TRUE
      GROUP BY time as tb, srcIP, destIP
      HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
      CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
      CLEANING BY ssclean_with(sum(len)) = TRUE
  )";

void RunWindowedSampling(benchmark::State& state, bool checkpointed) {
  Catalog catalog = Catalog::Default();
  Result<CompiledQuery> cq =
      CompileQuery(kWindowedSamplingSql, catalog, {.seed = 3});
  if (!cq.ok() || cq->kind != CompiledQueryKind::kSampling) {
    state.SkipWithError(cq.ok() ? "not a sampling query"
                                : cq.status().ToString().c_str());
    return;
  }
  SamplingOperator op(cq->sampling);
  const std::string dir =
      "/tmp/streamop_bench_ckpt_" + std::to_string(::getpid());
  CheckpointConfig cfg;
  cfg.dir = dir;
  cfg.node = "bench";
  cfg.retain = 2;
  CheckpointManager mgr(cfg);
  if (checkpointed) {
    op.set_window_flush_hook([&op, &mgr](uint64_t windows) {
      if (!mgr.ShouldWrite(windows)) return;
      ByteWriter w;
      op.SerializeDurableState(w);
      mgr.Write(windows, w.data());
    });
  }
  constexpr uint8_t kUIntType = static_cast<uint8_t>(FieldType::kUInt);
  TupleBatch batch(8, kSteadyBatchRows);
  uint64_t t = 100;
  // Both arms rebuild the batch per iteration (time must keep advancing to
  // close windows), so the fill cost cancels out of the A/B ratio.
  for (auto _ : state) {
    batch.Clear();
    for (size_t j = 0; j < kSteadyBatchRows; ++j) {
      const uint64_t vals[8] = {t,
                                j * 1000,
                                0x0a000000ULL + (j % 64),
                                0xc0a80000ULL + ((j / 64) % 16),
                                1234,
                                80,
                                6,
                                40 + (j * 97) % 1460};
      for (size_t c = 0; c < 8; ++c) batch.AppendRaw(c, kUIntType, vals[c]);
      batch.FinishRow();
    }
    Status s = op.ProcessBatch(batch);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
    ++t;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kSteadyBatchRows));
  state.counters["windows_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  if (checkpointed) {
    state.counters["checkpoint_bytes"] =
        benchmark::Counter(static_cast<double>(mgr.last_bytes()));
    state.counters["checkpoint_write_ns"] =
        benchmark::Counter(static_cast<double>(mgr.last_write_ns()));
    state.counters["checkpoints_written"] =
        benchmark::Counter(static_cast<double>(mgr.writes()));
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

void BM_WindowedGroupedSamplingBaseline(benchmark::State& state) {
  RunWindowedSampling(state, false);
}
BENCHMARK(BM_WindowedGroupedSamplingBaseline)->MinTime(2.0);

void BM_WindowedGroupedSamplingCheckpointed(benchmark::State& state) {
  RunWindowedSampling(state, true);
}
BENCHMARK(BM_WindowedGroupedSamplingCheckpointed)->MinTime(2.0);

}  // namespace
}  // namespace streamop

BENCHMARK_MAIN();
