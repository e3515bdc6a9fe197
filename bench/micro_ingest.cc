// Ingestion micro-benchmarks (google-benchmark): the same two-level
// pipeline fed four ways — in-process trace (the baseline every other
// bench uses), the same trace through RunThreaded's ring, a pcap file
// through PcapReader, and a loopback TCP socket through SocketSource — in
// records/second, plus a reconnect-storm case
// where the producer kills the connection every few frames and the
// consumer's backoff + HELLO-resume machinery carries the stream anyway.
// run_bench.sh distills these into BENCH_operator.json's
// "ingest_throughput" section (socket-vs-in-process ratio, storm recovery).

#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "engine/runtime.h"
#include "net/pcap_format.h"
#include "net/trace_generator.h"
#include "net/trace_sender.h"
#include "query/query.h"
#include "stream/pcap_reader.h"
#include "stream/socket_source.h"

namespace streamop {
namespace {

constexpr char kLowSql[] =
    "SELECT time, ts_ns, srcIP, destIP, srcPort, destPort, proto, len "
    "FROM PKT";
constexpr char kHighSql[] =
    "SELECT tb, srcIP, count(*), sum(len) FROM PKT "
    "GROUP BY time/5 as tb, srcIP";

const Trace& BenchTrace() {
  static const Trace* trace =
      new Trace(TraceGenerator::MakeDataCenterFeed(2.0, 7));
  return *trace;
}

const CompiledQuery& LowQuery() {
  static const CompiledQuery* q = new CompiledQuery(
      *CompileQuery(kLowSql, Catalog::Default(), {.seed = 3}));
  return *q;
}

const CompiledQuery& HighQuery() {
  static const CompiledQuery* q = new CompiledQuery(
      *CompileQuery(kHighSql, Catalog::Default(), {.seed = 3}));
  return *q;
}

// The pcap benchmarks read a capture materialized once from BenchTrace.
const std::string& BenchPcapPath() {
  static const std::string* path = [] {
    auto* p = new std::string(
        (std::filesystem::temp_directory_path() / "micro_ingest.pcap")
            .string());
    Status s = WritePcap(BenchTrace(), *p);
    if (!s.ok()) p->clear();
    return p;
  }();
  return *path;
}

// Baseline: the trace pushed straight from memory (no I/O, no framing).
void BM_InProcessIngest(benchmark::State& state) {
  const Trace& trace = BenchTrace();
  for (auto _ : state) {
    TwoLevelRuntime rt(LowQuery(), {HighQuery()});
    auto report = rt.Run(trace);
    if (!report.ok()) {
      state.SkipWithError(report.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(rt.high_node(0).DrainOutput());
  }
  state.SetItemsProcessed(state.iterations() * BenchTrace().size());
}
BENCHMARK(BM_InProcessIngest);

// The same trace through RunThreaded: a producer thread publishes slices of
// the trace through the ring, and the drive loop reads them. A run that
// loses a record is an error, not a faster run.
void BM_ThreadedIngest(benchmark::State& state) {
  const Trace& trace = BenchTrace();
  for (auto _ : state) {
    TwoLevelRuntime rt(LowQuery(), {HighQuery()});
    auto report = rt.RunThreaded(trace);
    if (!report.ok()) {
      state.SkipWithError(report.status().ToString().c_str());
      return;
    }
    if (report->low.tuples_in != trace.size()) {
      state.SkipWithError("the threaded run lost records");
      return;
    }
    benchmark::DoNotOptimize(rt.high_node(0).DrainOutput());
  }
  state.SetItemsProcessed(state.iterations() * trace.size());
}
BENCHMARK(BM_ThreadedIngest);

void BM_PcapIngest(benchmark::State& state) {
  if (BenchPcapPath().empty()) {
    state.SkipWithError("could not write bench pcap");
    return;
  }
  for (auto _ : state) {
    TwoLevelRuntime rt(LowQuery(), {HighQuery()});
    PcapReader reader(PcapReaderConfig{BenchPcapPath()});
    auto report = rt.RunSource(reader);
    if (!report.ok()) {
      state.SkipWithError(report.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(rt.high_node(0).DrainOutput());
  }
  state.SetItemsProcessed(state.iterations() * BenchTrace().size());
}
BENCHMARK(BM_PcapIngest);

// Loopback TCP: a TraceSender thread streams the trace over a real
// socket; the measured cost includes framing, CRC verification, the
// HELLO/ACK handshake and the kernel loopback path.
void RunTcpIngest(benchmark::State& state, uint64_t kill_every_frames,
                  size_t records_per_frame) {
  const Trace& trace = BenchTrace();
  uint64_t reconnects = 0;
  for (auto _ : state) {
    TraceSenderConfig scfg;
    scfg.records = trace.packets();  // a view of the bench's one trace
    scfg.records_per_frame = records_per_frame;
    scfg.handshake_timeout_ms = 20000;
    scfg.kill_connection_after_frames = kill_every_frames;
    TraceSender sender(std::move(scfg));
    Status bound = sender.BindTcp(0);
    if (!bound.ok()) {
      state.SkipWithError(bound.ToString().c_str());
      return;
    }
    std::thread producer([&sender] { sender.ServeTcp(); });

    SocketSourceConfig cfg;
    cfg.mode = SocketSourceConfig::Mode::kTcp;
    cfg.port = sender.tcp_port();
    cfg.read_timeout_ms = 50;
    cfg.backoff_initial_ms = 1;
    cfg.backoff_max_ms = 5;
    SocketSource src(cfg);
    TwoLevelRuntime rt(LowQuery(), {HighQuery()});
    auto report = rt.RunSource(src);
    sender.RequestStop();
    producer.join();
    if (!report.ok()) {
      state.SkipWithError(report.status().ToString().c_str());
      return;
    }
    if (report->packets != trace.size()) {
      state.SkipWithError("tcp ingest lost records");
      return;
    }
    reconnects += src.stats().reconnects;
    benchmark::DoNotOptimize(rt.high_node(0).DrainOutput());
  }
  state.SetItemsProcessed(state.iterations() * trace.size());
  state.counters["reconnects"] = static_cast<double>(reconnects);
}

void BM_TcpLoopbackIngest(benchmark::State& state) {
  RunTcpIngest(state, 0, 512);
}
BENCHMARK(BM_TcpLoopbackIngest);

// Reconnect storm: the producer slams the connection shut every 32 frames
// (every ~2k records); throughput includes ~100 reconnect + resume cycles
// per pass, and lossless delivery is asserted each iteration.
void BM_TcpReconnectStorm(benchmark::State& state) {
  RunTcpIngest(state, 32, 64);
}
BENCHMARK(BM_TcpReconnectStorm);

}  // namespace
}  // namespace streamop

BENCHMARK_MAIN();
