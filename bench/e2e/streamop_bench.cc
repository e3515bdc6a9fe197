// streamop_bench: the end-to-end benchmark of the streamop pipeline.
//
//   streamop_bench --workload NAME|all --seed N [--seconds S]
//                  [--trace-dir DIR] [--work-dir DIR] [--out FILE]
//                  [--commit SHA]
//
// A workload generates its input from --seed, sets the pipeline up the way
// an application does (CompileQuery + TwoLevelRuntime), drives it through a
// product entry point (Run, RunThreaded or RunSource), and checks every
// output against ground truth. It prints one "workload metric value unit"
// line per metric and, last, a one-line JSON result.
//
// With --trace-dir the run gives per-layer numbers instead. It re-drives
// the same layers from this file, call by call, through their public
// functions, with an in-memory span around each call (layer_trace.h), and
// it still runs untraced iterations in between so that the tracing
// overhead and the output identity of the two paths can be checked. No
// engine code is instrumented for the benchmark.
//
// `--workload all` runs each workload in a child process of its own.

#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/serde.h"
#include "engine/checkpoint.h"
#include "engine/runtime.h"
#include "layer_trace.h"
#include "net/trace_generator.h"
#include "net/trace_sender.h"
#include "obs/exemplar.h"
#include "obs/metrics.h"
#include "obs/quality.h"
#include "obs/span.h"
#include "obs/trace_ring.h"
#include "paced_sender.h"
#include "query/query.h"
#include "stream/ring_buffer.h"
#include "stream/socket_source.h"
#include "tuple/tuple_batch.h"

namespace streamop {
namespace e2e {
namespace {

namespace fs = std::filesystem;
using obs::NowNanos;

// RuntimeOptions defaults and the runtime's malformed-packet cut-off,
// mirrored by the traced loop so it does the same work as the runtime.
constexpr size_t kBatch = 512;
constexpr size_t kRingCapacity = 1 << 16;
constexpr uint16_t kMinPacketLen = 20;

// tcp_paced: the offered rate (about half the closed-loop TCP capacity of
// a 4-core host), the length of one paced session, and how far the median
// emit latency may climb between the first and the last quarter of a
// session before the backlog counts as growing. At this rate the trace's
// 1 s windows close every 50 ms, so a session holds ~80 windows and a 20 s
// run holds 5 sessions, each with a setup of its own. 20 ms is 40k records
// of backlog; a pipeline 1% short of the rate builds 60k between the two
// quarters, which lie 3 s apart.
constexpr double kPacedRecordsPerSec = 2e6;
constexpr double kPacedSessionSeconds = 4.0;
constexpr double kBacklogGrowthMs = 20.0;

// subsetsum_durable input size. The research feed's bursty MMPP rate makes
// its record count swing several-fold from seed to seed; cutting every
// seed's feed to one length keeps the work per iteration the same.
constexpr size_t kResearchRecords = 1600000;

constexpr char kLowSql[] =
    "SELECT time, ts_ns, srcIP, destIP, srcPort, destPort, proto, len "
    "FROM PKT";
constexpr char kAggSql[] =
    "SELECT tb, srcIP, count(*), sum(len) FROM PKT "
    "GROUP BY time/5 as tb, srcIP";
constexpr char kPacedAggSql[] =
    "SELECT tb, srcIP, count(*), sum(len) FROM PKT "
    "GROUP BY time as tb, srcIP";
// The paper's relaxed dynamic subset-sum sampler (relax factor 10), 1000
// samples per 20 s window.
constexpr char kSubsetSumSql[] =
    "SELECT tb, srcIP, destIP, UMAX(sum(len), ssthreshold()) FROM PKTS "
    "WHERE ssample(len, 1000, 2, 10, 0, 0) = TRUE "
    "GROUP BY time/20 as tb, srcIP, destIP, ts_ns "
    "HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE "
    "CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE "
    "CLEANING BY ssclean_with(sum(len)) = TRUE";

// Span names: <module>.<layer>, one per public call the traced run makes.
constexpr char kSpanRingPush[] = "stream.ring_push";
constexpr char kSpanRingPop[] = "stream.ring_pop";
constexpr char kSpanAppend[] = "tuple.append_packet";
constexpr char kSpanSelect[] = "query.select";
constexpr char kSpanAdmit[] = "core.admit";
constexpr char kSpanBoundary[] = "core.boundary";
constexpr char kSpanLowFinish[] = "query.finish";
constexpr char kSpanFinish[] = "core.finish";
constexpr char kSpanSerialize[] = "engine.checkpoint_serialize";
constexpr char kSpanWrite[] = "engine.checkpoint_write";
constexpr char kSpanRead[] = "stream.source_read";
constexpr char kSpanIdle[] = "stream.source_idle";
constexpr char kSpanOutput[] = "bench.output";

enum class Entry { kRun, kRunThreaded, kTcpReplay, kTcpPaced };

struct Spec {
  const char* name;
  Entry entry;
  const char* high_sql;
};

constexpr Spec kSpecs[] = {
    {"replay_agg", Entry::kRun, kAggSql},
    {"subsetsum_durable", Entry::kRunThreaded, kSubsetSumSql},
    {"tcp_replay", Entry::kTcpReplay, kAggSql},
    {"tcp_paced", Entry::kTcpPaced, kPacedAggSql},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  std::string trace_dir;  // non-empty: traced run
  std::string work_dir = "e2e_work";
  std::string out;
  std::string commit = "unknown";
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double PerUnit(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Per-window counts compare equal once both are padded with empty windows.
bool SameCounts(std::vector<uint64_t> a, std::vector<uint64_t> b) {
  const size_t n = std::max(a.size(), b.size());
  a.resize(n, 0);
  b.resize(n, 0);
  return a == b;
}

Trace MakeResearchTrace(uint64_t seed) {
  for (double duration = 200.0;; duration *= 2) {
    Trace t = TraceGenerator::MakeResearchFeed(duration, seed);
    if (t.size() >= kResearchRecords) {
      t.mutable_packets().resize(kResearchRecords);
      t.mutable_packets().shrink_to_fit();
      return t;
    }
  }
}

double PeakRssMb() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string HostJson(const Args& a) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %u, \"cpu\": \"%s\", \"build\": \"%s\", "
                "\"commit\": \"%s\", \"seed\": %llu}",
                std::thread::hardware_concurrency(),
                JsonEscape(CpuModel()).c_str(), STREAMOP_BENCH_BUILD_TYPE,
                JsonEscape(a.commit).c_str(),
                static_cast<unsigned long long>(a.seed));
  return buf;
}

// The TCP workloads' consumer side. A short reconnect backoff keeps a
// connect that races the producer's listen() from costing seconds.
SocketSourceConfig LoopbackSource(uint16_t port) {
  SocketSourceConfig cfg;
  cfg.mode = SocketSourceConfig::Mode::kTcp;
  cfg.port = port;
  cfg.read_timeout_ms = 50;
  cfg.backoff_initial_ms = 1;
  cfg.backoff_max_ms = 5;
  return cfg;
}

CompiledQuery MustCompile(const char* sql) {
  Result<CompiledQuery> q = CompileQuery(sql, Catalog::Default(), {.seed = 1});
  if (!q.ok()) {
    std::fprintf(stderr, "query does not compile: %s\n%s\n",
                 q.status().ToString().c_str(), sql);
    std::exit(2);
  }
  return *std::move(q);
}

// Folds output rows, in emission order, into a digest and per-window sums
// (rows are keyed by their window column tb). Grouped-aggregation rows
// carry count(*) and sum(len) in columns 2 and 3; subset-sum rows carry the
// weight-adjusted estimate of sum(len) in column 3.
struct OutputFold {
  bool aggregate = true;
  uint64_t digest = 0x243f6a8885a308d3ull;
  std::vector<uint64_t> packets;
  std::vector<uint64_t> bytes;
  std::vector<double> estimate;

  void Add(const std::vector<Tuple>& out) {
    for (const Tuple& t : out) {
      for (const Value& v : t.values()) digest = HashCombine(digest, v.Hash());
      const size_t tb = static_cast<size_t>(t[0].AsUInt());
      if (aggregate) {
        if (packets.size() <= tb) {
          packets.resize(tb + 1, 0);
          bytes.resize(tb + 1, 0);
        }
        packets[tb] += t[2].AsUInt();
        bytes[tb] += t[3].AsUInt();
      } else {
        if (estimate.size() <= tb) estimate.resize(tb + 1, 0.0);
        estimate[tb] += t[3].AsDouble();
      }
    }
  }
};

// A ResumableSource wrapper that sees the pipeline from the outside.
// RunSource calls Read() only once the previous batch is fully processed,
// so a window that appears in the high node's window_stats() at a Read()
// had its output ready at that moment. The wrapper also drains that output
// (so a paced session holds only one window of rows) and times the
// Read() calls, to split wall time into busy time and input wait.
class EmitProbe : public ResumableSource {
 public:
  struct Emit {
    uint64_t tb;
    uint64_t t_ns;
  };

  EmitProbe(ResumableSource* inner, QueryNode* high, OutputFold* fold)
      : inner_(inner), high_(high), fold_(fold) {}

  const char* kind() const override { return inner_->kind(); }
  uint64_t stream_id() const override { return inner_->stream_id(); }
  std::string describe() const override { return inner_->describe(); }
  Status Open() override { return inner_->Open(); }
  uint64_t durable_offset() const override { return inner_->durable_offset(); }
  Status SeekTo(uint64_t offset) override { return inner_->SeekTo(offset); }
  uint64_t offset_lag() const override { return inner_->offset_lag(); }
  const SourceIngestStats& stats() const override { return inner_->stats(); }
  Status last_status() const override { return inner_->last_status(); }

  ReadResult Read(PacketRecord* buf, size_t max, size_t* n_out) override {
    const uint64_t now = NowNanos();
    const std::vector<WindowStats>& ws = high_->window_stats();
    for (; seen_ < ws.size(); ++seen_) {
      emits_.push_back(Emit{ws[seen_].window_id[0].AsUInt(), now});
    }
    if (fold_ != nullptr) fold_->Add(high_->DrainOutput());
    const uint64_t r0 = NowNanos();
    const ReadResult rr = inner_->Read(buf, max, n_out);
    read_ns_ += NowNanos() - r0;
    return rr;
  }

  const std::vector<Emit>& emits() const { return emits_; }
  uint64_t read_ns() const { return read_ns_; }

 private:
  ResumableSource* inner_;
  QueryNode* high_;
  OutputFold* fold_;
  size_t seen_ = 0;
  std::vector<Emit> emits_;
  uint64_t read_ns_ = 0;
};

// Counts the traced loop gathers beside its spans.
struct TraceCounts {
  uint64_t records = 0;
  uint64_t low_in = 0;
  uint64_t low_out = 0;
  uint64_t low_out_cols = 0;
  uint64_t boundary_windows = 0;
  uint64_t checkpoints = 0;
  uint64_t checkpoint_bytes = 0;
  std::vector<double> offset_lag;
};

// One traced iteration, reduced to the per-layer numbers.
struct LayerSample {
  double wall_s = 0.0;
  double busy_s = 0.0;  // wall minus time blocked in the source
  uint64_t digest = 0;
  std::vector<Metric> metrics;
};

// One iteration (closed workloads) or one run (tcp_paced) of the product
// entry point.
struct Outcome {
  bool ok = false;
  double seconds = 0.0;
  double busy_s = 0.0;
  uint64_t records = 0;
  uint64_t digest = 0;
  RunReport report;
  SourceIngestStats net;
  std::vector<double> emit_ms;  // tcp_paced
  uint64_t windows = 0;         // tcp_paced: windows checked
  std::vector<double> late_ms;  // tcp_paced: generator lateness per frame
};

class Bench {
 public:
  Bench(const Spec& spec, Args args)
      : spec_(spec),
        args_(std::move(args)),
        work_(fs::path(args_.work_dir) / spec.name) {}

  int Run();

 private:
  bool durable() const { return spec_.entry == Entry::kRunThreaded; }
  bool traced() const { return !args_.trace_dir.empty(); }

  void Fail(bool wrong_output, const std::string& why) {
    ++failed_;
    if (wrong_output) correct_ = false;
    std::fprintf(stderr, "[%s] FAILED: %s\n", spec_.name, why.c_str());
  }

  void WipeWorkDirs() const {
    std::error_code ec;
    fs::remove_all(work_ / "ckpt", ec);
    fs::remove_all(work_ / "flight", ec);
    fs::remove_all(work_ / "trace_ckpt", ec);
  }

  RuntimeOptions Options(bool for_trace) const;
  std::unique_ptr<TwoLevelRuntime> Setup(bool for_trace);
  void CheckClosedOutput(const OutputFold& fold, const char* what);

  Outcome RunClosed(bool check = true);
  Outcome RunPaced(double seconds, LayerSample* traced);
  double MeasurePeakRss();
  LayerSample RunTracedClosed();

  // The traced loops: the runtime's loops, call for call, with spans.
  Status PushTraced(TwoLevelRuntime& rt, const TupleBatch& batch,
                    uint64_t batch_id, size_t* closed);
  Status FinishTraced(TwoLevelRuntime& rt, uint64_t batch_id);
  Status DriveTrace(TwoLevelRuntime& rt);
  Status DriveSource(TwoLevelRuntime& rt, ResumableSource& src,
                     OutputFold* fold);
  void InstallCheckpointHook(TwoLevelRuntime& rt, CheckpointManager* mgr);
  LayerSample ReduceTrace(TwoLevelRuntime& rt, uint64_t wall_ns,
                          uint64_t wait_ns);

  void Report(const std::vector<Metric>& metrics,
              const std::vector<Metric>& secondary) const;

  const Spec& spec_;
  Args args_;
  fs::path work_;
  Trace trace_;
  std::vector<uint64_t> truth_packets_;
  std::vector<uint64_t> truth_bytes_;
  uint64_t ref_digest_ = 0;
  std::vector<double> rel_err_;  // subset-sum, per window

  std::vector<double> setup_s_;
  std::vector<double> compile_ms_;
  std::vector<double> runtime_ms_;

  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;

  LayerTrace layers_;
  TupleBatch low_out_;
  TraceCounts counts_;
  obs::RingBufferMetrics ring_metrics_ =
      obs::RingBufferMetrics::Create(obs::MetricRegistry::Default());
};

RuntimeOptions Bench::Options(bool for_trace) const {
  RuntimeOptions o;
  if (durable()) {
    // The traced run installs its own checkpoint hook instead.
    if (!for_trace) {
      o.checkpoint.dir = (work_ / "ckpt").string();
      o.checkpoint.every_n_windows = 1;
    }
    o.flight.dir = (work_ / "flight").string();
  }
  return o;
}

std::unique_ptr<TwoLevelRuntime> Bench::Setup(bool for_trace) {
  const uint64_t t0 = NowNanos();
  const CompiledQuery low = MustCompile(kLowSql);
  const CompiledQuery high = MustCompile(spec_.high_sql);
  const uint64_t t1 = NowNanos();
  auto rt = std::make_unique<TwoLevelRuntime>(
      low, std::vector<CompiledQuery>{high}, Options(for_trace));
  const uint64_t t2 = NowNanos();
  setup_s_.push_back(static_cast<double>(t2 - t0) * 1e-9);
  compile_ms_.push_back(static_cast<double>(t1 - t0) * 1e-6);
  runtime_ms_.push_back(static_cast<double>(t2 - t1) * 1e-6);
  return rt;
}

// Closed workloads: grouped aggregation must match the trace exactly, and
// every output (subset-sum's too) must equal the reference run's, row for
// row.
void Bench::CheckClosedOutput(const OutputFold& fold, const char* what) {
  if (fold.aggregate && (!SameCounts(fold.packets, truth_packets_) ||
                         !SameCounts(fold.bytes, truth_bytes_))) {
    Fail(true, std::string(what) + ": per-window count/sum differ from the "
                                   "trace");
    return;
  }
  if (fold.digest != ref_digest_) {
    Fail(true, std::string(what) + ": output differs from the reference run");
  }
}

Outcome Bench::RunClosed(bool check) {
  Outcome o;
  WipeWorkDirs();
  std::unique_ptr<TwoLevelRuntime> rt = Setup(false);
  OutputFold fold;
  fold.aggregate = !durable();
  Result<RunReport> report = Status::OK();
  uint64_t t0 = 0;
  uint64_t t1 = 0;
  if (spec_.entry == Entry::kTcpReplay) {
    TraceSenderConfig scfg;
    scfg.records = trace_.packets();
    scfg.records_per_frame = 512;
    TraceSender sender(std::move(scfg));
    const Status bound = sender.BindTcp(0);
    if (!bound.ok()) {
      Fail(false, "sender bind: " + bound.ToString());
      return o;
    }
    Status served;
    std::thread producer([&] { served = sender.ServeTcp(); });
    SocketSource src(LoopbackSource(sender.tcp_port()));
    EmitProbe probe(&src, &rt->high_node(0), nullptr);
    t0 = NowNanos();
    report = rt->RunSource(probe);
    t1 = NowNanos();
    sender.RequestStop();
    producer.join();
    o.net = src.stats();
    o.busy_s = static_cast<double>(t1 - t0 - probe.read_ns()) * 1e-9;
    if (!served.ok()) {
      Fail(false, "sender: " + served.ToString());
      return o;
    }
    if (report.ok() && report->packets != trace_.size()) {
      Fail(true, "tcp_replay delivered " + std::to_string(report->packets) +
                     " of " + std::to_string(trace_.size()) + " records");
      return o;
    }
  } else {
    t0 = NowNanos();
    report = spec_.entry == Entry::kRun ? rt->Run(trace_)
                                        : rt->RunThreaded(trace_);
    t1 = NowNanos();
    o.busy_s = static_cast<double>(t1 - t0) * 1e-9;
  }
  if (!report.ok()) {
    Fail(false, "run: " + report.status().ToString());
    return o;
  }
  o.seconds = static_cast<double>(t1 - t0) * 1e-9;
  o.records = report->packets;
  o.report = *report;
  fold.Add(rt->high_node(0).DrainOutput());
  o.digest = fold.digest;
  if (check) CheckClosedOutput(fold, spec_.name);
  o.ok = true;
  return o;
}

// Peak memory of one setup plus one iteration (a 1 s run on tcp_paced),
// taken in a child forked before anything else has run. The process that
// measures for --seconds has run a varying number of iterations, threads
// and allocator arenas by its end; the child's figure depends on none of
// that. A forked child inherits its parent's high-water mark and the heap
// that input generation left behind, so the child first hands freed heap
// pages back (malloc_trim) and resets the mark (clear_refs "5"): what it
// reports is the input plus what the pipeline takes on top.
double Bench::MeasurePeakRss() {
  int fds[2];
  if (pipe(fds) != 0) return 0.0;
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return 0.0;
  }
  if (pid == 0) {
    close(fds[0]);
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
    if (spec_.entry == Entry::kTcpPaced) {
      (void)RunPaced(1.0, nullptr);
    } else {
      (void)RunClosed(false);
    }
    const double mb = PeakRssMb();
    const bool sent = write(fds[1], &mb, sizeof(mb)) == sizeof(mb);
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  double mb = 0.0;
  if (read(fds[0], &mb, sizeof(mb)) != sizeof(mb)) mb = 0.0;
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  return WIFEXITED(status) && WEXITSTATUS(status) == 0 ? mb : 0.0;
}

Status Bench::PushTraced(TwoLevelRuntime& rt, const TupleBatch& batch,
                         uint64_t batch_id, size_t* closed) {
  QueryNode& low = rt.low_node();
  QueryNode& high = rt.high_node(0);
  {
    auto span = layers_.Span(kSpanSelect, batch_id);
    STREAMOP_RETURN_NOT_OK(low.PushBatch(batch, 1.0, &low_out_));
  }
  counts_.low_in += batch.num_rows();
  counts_.low_out += low_out_.num_rows();
  counts_.low_out_cols = low_out_.num_cols();
  const size_t before = high.window_stats().size();
  obs::SpanContext sctx;
  sctx.rows = batch.num_rows();
  auto span = layers_.Span(kSpanAdmit, batch_id);
  STREAMOP_RETURN_NOT_OK(high.PushBatch(
      low_out_, 1.0, nullptr,
      obs::SpanRing::Default().enabled() ? &sctx : nullptr));
  *closed = high.window_stats().size() - before;
  if (*closed > 0) {
    span.Rename(kSpanBoundary);
    counts_.boundary_windows += *closed;
  }
  return Status::OK();
}

Status Bench::FinishTraced(TwoLevelRuntime& rt, uint64_t batch_id) {
  QueryNode& low = rt.low_node();
  QueryNode& high = rt.high_node(0);
  std::vector<Tuple> rows;
  {
    auto span = layers_.Span(kSpanLowFinish, batch_id);
    STREAMOP_RETURN_NOT_OK(low.Finish());
    rows = low.DrainOutput();
  }
  auto span = layers_.Span(kSpanFinish, batch_id);
  for (const Tuple& t : rows) STREAMOP_RETURN_NOT_OK(high.Push(t));
  return high.Finish();
}

// TwoLevelRuntime::Run, split at every layer call. RunThreaded feeds the
// nodes the same records in the same order (batch boundaries may differ,
// which the operator's batch == row-at-a-time contract makes invisible),
// so subsetsum_durable is traced single-threaded on this loop too.
Status Bench::DriveTrace(TwoLevelRuntime& rt) {
  RingBuffer<const PacketRecord*> ring(kRingCapacity);
  ring.AttachMetrics(&ring_metrics_);
  const std::vector<PacketRecord>& packets = trace_.packets();
  TupleBatch batch(rt.low_node().input_width(), kBatch);
  const PacketRecord* popped[kBatch];
  size_t produced = 0;
  uint64_t batch_id = 0;
  while (produced < packets.size()) {
    {
      auto span = layers_.Span(kSpanRingPush, batch_id);
      while (produced < packets.size() && ring.TryPush(&packets[produced])) {
        ++produced;
      }
    }
    while (!ring.empty()) {
      ++batch_id;
      size_t n = 0;
      {
        auto span = layers_.Span(kSpanRingPop, batch_id);
        while (n < kBatch && ring.TryPop(&popped[n])) ++n;
      }
      {
        auto span = layers_.Span(kSpanAppend, batch_id);
        batch.Clear();
        for (size_t i = 0; i < n; ++i) {
          if (popped[i]->len >= kMinPacketLen) batch.AppendPacket(*popped[i]);
        }
      }
      counts_.records += n;
      size_t closed = 0;
      STREAMOP_RETURN_NOT_OK(PushTraced(rt, batch, batch_id, &closed));
    }
  }
  return FinishTraced(rt, batch_id);
}

// TwoLevelRuntime::RunSource, split at every layer call. With `fold`, the
// output of each closed window is drained as it appears (tcp_paced).
Status Bench::DriveSource(TwoLevelRuntime& rt, ResumableSource& src,
                          OutputFold* fold) {
  STREAMOP_RETURN_NOT_OK(src.Open());
  std::vector<PacketRecord> records(kBatch);
  TupleBatch batch(rt.low_node().input_width(), kBatch);
  uint64_t batch_id = 0;
  for (;;) {
    ++batch_id;
    size_t n = 0;
    ResumableSource::ReadResult rr;
    {
      auto span = layers_.Span(kSpanRead, batch_id);
      rr = src.Read(records.data(), records.size(), &n);
      if (n == 0) span.Rename(kSpanIdle);
    }
    counts_.offset_lag.push_back(static_cast<double>(src.offset_lag()));
    size_t closed = 0;
    if (n > 0) {
      {
        auto span = layers_.Span(kSpanAppend, batch_id);
        batch.Clear();
        for (size_t i = 0; i < n; ++i) {
          if (records[i].len >= kMinPacketLen) batch.AppendPacket(records[i]);
        }
      }
      counts_.records += n;
      STREAMOP_RETURN_NOT_OK(PushTraced(rt, batch, batch_id, &closed));
    } else if (rr == ResumableSource::ReadResult::kIdle) {
      batch.Clear();  // heartbeat-empty batch, as RunSource sends
      STREAMOP_RETURN_NOT_OK(PushTraced(rt, batch, batch_id, &closed));
    }
    if (fold != nullptr && closed > 0) {
      auto span = layers_.Span(kSpanOutput, batch_id);
      fold->Add(rt.high_node(0).DrainOutput());
    }
    if (rr == ResumableSource::ReadResult::kEnd) {
      STREAMOP_RETURN_NOT_OK(src.last_status());
      break;
    }
  }
  return FinishTraced(rt, batch_id);
}

// The runtime's checkpoint flush hook, minus the load-shed and exemplar
// sections (so traced checkpoints are a little smaller than the product's).
void Bench::InstallCheckpointHook(TwoLevelRuntime& rt,
                                  CheckpointManager* mgr) {
  SamplingOperator* op = rt.high_node(0).sampling_operator();
  op->set_window_flush_hook([this, op, mgr](uint64_t windows_flushed) {
    if (!mgr->ShouldWrite(windows_flushed)) return;
    ByteWriter w;
    {
      auto span = layers_.Span(kSpanSerialize, windows_flushed);
      op->SerializeDurableState(w);
    }
    {
      auto span = layers_.Span(kSpanWrite, windows_flushed);
      mgr->Write(windows_flushed, w.data());
    }
    ++counts_.checkpoints;
    counts_.checkpoint_bytes += w.data().size();
  });
}

LayerSample Bench::ReduceTrace(TwoLevelRuntime& rt, uint64_t wall_ns,
                               uint64_t wait_ns) {
  LayerSample s;
  s.wall_s = static_cast<double>(wall_ns) * 1e-9;
  s.busy_s = static_cast<double>(wall_ns - std::min(wall_ns, wait_ns)) * 1e-9;
  const double recs = static_cast<double>(counts_.records);
  auto self = [&](const char* n) {
    return static_cast<double>(layers_.Get(n).self_ns);
  };
  auto total = [&](const char* n) {
    return static_cast<double>(layers_.Get(n).total_ns);
  };
  const double ckpts = static_cast<double>(counts_.checkpoints);

  uint64_t tuples_in = 0, admitted = 0, created = 0, removed = 0;
  uint64_t phases = 0, samples = 0, peak = 0;
  const std::vector<WindowStats>& ws = rt.high_node(0).window_stats();
  for (const WindowStats& w : ws) {
    tuples_in += w.tuples_in;
    admitted += w.tuples_admitted;
    created += w.groups_created;
    removed += w.groups_removed;
    phases += w.cleaning_phases;
    samples += w.groups_output;
    peak = std::max(peak, w.peak_groups);
  }
  const double windows = static_cast<double>(ws.size());

  s.metrics = {
      {"tuple.packet_to_tuple_ns_per_rec", PerUnit(self(kSpanAppend), recs),
       "ns/rec"},
      {"stream.ring_ns_per_rec",
       PerUnit(self(kSpanRingPush) + self(kSpanRingPop), recs), "ns/rec"},
      {"query.select_ns_per_rec", PerUnit(self(kSpanSelect), recs), "ns/rec"},
      {"query.select_ratio",
       PerUnit(static_cast<double>(counts_.low_out),
               static_cast<double>(counts_.low_in)),
       "fraction"},
      {"engine.handoff_bytes_per_rec",
       PerUnit(static_cast<double>(counts_.low_out * counts_.low_out_cols) *
                   9.0,
               recs),
       "B/rec"},
      {"core.admit_ns_per_rec", PerUnit(self(kSpanAdmit), recs), "ns/rec"},
      {"core.admit_ratio",
       PerUnit(static_cast<double>(admitted), static_cast<double>(tuples_in)),
       "fraction"},
      {"core.boundary_ms_per_window",
       PerUnit(self(kSpanBoundary),
               static_cast<double>(counts_.boundary_windows)) *
           1e-6,
       "ms"},
      {"core.finish_ms", (total(kSpanFinish) + total(kSpanLowFinish)) * 1e-6,
       "ms"},
      {"engine.checkpoint_serialize_ms_per_window",
       PerUnit(total(kSpanSerialize), ckpts) * 1e-6, "ms"},
      {"engine.checkpoint_write_ms_per_window",
       PerUnit(total(kSpanWrite), ckpts) * 1e-6, "ms"},
      {"engine.checkpoint_bytes",
       PerUnit(static_cast<double>(counts_.checkpoint_bytes), ckpts), "B"},
      {"stream.source_read_ns_per_rec", PerUnit(total(kSpanRead), recs),
       "ns/rec"},
      {"stream.source_wait_s", total(kSpanIdle) * 1e-9, "s"},
      {"stream.offset_lag_p99_recs", Quantile(counts_.offset_lag, 0.99),
       "count"},
      {"core.cleaning_phases_per_window",
       PerUnit(static_cast<double>(phases), windows), "count"},
      {"core.samples_per_window",
       PerUnit(static_cast<double>(samples), windows), "count"},
      {"core.kept_ratio",
       created > 0 ? 1.0 - static_cast<double>(removed) /
                               static_cast<double>(created)
                   : 0.0,
       "fraction"},
      {"core.peak_groups", static_cast<double>(peak), "count"},
      {"engine.unattributed_frac",
       PerUnit(static_cast<double>(wall_ns) -
                   static_cast<double>(layers_.root_ns()),
               static_cast<double>(wall_ns)),
       "fraction"},
  };
  return s;
}

LayerSample Bench::RunTracedClosed() {
  WipeWorkDirs();
  layers_.Reset();
  counts_ = TraceCounts();
  std::unique_ptr<TwoLevelRuntime> rt = Setup(true);
  std::unique_ptr<CheckpointManager> mgr;
  if (durable()) {
    CheckpointConfig cc;
    cc.dir = (work_ / "trace_ckpt").string();
    cc.every_n_windows = 1;
    cc.node = "high0";
    mgr = std::make_unique<CheckpointManager>(cc);
    InstallCheckpointHook(*rt, mgr.get());
  }
  Status st;
  uint64_t t0 = 0;
  uint64_t t1 = 0;
  if (spec_.entry == Entry::kTcpReplay) {
    TraceSenderConfig scfg;
    scfg.records = trace_.packets();
    scfg.records_per_frame = 512;
    TraceSender sender(std::move(scfg));
    st = sender.BindTcp(0);
    if (st.ok()) {
      std::thread producer([&] { (void)sender.ServeTcp(); });
      SocketSource src(LoopbackSource(sender.tcp_port()));
      t0 = NowNanos();
      st = DriveSource(*rt, src, nullptr);
      t1 = NowNanos();
      sender.RequestStop();
      producer.join();
    }
  } else {
    t0 = NowNanos();
    st = DriveTrace(*rt);
    t1 = NowNanos();
  }
  LayerSample s;
  if (!st.ok()) {
    Fail(false, "traced run: " + st.ToString());
    return s;
  }
  const uint64_t wait_ns =
      layers_.Get(kSpanRead).total_ns + layers_.Get(kSpanIdle).total_ns;
  s = ReduceTrace(*rt, t1 - t0, spec_.entry == Entry::kTcpReplay ? wait_ns : 0);
  OutputFold fold;
  fold.aggregate = !durable();
  fold.Add(rt->high_node(0).DrainOutput());
  s.digest = fold.digest;
  CheckClosedOutput(fold, "traced run");
  return s;
}

// tcp_paced: one open-loop session. The sender keeps its schedule; the probe
// (or, on a traced run, the traced loop) drains each window's output as it
// appears. Every window's count(*) and sum(len) are checked against the
// schedule's records, and each window emitted during the stream gets a
// latency sample: emit time minus the due time of its last record.
Outcome Bench::RunPaced(double seconds, LayerSample* traced) {
  Outcome o;
  const uint64_t total =
      static_cast<uint64_t>(std::llround(kPacedRecordsPerSec * seconds));
  PacedSenderConfig pcfg;
  pcfg.lap = &trace_.packets();
  // Laps shift by whole seconds, so no 1 s window straddles two laps.
  pcfg.lap_ns = (trace_.packets().back().ts_sec() + 1) * 1000000000ull;
  pcfg.total_records = total;
  pcfg.records_per_sec = kPacedRecordsPerSec;
  pcfg.records_per_frame = 512;
  PacedSender sender(pcfg);
  Status st = sender.Bind();
  if (!st.ok()) {
    Fail(false, "paced sender: " + st.ToString());
    return o;
  }
  std::unique_ptr<TwoLevelRuntime> rt = Setup(traced != nullptr);
  Status served;
  std::thread producer([&] { served = sender.Serve(); });
  SocketSource src(LoopbackSource(sender.port()));
  OutputFold fold;
  std::vector<EmitProbe::Emit> emits;
  uint64_t t0 = 0;
  uint64_t t1 = 0;
  uint64_t read_ns = 0;
  if (traced == nullptr) {
    EmitProbe probe(&src, &rt->high_node(0), &fold);
    t0 = NowNanos();
    Result<RunReport> report = rt->RunSource(probe);
    t1 = NowNanos();
    st = report.status();
    emits = probe.emits();
    read_ns = probe.read_ns();
    if (report.ok()) o.report = *report;
  } else {
    layers_.Reset();
    counts_ = TraceCounts();
    t0 = NowNanos();
    st = DriveSource(*rt, src, &fold);
    t1 = NowNanos();
    read_ns = layers_.Get(kSpanRead).total_ns + layers_.Get(kSpanIdle).total_ns;
  }
  sender.RequestStop();
  producer.join();
  if (!st.ok() || !served.ok()) {
    Fail(false, "paced session: " + (st.ok() ? served : st).ToString());
    return o;
  }
  fold.Add(rt->high_node(0).DrainOutput());
  o.net = src.stats();
  o.records = src.stats().records;
  o.seconds = static_cast<double>(t1 - t0) * 1e-9;
  o.busy_s = static_cast<double>(t1 - t0 - std::min(t1 - t0, read_ns)) * 1e-9;
  o.digest = fold.digest;
  for (const uint64_t ns : sender.frame_lateness_ns()) {
    o.late_ms.push_back(static_cast<double>(ns) * 1e-6);
  }
  if (traced != nullptr) {
    *traced = ReduceTrace(*rt, t1 - t0, read_ns);
    traced->digest = fold.digest;
  }

  // Ground truth of the schedule, window by window (tb = whole seconds).
  std::vector<uint64_t> packets;
  std::vector<uint64_t> bytes;
  std::vector<uint64_t> last_index;
  for (uint64_t i = 0; i < total; ++i) {
    const PacketRecord p = sender.RecordAt(i);
    const size_t tb = static_cast<size_t>(p.ts_sec());
    if (packets.size() <= tb) {
      packets.resize(tb + 1, 0);
      bytes.resize(tb + 1, 0);
      last_index.resize(tb + 1, 0);
    }
    ++packets[tb];
    bytes[tb] += p.len;
    last_index[tb] = i;
  }
  fold.packets.resize(std::max(fold.packets.size(), packets.size()), 0);
  fold.bytes.resize(fold.packets.size(), 0);
  packets.resize(fold.packets.size(), 0);
  bytes.resize(fold.packets.size(), 0);
  std::vector<double> latency(packets.size(), -1.0);
  for (const EmitProbe::Emit& e : emits) {
    if (e.tb < latency.size() && packets[e.tb] > 0) {
      const uint64_t due = sender.DueNs(last_index[e.tb]);
      latency[e.tb] = static_cast<double>(e.t_ns - std::min(e.t_ns, due)) *
                      1e-6;
    }
  }
  for (size_t tb = 0; tb < packets.size(); ++tb) {
    if (packets[tb] == 0 && fold.packets[tb] == 0) continue;
    ++o.windows;
    if (fold.packets[tb] != packets[tb] || fold.bytes[tb] != bytes[tb]) {
      Fail(true, "paced window " + std::to_string(tb) +
                     ": count/sum differ from the schedule");
    }
    if (latency[tb] >= 0.0) o.emit_ms.push_back(latency[tb]);
  }
  // A backlog that grows shows as emit latency climbing through the
  // session; a stall of the host delays a few windows and is gone. So the
  // last quarter's median latency is held against the first quarter's,
  // and when the backlog grew, every window of the last quarter failed.
  const size_t quarter = o.emit_ms.size() / 4;
  if (quarter > 0) {
    const std::vector<double> first(o.emit_ms.begin(),
                                    o.emit_ms.begin() + quarter);
    const std::vector<double> last(o.emit_ms.end() - quarter,
                                   o.emit_ms.end());
    const double growth = Median(last) - Median(first);
    if (growth > kBacklogGrowthMs) {
      for (size_t i = 0; i < quarter; ++i) {
        Fail(false, "backlog grew: emit latency up " +
                        std::to_string(growth) + " ms over the session");
      }
    }
  }
  o.ok = true;
  return o;
}

void Bench::Report(const std::vector<Metric>& metrics,
                   const std::vector<Metric>& secondary) const {
  for (const std::vector<Metric>* list : {&metrics, &secondary}) {
    for (const Metric& m : *list) {
      std::printf("%s %s %.17g %s\n", spec_.name, m.name.c_str(), m.value,
                  m.unit);
    }
  }
  std::string json = "{\"correct\": ";
  json += correct_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_) +
          ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                  metrics[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Bench::Run() {
  if (std::strcmp(STREAMOP_BENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "streamop_bench: refusing a %s build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 STREAMOP_BENCH_BUILD_TYPE);
    return 2;
  }
  std::printf("# %s host %s\n", spec_.name, HostJson(args_).c_str());
  std::error_code ec;
  fs::create_directories(work_, ec);
  if (durable()) {
    // A monitored deployment: every telemetry ring on.
    obs::TraceRing::Default().set_enabled(true);
    obs::QualityRing::Default().set_enabled(true);
    obs::SpanRing::Default().set_enabled(true);
    obs::ExemplarStore::Default().set_enabled(true);
  }

  // Input, from the seed alone.
  const uint64_t window_sec = durable() ? 20 : 5;
  trace_ = durable() ? MakeResearchTrace(args_.seed)
                     : TraceGenerator::MakeDataCenterFeed(20.0, args_.seed);
  truth_packets_ = trace_.PacketsPerWindow(window_sec);
  truth_bytes_ = trace_.BytesPerWindow(window_sec);

  const double peak_rss_mb = traced() ? 0.0 : MeasurePeakRss();
  if (!traced() && peak_rss_mb <= 0.0) {
    Fail(false, "the peak-memory child process failed");
  }

  // Reference output: the plain in-process Run of the same queries.
  if (spec_.entry != Entry::kTcpPaced) {
    std::unique_ptr<TwoLevelRuntime> ref = std::make_unique<TwoLevelRuntime>(
        MustCompile(kLowSql),
        std::vector<CompiledQuery>{MustCompile(spec_.high_sql)});
    Result<RunReport> r = ref->Run(trace_);
    if (!r.ok()) {
      std::fprintf(stderr, "reference run failed: %s\n",
                   r.status().ToString().c_str());
      return 1;
    }
    OutputFold fold;
    fold.aggregate = !durable();
    fold.Add(ref->high_node(0).DrainOutput());
    ref_digest_ = fold.digest;
    if (fold.aggregate) CheckClosedOutput(fold, "reference run");
    // Subset-sum accuracy: the estimated per-window sum(len) against the
    // exact one. Deterministic for a seed.
    for (size_t w = 0; w < truth_bytes_.size() && !fold.aggregate; ++w) {
      if (truth_bytes_[w] == 0) continue;
      const double est = w < fold.estimate.size() ? fold.estimate[w] : 0.0;
      const double truth = static_cast<double>(truth_bytes_[w]);
      rel_err_.push_back(std::fabs(est - truth) / truth);
    }
  }

  std::vector<double> tps, emit_ms, busy_untraced;
  std::vector<Outcome> outcomes;
  std::vector<LayerSample> samples;  // traced iterations
  const uint64_t budget_ns = static_cast<uint64_t>(args_.seconds * 1e9);
  const bool paced = spec_.entry == Entry::kTcpPaced;
  const double session_s = std::min(kPacedSessionSeconds, args_.seconds);

  // Warm-up: timing discarded, output still checked. Only setups timed
  // after it count: before it, setup still pays first-touch costs (page
  // faults, cold allocator) that no later setup pays.
  if (paced) {
    const Outcome warm = RunPaced(std::min(1.0, args_.seconds), nullptr);
    attempted_ += std::max<uint64_t>(warm.windows, 1);
  } else {
    ++attempted_;
    (void)RunClosed();
  }
  setup_s_.clear();
  compile_ms_.clear();
  runtime_ms_.clear();

  // Iterations back to back, each with a fresh runtime: a closed-loop pass
  // over the trace, or a paced session. At least one untraced and (traced
  // runs) one traced iteration.
  const uint64_t start = NowNanos();
  bool traced_turn = false;
  for (uint64_t iter = 0;
       iter < (traced() ? 2u : 1u) || NowNanos() - start < budget_ns;
       ++iter) {
    if (traced_turn) {
      LayerSample s;
      if (paced) {
        const Outcome t = RunPaced(session_s, &s);
        attempted_ += std::max<uint64_t>(t.windows, 1);
        if (t.ok && !outcomes.empty() && t.digest != outcomes[0].digest) {
          Fail(true, "traced output differs from the untraced run");
        }
      } else {
        ++attempted_;
        s = RunTracedClosed();
      }
      if (s.wall_s > 0.0) samples.push_back(s);
    } else {
      const Outcome o = paced ? RunPaced(session_s, nullptr) : RunClosed();
      attempted_ += std::max<uint64_t>(o.windows, 1);
      if (o.ok) {
        tps.push_back(static_cast<double>(o.records) / o.seconds);
        if (paced) {
          emit_ms.insert(emit_ms.end(), o.emit_ms.begin(), o.emit_ms.end());
        } else {
          emit_ms.push_back(o.seconds * 1e3);
        }
        busy_untraced.push_back(o.busy_s);
        outcomes.push_back(o);
      }
    }
    if (traced()) traced_turn = !traced_turn;
  }

  // `metrics` go into the JSON result; `secondary` only onto metric lines
  // (compare.py reads both). Throughput and the emit latencies are
  // secondary: on a shared host they drift with the load of other tenants
  // by more than any usable regression bound (README.md, "Bounds").
  std::vector<Metric> metrics;
  std::vector<Metric> secondary = {
      {"failed_frac",
       PerUnit(static_cast<double>(failed_), static_cast<double>(attempted_)),
       "fraction"}};
  if (!traced()) {
    metrics = {
        {"setup_s", Median(setup_s_), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
    secondary.push_back({"throughput_tps", Median(tps), "rec/s"});
    secondary.push_back({"emit_p50_ms", Quantile(emit_ms, 0.50), "ms"});
    secondary.push_back({"emit_p95_ms", Quantile(emit_ms, 0.95), "ms"});
  } else if (!samples.empty()) {
    // Medians over traced iterations, metric by metric.
    for (size_t m = 0; m < samples.front().metrics.size(); ++m) {
      std::vector<double> v;
      for (const LayerSample& s : samples) v.push_back(s.metrics[m].value);
      metrics.push_back(
          {samples.front().metrics[m].name, Median(v),
           samples.front().metrics[m].unit});
    }
    std::vector<double> busy_traced;
    for (const LayerSample& s : samples) busy_traced.push_back(s.busy_s);
    const double overhead =
        PerUnit(Median(busy_traced), Median(busy_untraced)) - 1.0;
    std::vector<double> ring_fail, ring_hwm, backoff, ckpt_fail;
    for (const Outcome& o : outcomes) {
      ring_fail.push_back(static_cast<double>(o.report.ring_push_failures));
      ring_hwm.push_back(static_cast<double>(o.report.ring_occupancy_hwm));
      backoff.push_back(o.report.producer_backoff_seconds);
      ckpt_fail.push_back(static_cast<double>(o.report.checkpoint_failures));
    }
    const SourceIngestStats net =
        outcomes.empty() ? SourceIngestStats() : outcomes.back().net;
    std::vector<double> late;
    for (const Outcome& o : outcomes) {
      late.insert(late.end(), o.late_ms.begin(), o.late_ms.end());
    }
    double err_sum = 0.0;
    for (const double e : rel_err_) err_sum += e;
    const std::vector<Metric> more = {
        {"net.frames", static_cast<double>(net.frames), "count"},
        {"net.malformed_frames", static_cast<double>(net.malformed_frames),
         "count"},
        {"net.gap_records", static_cast<double>(net.gap_records), "count"},
        {"net.reconnects", static_cast<double>(net.reconnects), "count"},
        {"stream.ring_push_failures", Median(ring_fail), "count"},
        {"stream.ring_occupancy_hwm", Median(ring_hwm), "count"},
        {"engine.producer_backoff_s", Median(backoff), "s"},
        {"engine.checkpoint_failures", Median(ckpt_fail), "count"},
        {"core.sum_rel_err_mean",
         PerUnit(err_sum, static_cast<double>(rel_err_.size())), "fraction"},
        {"core.sum_rel_err_max",
         rel_err_.empty()
             ? 0.0
             : *std::max_element(rel_err_.begin(), rel_err_.end()),
         "fraction"},
        {"engine.setup_compile_ms", Median(compile_ms_), "ms"},
        {"engine.setup_runtime_ms", Median(runtime_ms_), "ms"},
        {"bench.trace_overhead_frac", overhead, "fraction"},
        {"bench.gen_late_p99_ms", Quantile(late, 0.99), "ms"},
    };
    metrics.insert(metrics.end(), more.begin(), more.end());

    fs::create_directories(args_.trace_dir, ec);
    const fs::path dir(args_.trace_dir);
    std::ofstream(dir / (std::string(spec_.name) + ".trace.json"))
        << layers_.ChromeJson();
    std::ofstream(dir / (std::string(spec_.name) + ".layers.txt"))
        << layers_.SelfTimeTable(static_cast<uint64_t>(
               samples.back().wall_s * 1e9));
  }
  fs::remove_all(work_, ec);
  Report(metrics, secondary);
  return 0;
}

// --workload all: one child process per workload; the children's result
// lines are merged into --out.
int RunAll(const Args& args) {
  std::string merged = "{\"host\": " + HostJson(args) + ", \"results\": {";
  int rc = 0;
  for (size_t i = 0; i < std::size(kSpecs); ++i) {
    int fds[2];
    if (pipe(fds) != 0) return 1;
    std::fflush(stdout);
    const pid_t pid = fork();
    if (pid < 0) {
      close(fds[0]);
      close(fds[1]);
      return 1;
    }
    if (pid == 0) {
      close(fds[0]);
      dup2(fds[1], STDOUT_FILENO);
      close(fds[1]);
      Args child = args;
      child.workload = kSpecs[i].name;
      child.out.clear();
      const int code = Bench(kSpecs[i], child).Run();
      std::fflush(stdout);
      _exit(code);
    }
    close(fds[1]);
    std::string text;
    char buf[4096];
    ssize_t n;
    while ((n = read(fds[0], buf, sizeof(buf))) > 0) {
      text.append(buf, static_cast<size_t>(n));
      fwrite(buf, 1, static_cast<size_t>(n), stdout);
    }
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) rc = 1;
    while (!text.empty() && text.back() == '\n') text.pop_back();
    const size_t nl = text.rfind('\n');
    const std::string last =
        nl == std::string::npos ? text : text.substr(nl + 1);
    merged += std::string(i == 0 ? "" : ", ") + "\"" + kSpecs[i].name +
              "\": " + (last.rfind('{', 0) == 0 ? last : "null");
  }
  merged += "}}\n";
  if (!args.out.empty()) std::ofstream(args.out) << merged;
  return rc;
}

int Usage() {
  std::fprintf(stderr,
               "usage: streamop_bench --workload "
               "replay_agg|subsetsum_durable|tcp_replay|tcp_paced|all "
               "--seed N [--seconds S] [--trace-dir DIR] [--work-dir DIR] "
               "[--out FILE] [--commit SHA]\n");
  return 2;
}

}  // namespace
}  // namespace e2e
}  // namespace streamop

int main(int argc, char** argv) {
  using streamop::e2e::Args;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return streamop::e2e::Usage();
    const std::string val = argv[++i];
    if (flag == "--workload") {
      args.workload = val;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(val.c_str());
    } else if (flag == "--trace-dir") {
      args.trace_dir = val;
    } else if (flag == "--work-dir") {
      args.work_dir = val;
    } else if (flag == "--out") {
      args.out = val;
    } else if (flag == "--commit") {
      args.commit = val;
    } else {
      return streamop::e2e::Usage();
    }
  }
  if (!(args.seconds > 0.0)) return streamop::e2e::Usage();
  if (args.workload == "all") return streamop::e2e::RunAll(args);
  for (const streamop::e2e::Spec& spec : streamop::e2e::kSpecs) {
    if (args.workload == spec.name) {
      return streamop::e2e::Bench(spec, args).Run();
    }
  }
  return streamop::e2e::Usage();
}
