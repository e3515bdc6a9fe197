// TwoLevelRuntime: the Gigascope execution architecture (§3, Fig. 1).
//
// Packets flow   source -> low-level node -> high-level nodes, one batch at
// a time, through one drive loop whatever the source: an in-memory trace
// (stream/trace_source.h), a pcap file or a socket. RunThreaded adds the
// paper's ring buffer between a producer thread and that loop. The
// low-level node is a selection (or pre-sampling selection) query; its
// output tuples are the only per-packet copies, which is why a selective
// low-level query slashes total cost (Fig. 6). The runtime stopwatches each
// node and reports %CPU relative to the stream's real-time duration — the
// paper's metric of "fraction of one CPU consumed at line rate".

#ifndef STREAMOP_ENGINE_RUNTIME_H_
#define STREAMOP_ENGINE_RUNTIME_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/checkpoint.h"
#include "engine/load_shed.h"
#include "engine/query_node.h"
#include "net/trace_generator.h"
#include "obs/http_server.h"
#include "obs/metrics.h"
#include "query/analyzer.h"
#include "stream/resumable_source.h"

namespace streamop {

/// Per-node outcome of a run.
struct NodeReport {
  std::string name;
  uint64_t tuples_in = 0;
  uint64_t tuples_out = 0;
  double cpu_seconds = 0.0;
  double cpu_percent = 0.0;  // 100 * cpu_seconds / stream_seconds
};

/// Ingest outcome of the source a run read (stream/resumable_source.h).
struct SourceReport {
  std::string source;              // ResumableSource::describe()
  bool resumed_from_offset = false;  // seeked to a restored snapshot's offset
  bool clean_end = false;            // EOF/FIN, not an ingest failure
  uint64_t durable_offset = 0;       // final resumable offset
  uint64_t offset_lag = 0;           // producer head - consumed, at exit
  std::string error;                 // last_status() message when not ok
  SourceIngestStats stats;
};

struct RunReport {
  double stream_seconds = 0.0;    // timestamp span of the records read
  double pipeline_seconds = 0.0;  // end-to-end wall time of the run
  uint64_t packets = 0;           // records the source delivered this run

  // Ring-buffer overload accounting (RunThreaded; zero for the other runs,
  // which have no ring). A full ring makes the producer either retry
  // (default: yield until space, deterministic) or drop the packet
  // (drop_on_overload — Gigascope's behaviour). Either way the overload is
  // visible instead of silent. All four count this run only.
  uint64_t ring_push_failures = 0;   // TryPush calls that found the ring full
  uint64_t ring_producer_retries = 0;  // producer yield-and-retry rounds
  uint64_t packets_dropped = 0;        // only with drop_on_overload
  uint64_t ring_occupancy_hwm = 0;     // high-water mark of ring occupancy

  // Producer backoff ladder (RunThreaded): after a burst of yields the
  // producer sleeps with exponentially growing intervals instead of
  // spinning; total sleep time quantifies how long the pipeline ran
  // producer-bound.
  uint64_t producer_backoff_sleeps = 0;
  double producer_backoff_seconds = 0.0;

  // Degradation summary (RunThreaded). With shedding enabled, `tuples_shed`
  // of `tuples_offered` packets were dropped at the consumer's Bernoulli
  // gate and the survivors reweighted by 1/p; shed_p_min/max bracket the
  // admission probability over the run.
  bool shedding_enabled = false;
  uint64_t tuples_offered = 0;
  uint64_t tuples_shed = 0;
  double shed_fraction = 0.0;
  double shed_p_min = 1.0;
  double shed_p_max = 1.0;

  uint64_t late_tuples = 0;        // clamped non-monotonic arrivals (nodes)
  uint64_t packets_malformed = 0;  // len below the 20-byte IP header minimum
  bool watchdog_fired = false;     // run terminated by the stall watchdog

  // Durability summary (engine/checkpoint.h). `recovered` is set when the
  // runtime restored a snapshot at construction; `recovered_windows` is the
  // flush count of the newest snapshot restored. `checkpoint_degraded`
  // means the last write attempt exhausted its retries (ingest continued
  // without durability).
  bool recovered = false;
  uint64_t recovered_windows = 0;
  bool checkpoint_degraded = false;
  uint64_t checkpoints_written = 0;
  uint64_t checkpoint_failures = 0;
  uint64_t checkpoint_corrupt_skipped = 0;

  // The source this run read: one entry (a trace run reports its trace).
  std::vector<SourceReport> sources;

  NodeReport low;
  std::vector<NodeReport> high;
};

/// Runtime tuning knobs.
struct RuntimeOptions {
  /// RunThreaded's ring between its producer thread and the nodes.
  size_t ring_capacity = 1 << 16;
  /// Records per source read, i.e. per batch through the nodes.
  size_t batch_size = 512;
  /// RunThreaded only: drop packets when the ring is full instead of
  /// spinning the producer (the paper's Gigascope drops under overload).
  /// Off by default — dropping makes results depend on thread timing.
  bool drop_on_overload = false;
  /// Registry backing all runtime/node/operator metrics; nullptr uses the
  /// process-wide default registry.
  obs::MetricRegistry* registry = nullptr;

  /// Adaptive load shedding (RunThreaded only): when enabled, the consumer
  /// pre-samples packets with the AIMD-controlled probability p and tags
  /// admitted tuples with weight 1/p (see engine/load_shed.h).
  LoadShedConfig shed;

  /// Stall watchdog (RunThreaded): if neither thread makes progress for
  /// this long, the run aborts with Status::ResourceExhausted instead of
  /// hanging. 0 disables the watchdog.
  uint64_t stall_timeout_ms = 10000;

  /// Test hook (RunThreaded): invoked by the consumer before each batch
  /// read from the ring, with the batch index and the runtime's abort flag.
  /// Fault-injection tests install cooperative stalls here
  /// (stream/fault_injection.h); the hook MUST return promptly once the
  /// abort flag is set.
  std::function<void(uint64_t, const std::atomic<bool>&)> consumer_stall_hook;

  /// Durable snapshots (engine/checkpoint.h): with a non-empty dir, each
  /// time a sampling node's flush count reaches a multiple of
  /// `checkpoint.every_n_windows`, every sampling node writes a versioned
  /// CRC-guarded snapshot of its durable state (plus the load-shed
  /// controller and exemplar reservoirs) at the next batch boundary, bound
  /// to the source's (kind, stream id, offset). The runtime restores the
  /// newest valid snapshot at construction and the first run seeks its
  /// source to the snapshot's offset — a killed process resumes at the
  /// last snapshot. The `node` field is overwritten per node.
  CheckpointConfig checkpoint;

  /// Stop after this many delivered records (0 = run until the source
  /// ends). Lets a live socket run have a bounded footprint.
  uint64_t source_max_records = 0;

  /// End the run cleanly after this much *consecutive* idle time (no
  /// records, only heartbeat reads — which only sockets return). 0 = wait
  /// forever. Distinct from the per-read timeout
  /// (SocketSourceConfig::read_timeout_ms), which only bounds one Read().
  uint64_t source_max_idle_ms = 0;

  /// Embedded introspection server (obs/http_server.h): -1 disables it,
  /// 0 binds an ephemeral port (read back via http_server()->port()), any
  /// other value binds that port on loopback. The server starts with the
  /// runtime, serves /metrics, /metrics.json, /traces, /windows and
  /// /healthz while runs execute, and stops with the runtime's destructor.
  int http_port = -1;

  /// Metrics time-series ring + sampler thread (obs/timeseries.h). The
  /// runtime-level default zeroes interval_ms — no ring, no sampler, no
  /// alert engine — so existing embedders pay nothing. Any positive
  /// interval (or a non-empty flight dir below) brings up the whole
  /// stack: ring, alert engine with the built-in SLO rules, sampler
  /// thread, and the /timeseries, /alerts and /dashboard endpoints.
  obs::TimeSeriesOptions timeseries{.interval_ms = 0};

  /// Extra alert rules (the --alert-rules file contents, one rule per
  /// line — syntax in obs/alerts.h). Installed after the built-ins; parse
  /// errors are reported on stderr and via alerts_status().
  std::string alert_rules;

  /// Accuracy-SLO target for the built-in quality CI-width rule
  /// (obs/alerts.h AlertEngine::Options). <= 0 disables that rule.
  double quality_ci_target = 0.0;

  /// Flight recorder (obs/flight_recorder.h): with a non-empty dir the
  /// sampler spills the telemetry tail there on cadence and at every
  /// checkpoint write, and the runtime loads any pre-crash segment at
  /// construction, printing the forensic report to stderr and serving it
  /// on /forensics. A non-empty dir implies the time-series stack even if
  /// timeseries.interval_ms was left 0 (it then runs at 250ms).
  obs::FlightRecorderOptions flight;
};

/// One low-level query feeding any number of high-level queries.
class TwoLevelRuntime {
 public:
  using Options = RuntimeOptions;

  /// `low` must be a selection query over the packet schema; each entry of
  /// `high` consumes the low node's output schema (which, for the bundled
  /// benchmarks, re-exposes the packet columns).
  TwoLevelRuntime(const CompiledQuery& low,
                  const std::vector<CompiledQuery>& high,
                  RuntimeOptions options = RuntimeOptions());

  /// Replays the trace through the pipeline on the calling thread:
  /// RunSource() over a TraceSource of `trace`. High-level node outputs
  /// are retained and can be drained from the nodes afterwards.
  Result<RunReport> Run(const Trace& trace);

  /// Like Run(), but with true pipeline parallelism, the way Gigascope
  /// deploys its query nodes: a producer thread pushes pointers into the
  /// trace through the ring buffer, and the calling thread reads the ring
  /// through the same loop as Run(). Results are identical to Run() (the
  /// pipeline is deterministic); only the wall-clock overlap differs. Its
  /// snapshots carry the consumer's trace offset, so they resume under
  /// Run() too and vice versa. RunThreaded alone adds load shedding, the
  /// stall watchdog and the consumer stall hook.
  Result<RunReport> RunThreaded(const Trace& trace);

  /// Feeds the pipeline from `source` (a pcap file, a socket or a
  /// TraceSource — stream/resumable_source.h) through the one drive loop:
  /// read a batch, reject malformed records, push the batch through the
  /// low and high nodes, write any due snapshot, repeat. Read() is called
  /// on the calling thread only, once every earlier record has gone
  /// through the nodes. Read timeouts degrade to heartbeat-empty batches
  /// so the loop keeps turning while the wire is quiet.
  ///
  /// Snapshots requested by the window-flush hook are written at the next
  /// batch boundary, where every record read so far has been fully
  /// processed, for every sampling node and together with the source's
  /// (kind, stream id, durable offset). The first run after a restore
  /// seeks its source to that offset when every restored node names this
  /// source at one offset — byte-identical resume for pcap and traces,
  /// at-most-once for sockets; a run whose source fails to open leaves
  /// the seek to the next run. Otherwise (another source, offsets that
  /// disagree, a snapshot with no source section, a node that restored
  /// nothing) the restored state and the snapshot files are discarded and
  /// the run starts fresh, with one line on stderr.
  Result<RunReport> RunSource(ResumableSource& source);

  QueryNode& low_node() { return *low_; }
  QueryNode& high_node(size_t i) { return *high_[i]; }
  size_t num_high_nodes() const { return high_.size(); }

  /// Report of the most recent run, including runs that returned an error
  /// Status — the degradation summary (shed fraction, late tuples, watchdog
  /// verdict) survives an aborted run for post-mortems. Call from the
  /// driving thread only; concurrent readers (the /healthz endpoint) go
  /// through HealthJson(), which copies under the report mutex.
  const RunReport& last_report() const { return last_report_; }

  /// The embedded introspection server, or nullptr when http_port < 0 or
  /// startup failed (see http_status()).
  obs::HttpServer* http_server() { return http_server_.get(); }
  const Status& http_status() const { return http_status_; }

  /// The observability time-series stack, or nullptr when disabled
  /// (timeseries.interval_ms == 0 and flight.dir empty).
  obs::TimeSeries* timeseries() { return ts_.get(); }
  obs::AlertEngine* alert_engine() { return alerts_.get(); }
  obs::FlightRecorder* flight_recorder() { return flight_.get(); }
  obs::TimeSeriesSampler* sampler() { return sampler_.get(); }
  /// Parse status of RuntimeOptions::alert_rules (OK when empty).
  const Status& alerts_status() const { return alerts_status_; }

  /// The pre-crash forensic report loaded from flight.dir at construction
  /// (ForensicReport::valid is false when none was found). The JSON form
  /// is what /forensics serves under "report".
  const obs::ForensicReport& forensic_report() const {
    return forensic_report_;
  }

  /// True while a run is executing.
  bool running() const { return running_.load(std::memory_order_relaxed); }

  /// /healthz body: run state + the degradation summary of the most recent
  /// (or in-flight) run as JSON. Thread-safe.
  std::string HealthJson() const;

  /// /healthz verdict: false once a run was terminated by the watchdog.
  bool healthy() const;

  /// True when a snapshot was restored at construction; the first run then
  /// resumes its source at the snapshot's offset. Cleared when that run
  /// cannot resume and starts fresh instead.
  bool recovered() const { return recovered_windows_ > 0; }
  uint64_t recovered_windows() const { return recovered_windows_; }

  /// The checkpoint manager of high node `i`, or nullptr when
  /// checkpointing is disabled or the node is not a sampling node.
  CheckpointManager* checkpoint_manager(size_t i) {
    return i < checkpoint_mgrs_.size() ? checkpoint_mgrs_[i].get() : nullptr;
  }

 private:
  class ThreadedFeed;  // RunThreaded's ring-fed TraceSource

  // What the newest restored snapshot of each high node said about the
  // input source it was taken against (an empty kind when nothing was
  // restored or the snapshot has no source section).
  struct RestoredSourceInfo {
    std::string kind;
    uint64_t stream_id = 0;
    uint64_t offset = 0;
    bool operator==(const RestoredSourceInfo&) const = default;
  };

  // The one drive loop behind every run: resume or start fresh, read
  // `source` batch by batch through the nodes, finish the stream on a
  // clean end, and report. `threaded` is RunThreaded's feed (the same
  // object as `source`), nullptr otherwise.
  Result<RunReport> Drive(ResumableSource& source, ThreadedFeed* threaded);
  // Folds the checkpoint counters and recovery state into `report`.
  void FillCheckpointReport(RunReport* report) const;
  // Publishes the report to last_report_ (under the mutex, for /healthz
  // readers) and refreshes the degradation gauges in the registry.
  void PublishReport(const RunReport& report);
  // First run after a restore: seeks `source` to the snapshots' offset
  // when every restored node agrees on (kind, stream_id, offset) and they
  // match the source; otherwise discards the restored state and the
  // snapshot files so the run starts fresh. Returns whether it seeked.
  bool ResumeOrStartFresh(ResumableSource& source);
  // When a flush hook requested a snapshot since the last batch boundary,
  // writes one for every managed node: its durable state, the shed
  // controller when one runs, the exemplars, and the source section.
  void FlushPendingSnapshots(const ResumableSource& source,
                             const LoadShedController* shed);

  Options options_;
  obs::MetricRegistry* registry_;  // options_.registry or the default
  RunReport last_report_;
  mutable std::mutex report_mu_;
  std::atomic<bool> running_{false};
  std::unique_ptr<QueryNode> low_;
  std::vector<std::unique_ptr<QueryNode>> high_;
  // Durability (engine/checkpoint.h): one manager per high node (nullptr
  // for selection nodes or with checkpointing disabled).
  std::vector<std::unique_ptr<CheckpointManager>> checkpoint_mgrs_;
  // Flush count of the newest restored snapshot; 0 = nothing restored.
  // Atomic: a run's fresh start clears it while /healthz may read it.
  std::atomic<uint64_t> recovered_windows_{0};
  bool resume_pending_ = false;  // the next run seeks or starts fresh
  std::string restored_shed_blob_;  // for the resumed RunThreaded controller
  std::vector<RestoredSourceInfo> restored_sources_;  // parallel to high_
  // A flush hook requested a snapshot: every managed node writes one at
  // the next batch boundary.
  bool snapshot_due_ = false;
  // Live ingest view for /healthz while a run is in flight.
  std::atomic<bool> source_active_{false};
  std::atomic<uint64_t> live_source_offset_{0};
  std::atomic<uint64_t> live_source_lag_{0};
  std::atomic<uint64_t> live_source_reconnects_{0};
  std::atomic<uint64_t> live_source_gaps_{0};
  obs::Counter* producer_retries_ = nullptr;
  obs::Counter* packets_dropped_ = nullptr;
  // Degradation summary as gauges (satellite of the PR 3 RunReport): what
  // /metrics scrapes see without parsing stderr or RunReport.
  obs::Gauge* shed_fraction_gauge_ = nullptr;
  obs::Gauge* shed_p_min_gauge_ = nullptr;
  obs::Gauge* shed_p_max_gauge_ = nullptr;
  obs::Gauge* late_tuples_gauge_ = nullptr;
  obs::Gauge* packets_malformed_gauge_ = nullptr;
  obs::Gauge* watchdog_fired_gauge_ = nullptr;
  Status http_status_;
  // Time-series / alerting / forensics stack (obs/timeseries.h et al.),
  // created when options enable it. Declared before http_server_ and
  // sampler_ so both consumer threads stop before their data sources die.
  std::unique_ptr<obs::TimeSeries> ts_;
  std::unique_ptr<obs::AlertEngine> alerts_;
  std::unique_ptr<obs::FlightRecorder> flight_;
  obs::ForensicReport forensic_report_;  // pre-crash segment, if any
  Status alerts_status_;
  // Declared last: destroyed first, so the sampler and serving threads
  // (whose handlers read last_report_, the ring and the alert board) stop
  // before the state they read.
  std::unique_ptr<obs::TimeSeriesSampler> sampler_;
  std::unique_ptr<obs::HttpServer> http_server_;
};

/// Single-node convenience: run one query over a trace and report stats.
/// The trace is read from a TraceSource in batches, as Run() reads it, and
/// batch-latency metrics land in `registry` (nullptr = default registry).
struct SingleRunResult {
  NodeReport report;
  std::vector<Tuple> output;
  std::vector<WindowStats> windows;
};
Result<SingleRunResult> RunQueryOverTrace(const CompiledQuery& query,
                                          const Trace& trace,
                                          const std::string& name = "query",
                                          obs::MetricRegistry* registry =
                                              nullptr);

}  // namespace streamop

#endif  // STREAMOP_ENGINE_RUNTIME_H_
