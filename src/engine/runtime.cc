#include "engine/runtime.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <thread>

#include "obs/exemplar.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/span.h"
#include "query/query.h"
#include "stream/ring_buffer.h"
#include "stream/trace_source.h"

namespace streamop {

namespace {

using obs::NowNanos;

// A packet whose length is below the 20-byte IPv4 header minimum is
// malformed (fault injection truncates below this); the drive loop rejects
// it on arrival instead of feeding garbage to the query nodes.
constexpr uint16_t kMinPacketLen = 20;

// Columns of the drive loop's packet batch: the PKT row (PacketLanes).
constexpr size_t kPacketColumns = 8;

// Producer backoff ladder: this many plain yields before sleeping, then
// exponentially growing sleeps between these bounds.
constexpr int kBackoffYields = 32;
constexpr uint64_t kBackoffMinSleepNs = 1000;     // 1 us
constexpr uint64_t kBackoffMaxSleepNs = 1000000;  // 1 ms

// Marks the runtime as running for the duration of a run (exception- and
// early-return-safe), so /healthz can tell an in-flight run from a
// completed one.
class RunningGuard {
 public:
  explicit RunningGuard(std::atomic<bool>& flag) : flag_(flag) {
    flag_.store(true, std::memory_order_relaxed);
  }
  ~RunningGuard() { flag_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool>& flag_;
};

// Offers a malformed-packet exemplar (the rejected header's timestamp and
// claimed length) to the process-wide store. Rare path: the gate is one
// relaxed load, the offer one uncontended lock.
void OfferMalformedExemplar(const PacketRecord& p) {
  if constexpr (obs::kStatsEnabled) {
    obs::ExemplarStore& store = obs::ExemplarStore::Default();
    if (!store.enabled()) return;
    obs::Exemplar ex;
    ex.ts_ns = p.ts_ns;
    ex.value = static_cast<double>(p.len);
    ex.dims[0] = p.ts_ns;
    ex.dims[1] = p.len;
    ex.ndims = 2;
    store.Offer(obs::ExemplarStore::kMalformed, ex);
  }
}

// Offers a shed-drop exemplar: which packet the Bernoulli pre-sampler
// dropped, at what admission probability.
void OfferShedExemplar(const PacketRecord& p, double weight) {
  if constexpr (obs::kStatsEnabled) {
    obs::ExemplarStore& store = obs::ExemplarStore::Default();
    if (!store.enabled()) return;
    obs::Exemplar ex;
    ex.ts_ns = p.ts_ns;
    ex.value = weight > 1.0 ? 1.0 / weight : 1.0;  // admission probability
    ex.weight = weight;
    ex.dims[0] = p.ts_ns;
    ex.dims[1] = p.src_ip;
    ex.dims[2] = p.dst_ip;
    ex.dims[3] = p.len;
    ex.ndims = 4;
    store.Offer(obs::ExemplarStore::kShedDrop, ex);
  }
}

NodeReport MakeReport(const QueryNode& node, double stream_seconds) {
  NodeReport r;
  r.name = node.name();
  r.tuples_in = node.tuples_in();
  r.tuples_out = node.tuples_out();
  r.cpu_seconds = static_cast<double>(node.cpu_nanos()) * 1e-9;
  r.cpu_percent =
      stream_seconds > 0.0 ? 100.0 * r.cpu_seconds / stream_seconds : 0.0;
  return r;
}

}  // namespace

TwoLevelRuntime::TwoLevelRuntime(const CompiledQuery& low,
                                 const std::vector<CompiledQuery>& high,
                                 Options options)
    : TwoLevelRuntime(&low, high, std::move(options)) {}

TwoLevelRuntime::TwoLevelRuntime(const std::vector<CompiledQuery>& high,
                                 Options options)
    : TwoLevelRuntime(nullptr, high, std::move(options)) {}

TwoLevelRuntime::TwoLevelRuntime(const CompiledQuery* low,
                                 const std::vector<CompiledQuery>& high,
                                 Options options)
    : options_(std::move(options)),
      registry_(options_.registry != nullptr
                    ? options_.registry
                    : &obs::MetricRegistry::Default()) {
  obs::MetricRegistry& reg = *registry_;
  producer_retries_ =
      reg.GetCounter("streamop_runtime_producer_retries_total");
  packets_dropped_ = reg.GetCounter("streamop_runtime_packets_dropped_total");
  shed_fraction_gauge_ = reg.GetGauge("streamop_runtime_shed_fraction");
  shed_p_min_gauge_ = reg.GetGauge("streamop_runtime_shed_p_min");
  shed_p_max_gauge_ = reg.GetGauge("streamop_runtime_shed_p_max");
  late_tuples_gauge_ = reg.GetGauge("streamop_runtime_late_tuples");
  packets_malformed_gauge_ =
      reg.GetGauge("streamop_runtime_packets_malformed");
  watchdog_fired_gauge_ = reg.GetGauge("streamop_runtime_watchdog_fired");
  if (low != nullptr) {
    low_ = std::make_unique<QueryNode>("low", *low, &reg);
    if (low_->is_sampling()) {
      shape_status_ = Status::InvalidArgument(
          "the low node must be a selection query, not a sampling query");
    }
  }
  readers_.resize(high.size());
  for (size_t i = 0; i < high.size(); ++i) {
    high_.push_back(std::make_unique<QueryNode>("high" + std::to_string(i),
                                                high[i], &reg));
    const std::string& input = high[i].input_schema()->name();
    const std::optional<size_t> stage = StageOfStream(input);
    if (!stage.has_value()) {
      source_readers_.push_back(i);
    } else if (*stage < i) {
      readers_[*stage].push_back(i);
    } else if (shape_status_.ok()) {
      shape_status_ = Status::InvalidArgument(
          "high node " + std::to_string(i) + " reads " + input +
          ", which no earlier high node provides");
    }
  }

  // Durability (engine/checkpoint.h): one manager per sampling node. The
  // newest valid snapshot is restored here, at construction, and the first
  // run seeks its source to the snapshot's offset or starts fresh; the
  // installed flush hook then requests snapshots at the configured
  // cadence. Selection nodes are stateless and get no manager.
  if (!options_.checkpoint.dir.empty()) {
    checkpoint_mgrs_.resize(high_.size());
    restored_sources_.resize(high_.size());
    for (size_t i = 0; i < high_.size(); ++i) {
      SamplingOperator* op = high_[i]->sampling_operator();
      if (op == nullptr) continue;
      CheckpointConfig cfg = options_.checkpoint;
      cfg.node = high_[i]->name();
      cfg.registry = &reg;
      checkpoint_mgrs_[i] = std::make_unique<CheckpointManager>(cfg);
      CheckpointManager* mgr = checkpoint_mgrs_[i].get();

      // Any snapshot file on disk, even one that does not restore, leaves
      // the first run a choice: resume from it, or discard it.
      auto loaded = mgr->LoadLatest();
      if (loaded || mgr->corrupt_skipped() > 0) resume_pending_ = true;
      if (loaded) {
        ByteReader r(loaded->payload);
        if (op->RestoreDurableState(r)) {
          // Trailing sections: load-shed controller (applied to the next
          // run's controller) and the exemplar reservoirs (applied now).
          if (r.Bool()) restored_shed_blob_ = r.Str();
          if (r.Bool()) {
            const std::string ex = r.Str();
            ByteReader er(ex);
            obs::ExemplarStore::Default().RestoreFrom(er);
          }
          // Source section: the (kind, stream id, offset) the snapshot is
          // bound to. Snapshots written before every run had a source lack
          // it; the first run then starts fresh.
          if (r.remaining() > 0 && r.Bool()) {
            restored_sources_[i].kind = r.Str();
            restored_sources_[i].stream_id = r.U64();
            restored_sources_[i].offset = r.U64();
          }
          recovered_windows_ =
              std::max(recovered_windows_.load(), loaded->windows_flushed);
          std::fprintf(
              stderr, "[checkpoint] %s: restored %s (window %llu)\n",
              high_[i]->name().c_str(), loaded->path.c_str(),
              static_cast<unsigned long long>(loaded->windows_flushed));
        } else {
          std::fprintf(stderr,
                       "[checkpoint] %s: snapshot %s does not match this "
                       "query, starting fresh\n",
                       high_[i]->name().c_str(), loaded->path.c_str());
        }
      }

      // Mid-batch state matches no source offset: the drive loop writes
      // the requested snapshot at the next batch boundary.
      op->set_window_flush_hook([this, mgr](uint64_t windows_flushed) {
        if (mgr->ShouldWrite(windows_flushed)) snapshot_due_ = true;
      });
    }
  }

  // Flight-recorder observability stack (obs/timeseries.h, obs/alerts.h,
  // obs/flight_recorder.h): a positive sampling interval or a flight dir
  // brings up the ring, the alert engine (built-in SLO rules + the user's
  // --alert-rules file) and the sampler thread. Loading the pre-crash
  // segment happens BEFORE the first spill could overwrite it.
  const bool want_timeseries =
      options_.timeseries.interval_ms > 0 || !options_.flight.dir.empty();
  if (want_timeseries) {
    if (!options_.flight.dir.empty()) {
      auto loaded = obs::FlightRecorder::Load(options_.flight.dir);
      if (loaded.ok()) {
        forensic_report_ = std::move(*loaded);
        std::fputs(forensic_report_.ToText().c_str(), stderr);
      } else if (loaded.status().code() != StatusCode::kNotFound) {
        std::fprintf(stderr, "[flight] %s: %s\n",
                     options_.flight.dir.c_str(),
                     loaded.status().message().c_str());
      }
      flight_ = std::make_unique<obs::FlightRecorder>(options_.flight);
    }
    obs::TimeSeriesOptions ts_opts = options_.timeseries;
    if (ts_opts.interval_ms == 0) ts_opts.interval_ms = 250;
    ts_ = std::make_unique<obs::TimeSeries>(ts_opts);
    obs::AlertEngine::Options alert_opts;
    alert_opts.quality_ci_target = options_.quality_ci_target;
    alerts_ = std::make_unique<obs::AlertEngine>(alert_opts);
    alerts_->AddBuiltinRules();
    if (!options_.alert_rules.empty()) {
      alerts_status_ = alerts_->AddRulesFromText(options_.alert_rules);
      if (!alerts_status_.ok()) {
        std::fprintf(stderr, "[alerts] %s\n",
                     alerts_status_.message().c_str());
      }
    }
    obs::TimeSeriesSampler::Options sampler_opts;
    sampler_opts.interval_ms = ts_opts.interval_ms;
    sampler_opts.registry = &reg;
    sampler_opts.timeseries = ts_.get();
    sampler_opts.alerts = alerts_.get();
    sampler_opts.recorder = flight_.get();
    sampler_ = std::make_unique<obs::TimeSeriesSampler>(sampler_opts);
    (void)sampler_->Start();  // no-op under STREAMOP_NO_STATS
  }

  if (options_.http_port >= 0) {
    obs::HttpServerOptions http;
    http.port = static_cast<uint16_t>(options_.http_port);
    http.registry = &reg;
    http.health_json = [this] { return HealthJson(); };
    http.healthy = [this] { return healthy(); };
    http.timeseries = ts_.get();
    http.alerts = alerts_.get();
    http.flight_recorder = flight_.get();
    if (forensic_report_.valid) {
      http.forensics_json = [this] { return forensic_report_.ToJson(); };
    }
    http_server_ = std::make_unique<obs::HttpServer>(std::move(http));
    http_status_ = http_server_->Start();
    if (!http_status_.ok()) http_server_.reset();
  }
}

void TwoLevelRuntime::PublishReport(const RunReport& report) {
  {
    std::lock_guard<std::mutex> lock(report_mu_);
    last_report_ = report;
  }
  shed_fraction_gauge_->Set(report.shed_fraction);
  shed_p_min_gauge_->Set(report.shed_p_min);
  shed_p_max_gauge_->Set(report.shed_p_max);
  late_tuples_gauge_->Set(static_cast<double>(report.late_tuples));
  packets_malformed_gauge_->Set(
      static_cast<double>(report.packets_malformed));
  watchdog_fired_gauge_->Set(report.watchdog_fired ? 1.0 : 0.0);
}

void TwoLevelRuntime::FillCheckpointReport(RunReport* report) const {
  report->recovered_windows = recovered_windows_.load();
  report->recovered = report->recovered_windows > 0;
  for (const auto& mgr : checkpoint_mgrs_) {
    if (mgr == nullptr) continue;
    report->checkpoints_written += mgr->writes();
    report->checkpoint_failures += mgr->failures();
    report->checkpoint_corrupt_skipped += mgr->corrupt_skipped();
    if (mgr->degraded()) report->checkpoint_degraded = true;
  }
}

void TwoLevelRuntime::FlushPendingSnapshots(const ResumableSource& source,
                                            const LoadShedController* shed) {
  if (!snapshot_due_) return;
  snapshot_due_ = false;
  // Every managed node snapshots at this one batch boundary, each under its
  // own flush count, so the newest snapshots of all nodes name one offset.
  for (size_t i = 0; i < checkpoint_mgrs_.size(); ++i) {
    if (checkpoint_mgrs_[i] == nullptr) continue;
    SamplingOperator* op = high_[i]->sampling_operator();
    ByteWriter w;
    op->SerializeDurableState(w);
    w.Bool(shed != nullptr);
    if (shed != nullptr) {
      ByteWriter sw;
      shed->SerializeTo(sw);
      w.Str(sw.data());
    }
    ByteWriter ew;
    obs::ExemplarStore::Default().SerializeTo(ew);
    w.Bool(true);
    w.Str(ew.data());
    // Source section: at a batch boundary the operator state and the
    // source's durable offset describe the same prefix of the input.
    w.Bool(true);
    w.Str(source.kind());
    w.U64(source.stream_id());
    w.U64(source.durable_offset());
    checkpoint_mgrs_[i]->Write(op->windows_flushed(), w.data());
  }
  // Checkpoint-cadence forensics: keep the flight segment in step with the
  // durable state, so a crash right after a checkpoint still leaves a
  // telemetry tail that covers the checkpointed window.
  if (flight_ != nullptr) flight_->RequestSpill();
}

bool TwoLevelRuntime::ResumeOrStartFresh(ResumableSource& source) {
  if (!resume_pending_) return false;
  // Every checkpoint-managed node must have restored a snapshot naming ONE
  // source offset: a node that restored nothing needs the input from its
  // start, and seeking would starve it of its prefix.
  const RestoredSourceInfo* first = nullptr;
  bool one_offset = true;
  for (size_t i = 0; i < high_.size(); ++i) {
    if (checkpoint_mgrs_[i] == nullptr) continue;
    const RestoredSourceInfo& rs = restored_sources_[i];
    if (first == nullptr) first = &rs;
    one_offset = one_offset && !rs.kind.empty() && rs == *first;
  }
  Status st = Status::InvalidArgument(
      "not every node restored a snapshot naming one source offset");
  if (one_offset && first->kind == source.kind() &&
      first->stream_id == source.stream_id()) {
    st = source.SeekTo(first->offset);
  } else if (one_offset) {
    st = Status::InvalidArgument("the snapshots were taken against " +
                                 first->kind + " source " +
                                 std::to_string(first->stream_id));
  }
  // The seek stays pending until the source opens: a failed Open() leaves
  // the next run to seek again.
  if (st.ok()) {
    std::fprintf(stderr, "[checkpoint] resuming %s at offset %llu\n",
                 source.describe().c_str(),
                 static_cast<unsigned long long>(first->offset));
    return true;
  }
  std::fprintf(stderr, "[checkpoint] cannot resume %s (%s); starting fresh\n",
               source.describe().c_str(), st.message().c_str());
  for (size_t i = 0; i < high_.size(); ++i) {
    if (checkpoint_mgrs_[i] == nullptr) continue;
    high_[i]->sampling_operator()->ResetDurableState();
    checkpoint_mgrs_[i]->DiscardAll();
  }
  recovered_windows_ = 0;
  resume_pending_ = false;
  return false;
}

bool TwoLevelRuntime::healthy() const {
  if (alerts_ != nullptr && alerts_->critical_firing()) return false;
  std::lock_guard<std::mutex> lock(report_mu_);
  return !last_report_.watchdog_fired;
}

std::string TwoLevelRuntime::HealthJson() const {
  RunReport r;
  {
    std::lock_guard<std::mutex> lock(report_mu_);
    r = last_report_;
  }
  // Checkpoint state is read live from the managers (not the report copy)
  // so /healthz reflects writes and failures of an in-flight run too.
  RunReport ckpt;
  FillCheckpointReport(&ckpt);
  // Alert summary + flight-recorder status (obs/alerts.h): a firing
  // critical alert dominates every other status and flips the endpoint to
  // 503 via healthy().
  const bool alerts_enabled = alerts_ != nullptr;
  obs::AlertSummary alerts;
  if (alerts_enabled) alerts = alerts_->Summary();
  const bool critical_alert = alerts.critical_firing > 0;
  const char* alert_worst =
      alerts.firing > 0 ? obs::AlertSeverityName(alerts.worst) : "none";
  const bool flight_enabled = flight_ != nullptr && flight_->enabled();
  const bool is_running = running_.load(std::memory_order_relaxed);
  const char* status =
      r.watchdog_fired
          ? "watchdog_fired"
          : critical_alert
                ? "critical_alert"
                : is_running
                      ? "running"
                      : (ckpt.checkpoint_degraded || alerts.firing > 0 ||
                         (r.shedding_enabled && r.shed_fraction > 0.0))
                            ? "degraded"
                            : "ok";
  const bool src_active = source_active_.load(std::memory_order_relaxed);
  char buf[1536];
  std::snprintf(
      buf, sizeof(buf),
      "{\"status\": \"%s\", \"running\": %s, \"watchdog_fired\": %s, "
      "\"shedding_enabled\": %s, \"shed_fraction\": %.6f, "
      "\"shed_p_min\": %.6f, \"shed_p_max\": %.6f, "
      "\"tuples_shed\": %llu, \"late_tuples\": %llu, "
      "\"packets_malformed\": %llu, \"packets\": %llu, "
      "\"checkpoint_enabled\": %s, \"checkpoint_degraded\": %s, "
      "\"recovered\": %s, \"recovered_windows\": %llu, "
      "\"checkpoints_written\": %llu, \"checkpoint_failures\": %llu, "
      "\"checkpoint_corrupt_skipped\": %llu, "
      "\"source_active\": %s, \"source_offset\": %llu, "
      "\"source_lag\": %llu, \"source_reconnects\": %llu, "
      "\"source_gaps\": %llu, "
      "\"alerts_enabled\": %s, \"alerts_firing\": %llu, "
      "\"alerts_pending\": %llu, \"alerts_critical_firing\": %llu, "
      "\"alerts_worst_severity\": \"%s\", "
      "\"flight_recorder_enabled\": %s, \"flight_spills\": %llu, "
      "\"flight_spill_failures\": %llu, \"forensic_report_loaded\": %s}\n",
      status, is_running ? "true" : "false",
      r.watchdog_fired ? "true" : "false",
      r.shedding_enabled ? "true" : "false", r.shed_fraction, r.shed_p_min,
      r.shed_p_max, static_cast<unsigned long long>(r.tuples_shed),
      static_cast<unsigned long long>(r.late_tuples),
      static_cast<unsigned long long>(r.packets_malformed),
      static_cast<unsigned long long>(r.packets),
      !checkpoint_mgrs_.empty() ? "true" : "false",
      ckpt.checkpoint_degraded ? "true" : "false",
      ckpt.recovered ? "true" : "false",
      static_cast<unsigned long long>(ckpt.recovered_windows),
      static_cast<unsigned long long>(ckpt.checkpoints_written),
      static_cast<unsigned long long>(ckpt.checkpoint_failures),
      static_cast<unsigned long long>(ckpt.checkpoint_corrupt_skipped),
      src_active ? "true" : "false",
      static_cast<unsigned long long>(
          live_source_offset_.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          live_source_lag_.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          live_source_reconnects_.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          live_source_gaps_.load(std::memory_order_relaxed)),
      alerts_enabled ? "true" : "false",
      static_cast<unsigned long long>(alerts.firing),
      static_cast<unsigned long long>(alerts.pending),
      static_cast<unsigned long long>(alerts.critical_firing), alert_worst,
      flight_enabled ? "true" : "false",
      static_cast<unsigned long long>(
          flight_ != nullptr ? flight_->spills() : 0),
      static_cast<unsigned long long>(
          flight_ != nullptr ? flight_->spill_failures() : 0),
      forensic_report_.valid ? "true" : "false");
  return buf;
}

// A run of consecutive records of the trace: what RunThreaded's ring
// carries, 16 bytes a slot.
struct TraceSlice {
  size_t first = 0;
  size_t count = 0;
};

// RunThreaded's input: a TraceSource whose records arrive through the ring.
// A producer thread publishes slices of the trace arena, one per push —
// Gigascope's zero-copy feed of the low-level queries — and Read() pops
// one and copies its records into the caller's buffer, so the durable
// offset is the index just past the last record popped and a snapshot
// names a trace offset whichever run wrote it. A slice holds up to
// min(batch_size, ring_capacity) records and the ring has ring_capacity /
// slice slots, so ring_capacity still bounds the records in flight; the
// ring's metrics, its high-water mark and the shed controller's occupancy
// count records. The rest is RunThreaded's own: the producer's backoff
// ladder and drop policy, the load-shed controller's tick, the consumer
// stall hook and the watchdog.
class TwoLevelRuntime::ThreadedFeed : public TraceSource {
 public:
  ThreadedFeed(const Trace& trace, const RuntimeOptions& options,
               obs::MetricRegistry& reg)
      : TraceSource(&trace),
        options_(options),
        ring_metrics_(obs::RingBufferMetrics::Create(reg)),
        slice_(std::max<size_t>(
            std::min(options.batch_size, options.ring_capacity), 1)),
        ring_(std::max<size_t>(options.ring_capacity / slice_, 1)),
        shed_(options.shed, &reg) {}
  ~ThreadedFeed() override { Stop(); }

  // Starts the producer at the durable offset, and the watchdog.
  Status Open() override {
    STREAMOP_RETURN_NOT_OK(TraceSource::Open());
    producer_ = std::thread([this, start = pos_] { Produce(start); });
    if (options_.stall_timeout_ms > 0) {
      watchdog_ = std::thread([this] { Watch(); });
    }
    return Status::OK();
  }

  // Waits for a slice, the producer's end, or the watchdog (kEnd with
  // last_status() set).
  ReadResult Read(PacketRecord* buf, size_t max, size_t* n_out) override;
  Status last_status() const override { return status_; }

  LoadShedController* shed() {
    return options_.shed.enabled ? &shed_ : nullptr;
  }

  // Ends both threads: poisons the ring, which unsticks a producer that a
  // loop stopping early left mid-backoff, and joins. Idempotent.
  void Stop() {
    abort_.store(true, std::memory_order_release);
    ring_.Poison();
    if (watchdog_.joinable()) watchdog_.join();
    if (producer_.joinable()) producer_.join();
  }

  // This run's overload and degradation counts; call after Stop().
  void FillReport(RunReport* report) const {
    report->ring_push_failures = push_failures_;
    report->ring_occupancy_hwm = occupancy_hwm_;
    report->ring_producer_retries = retries_;
    report->packets_dropped = dropped_;
    report->producer_backoff_sleeps = backoff_sleeps_;
    report->producer_backoff_seconds = static_cast<double>(backoff_ns_) * 1e-9;
    report->watchdog_fired = watchdog_fired_;
    report->shedding_enabled = options_.shed.enabled;
    report->tuples_offered = shed_.offered();
    report->tuples_shed = shed_.shed();
    report->shed_fraction = shed_.shed_fraction();
    report->shed_p_min = shed_.min_probability_seen();
    report->shed_p_max = shed_.max_probability_seen();
  }

 private:
  void Produce(size_t start);
  void Watch();
  // Producer side of a successful push: counts its records and the records
  // now in flight.
  void NotePush(const TraceSlice& s);

  const RuntimeOptions& options_;
  const obs::RingBufferMetrics ring_metrics_;
  const size_t slice_;  // records per full slice
  RingBuffer<TraceSlice> ring_;
  LoadShedController shed_;  // consumer-owned
  std::thread producer_;
  std::thread watchdog_;
  std::atomic<bool> abort_{false};  // raised by the watchdog or Stop()
  // Heartbeat for the watchdog: bumped on every push, drop and pop.
  std::atomic<uint64_t> progress_{0};
  // Slice pushes that found the ring full: the controller's feedback, and
  // this run's count in the report.
  std::atomic<uint64_t> push_failures_{0};
  // Producer-owned, read after the join.
  uint64_t retries_ = 0;
  uint64_t dropped_ = 0;
  uint64_t backoff_sleeps_ = 0;
  uint64_t backoff_ns_ = 0;
  uint64_t occupancy_hwm_ = 0;  // records
  bool watchdog_fired_ = false;  // watchdog-owned, read after the join
  // Consumer-owned.
  uint64_t batch_index_ = 0;
  uint64_t last_tick_ns_ = 0;
  uint64_t last_failures_ = 0;
  Status status_;
};

void TwoLevelRuntime::ThreadedFeed::Produce(size_t start) {
  const size_t total = trace_->size();
  const bool drop = options_.drop_on_overload;
  int yields = 0;
  uint64_t sleep_ns = kBackoffMinSleepNs;
  for (size_t first = start; first < total; first += slice_) {
    const TraceSlice s{first, std::min(slice_, total - first)};
    bool pushed = true;
    while (!ring_.TryPush(s)) {
      if (abort_.load(std::memory_order_acquire) || ring_.poisoned()) {
        return;  // aborted runs leave the ring poisoned, not closed
      }
      push_failures_.fetch_add(1, std::memory_order_relaxed);
      if (ring_metrics_.enabled()) ring_metrics_.push_failures->Add();
      if (drop) {
        dropped_ += s.count;
        pushed = false;
        break;  // overload: shed this slice, move on
      }
      // Bounded backoff ladder: a burst of yields, then exponentially
      // growing sleeps capped at 1 ms — the producer never busy-spins
      // unboundedly against a slow consumer.
      ++retries_;
      if (yields < kBackoffYields) {
        ++yields;
        std::this_thread::yield();
      } else {
        ++backoff_sleeps_;
        backoff_ns_ += sleep_ns;
        std::this_thread::sleep_for(std::chrono::nanoseconds(sleep_ns));
        sleep_ns = std::min(sleep_ns * 2, kBackoffMaxSleepNs);
      }
    }
    if (pushed) NotePush(s);
    // Ladder resets after any successful push (or drop).
    yields = 0;
    sleep_ns = kBackoffMinSleepNs;
    progress_.fetch_add(1, std::memory_order_relaxed);
  }
  ring_.Close();  // end of stream: the consumer drains and ends
}

void TwoLevelRuntime::ThreadedFeed::NotePush(const TraceSlice& s) {
  // Only the producer pushes, so the newest slice in the ring is `s`, and
  // every slice before it is full: only the trace's last slice is short.
  const size_t in_ring = ring_.size();
  const uint64_t occupancy =
      in_ring == 0 ? 0 : (in_ring - 1) * slice_ + s.count;
  occupancy_hwm_ = std::max(occupancy_hwm_, occupancy);
  if (ring_metrics_.enabled()) {
    ring_metrics_.pushes->Add(s.count);
    ring_metrics_.occupancy_hwm->SetMax(static_cast<double>(occupancy));
  }
}

// If the progress heartbeat freezes for stall_timeout_ms — a hung consumer,
// a deadlocked hook — the watchdog aborts and poisons the ring; the threads
// exit cooperatively and the run reports ResourceExhausted instead of
// hanging forever.
void TwoLevelRuntime::ThreadedFeed::Watch() {
  const uint64_t timeout_ns = options_.stall_timeout_ms * 1000000ull;
  uint64_t last_progress = progress_.load(std::memory_order_relaxed);
  uint64_t last_change_ns = NowNanos();
  while (!abort_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const uint64_t now_progress = progress_.load(std::memory_order_relaxed);
    if (now_progress != last_progress) {
      last_progress = now_progress;
      last_change_ns = NowNanos();
    } else if (NowNanos() - last_change_ns >= timeout_ns) {
      watchdog_fired_ = true;
      abort_.store(true, std::memory_order_release);
      ring_.Poison();
      return;
    }
  }
}

ResumableSource::ReadResult TwoLevelRuntime::ThreadedFeed::Read(
    PacketRecord* buf, [[maybe_unused]] size_t max, size_t* n_out) {
  *n_out = 0;
  if (options_.consumer_stall_hook) {
    options_.consumer_stall_hook(batch_index_++, abort_);
  }
  // Controller tick, rate-limited here so the controller itself stays pure
  // (unit tests drive Tick directly). The loop applies the post-tick p to
  // the whole batch. Occupancy is in records: the slices in the ring, of
  // which no more than the trace has left past the consumer.
  if (options_.shed.enabled) {
    const uint64_t now = NowNanos();
    if (last_tick_ns_ == 0 ||
        now - last_tick_ns_ >= options_.shed.tick_interval_us * 1000) {
      const uint64_t f = push_failures_.load(std::memory_order_relaxed);
      shed_.Tick(std::min(ring_.size() * slice_, trace_->size() - pos_),
                 ring_.capacity() * slice_, f - last_failures_);
      last_failures_ = f;
      last_tick_ns_ = now;
    }
  }
  TraceSlice s;
  while (!ring_.TryPop(&s)) {
    if (abort_.load(std::memory_order_acquire)) {
      status_ = Status::ResourceExhausted(
          "pipeline stalled: no progress for " +
          std::to_string(options_.stall_timeout_ms) +
          " ms (watchdog); see last_report() for the degradation summary");
      return ReadResult::kEnd;
    }
    if (ring_.closed() && ring_.empty()) return ReadResult::kEnd;
    std::this_thread::yield();  // the producer is behind
  }
  assert(s.count <= max);  // a slice holds at most batch_size records
  const PacketRecord* from = trace_->packets().data() + s.first;
  std::copy(from, from + s.count, buf);
  pos_ = s.first + s.count;
  stats_.records += s.count;
  if (ring_metrics_.enabled()) ring_metrics_.pops->Add(s.count);
  progress_.fetch_add(1, std::memory_order_relaxed);
  *n_out = s.count;
  return ReadResult::kRecords;
}

Status TwoLevelRuntime::PushHigh(size_t h, const TupleBatch& batch,
                                 double weight, obs::SpanContext* span_ctx) {
  QueryNode& node = *high_[h];
  const uint64_t h0 = NowNanos();
  const Status status = node.PushBatch(batch, weight, nullptr, span_ctx);
  const uint64_t h_ns = NowNanos() - h0;
  node.AddCpuNanos(h_ns);
  if (batch.num_rows() > 0) node.RecordBatch(h_ns, batch.num_rows());
  return status.ok() ? HandOn(h) : status;
}

Status TwoLevelRuntime::HandOn(size_t j) {
  if (readers_[j].empty()) return Status::OK();
  for (const TupleBatch& chunk : high_[j]->DrainBatches()) {
    for (size_t r : readers_[j]) {
      STREAMOP_RETURN_NOT_OK(PushHigh(r, chunk, 1.0, nullptr));
    }
  }
  return Status::OK();
}

Result<RunReport> TwoLevelRuntime::Drive(ResumableSource& source,
                                         ThreadedFeed* threaded) {
  STREAMOP_RETURN_NOT_OK(shape_status_);
  RunningGuard running(running_);
  const uint64_t wall0 = NowNanos();
  const obs::IngestSourceMetrics ingest =
      obs::IngestSourceMetrics::Create(*registry_, source.describe());

  // The seek must precede Open(): pcap applies it when opening, sockets put
  // the offset in their first HELLO, RunThreaded's producer starts there.
  const bool resumed = ResumeOrStartFresh(source);
  STREAMOP_RETURN_NOT_OK(source.Open());
  resume_pending_ = false;
  // RunThreaded's shed controller, when shedding runs, rides in its
  // snapshots: a resumed run continues the restored admission sequence.
  LoadShedController* shed = threaded != nullptr ? threaded->shed() : nullptr;
  if (resumed && shed != nullptr && !restored_shed_blob_.empty()) {
    ByteReader r(restored_shed_blob_);
    shed->RestoreFrom(r);
  }
  restored_shed_blob_.clear();
  source_active_.store(true, std::memory_order_relaxed);
  snapshot_due_ = false;

  std::vector<PacketRecord> records(options_.batch_size);
  TupleBatch batch(kPacketColumns, options_.batch_size);
  TupleBatch low_out_batch;
  uint64_t delivered = 0;
  uint64_t malformed = 0;
  uint64_t first_ts = 0;
  uint64_t last_ts = 0;
  uint64_t idle_since_ns = 0;  // start of the current idle streak
  bool clean_end = false;
  Status status;
  SourceIngestStats prev;  // last stats pushed into the counters

  auto sync_metrics = [&] {
    const SourceIngestStats& s = source.stats();
    if (ingest.enabled()) {
      ingest.frames->Add(s.frames - prev.frames);
      ingest.records->Add(s.records - prev.records);
      ingest.malformed_frames->Add(s.malformed_frames - prev.malformed_frames);
      ingest.reconnects->Add(s.reconnects - prev.reconnects);
      ingest.gaps->Add(s.gaps - prev.gaps);
      ingest.gap_records->Add(s.gap_records - prev.gap_records);
      ingest.duplicates->Add(s.duplicate_records - prev.duplicate_records);
      ingest.heartbeats->Add(s.heartbeats - prev.heartbeats);
      ingest.durable_offset->Set(static_cast<double>(source.durable_offset()));
      ingest.resume_offset->Set(static_cast<double>(s.resume_offset));
      ingest.offset_lag->Set(static_cast<double>(source.offset_lag()));
    }
    prev = s;
    live_source_offset_.store(source.durable_offset(),
                              std::memory_order_relaxed);
    live_source_lag_.store(source.offset_lag(), std::memory_order_relaxed);
    live_source_reconnects_.store(s.reconnects, std::memory_order_relaxed);
    live_source_gaps_.store(s.gaps, std::memory_order_relaxed);
  };

  for (;;) {
    size_t n = 0;
    const ResumableSource::ReadResult rr =
        source.Read(records.data(), records.size(), &n);
    // A batch through the nodes. An idle read sends a heartbeat-empty batch
    // so the pipeline keeps turning while the wire is quiet.
    if (n > 0 || rr == ResumableSource::ReadResult::kIdle) {
      obs::SpanRing& spans = obs::SpanRing::Default();
      const bool span_on = spans.enabled();
      const bool obs_on = obs::kStatsEnabled;
      const uint64_t t0 = NowNanos();
      const double weight = shed != nullptr ? shed->weight() : 1.0;
      if (delivered == 0 && n > 0) first_ts = records[0].ts_ns;
      // Records are rejected one by one and the kept ones compacted to the
      // front of the buffer, which becomes columns in one call.
      size_t kept = 0;
      for (size_t i = 0; i < n; ++i) {
        const PacketRecord& p = records[i];
        last_ts = std::max(last_ts, p.ts_ns);
        if (p.len < kMinPacketLen) {
          ++malformed;  // truncated/garbage header: reject, don't feed
          OfferMalformedExemplar(p);
          continue;
        }
        if (shed != nullptr && !shed->Admit()) {  // Bernoulli pre-sample
          OfferShedExemplar(p, weight);
          continue;
        }
        if (kept != i) records[kept] = p;
        ++kept;
      }
      batch.Clear();
      batch.AppendPackets(records.data(), kept);  // one weight for the batch
      delivered += n;
      // One clock read ends the drain phase for its span and its total.
      const uint64_t drain_end = (obs_on || span_on) ? NowNanos() : 0;
      if (obs_on) {
        obs::Profiler::Default().AddPhaseNs(obs::Profiler::kDrain,
                                            drain_end - t0);
      }
      // Causal context: rows drained go down; the id of the window span the
      // batch fed comes back up through the sampling operator, so the drain
      // span below parents under the window root it actually filled.
      obs::SpanContext sctx;
      sctx.shed_p = weight > 1.0 ? 1.0 / weight : 1.0;
      sctx.rows = batch.num_rows();
      // Packet->batch conversion and selection both bill to the low node
      // (the "memory copy" costs §7.2 attributes to low-level evaluation),
      // or to no node without one. An identity low node, like a missing
      // one, hands the packet batch on as its output.
      const TupleBatch* low_out = &batch;
      if (low_ != nullptr) {
        if (low_->is_identity()) {
          low_->CountPassThrough(batch);
        } else {
          status = low_->PushBatch(batch, weight, &low_out_batch);
          low_out = &low_out_batch;
        }
        const uint64_t batch_ns = NowNanos() - t0;
        low_->AddCpuNanos(batch_ns);
        if (n > 0) low_->RecordBatch(batch_ns, batch.num_rows());
      }
      for (size_t i = 0; i < source_readers_.size() && status.ok(); ++i) {
        status = PushHigh(source_readers_[i], *low_out, weight,
                          span_on ? &sctx : nullptr);
      }
      if (!status.ok()) break;
      if (span_on && n > 0) {
        obs::SpanRecord dr;
        dr.name = "ring_drain";
        dr.parent_id = sctx.window_span_id;
        dr.window_seq = sctx.window_seq;
        dr.ts_ns = t0;
        dr.dur_ns = drain_end - t0;
        dr.rows = batch.num_rows();
        dr.shed_p = sctx.shed_p;
        spans.Emit(dr);
      }
      if (n > 0) idle_since_ns = 0;
    }

    // Batch boundary: every record read so far is fully processed, so a
    // snapshot here binds the operator state to the source's offset.
    FlushPendingSnapshots(source, shed);
    sync_metrics();

    if (rr == ResumableSource::ReadResult::kEnd) {
      clean_end = source.last_status().ok();
      break;
    }
    // The configured record and idle budgets end a run cleanly.
    const bool idle = rr == ResumableSource::ReadResult::kIdle;
    if (idle && idle_since_ns == 0) idle_since_ns = NowNanos();
    if ((options_.source_max_records > 0 &&
         delivered >= options_.source_max_records) ||
        (idle && options_.source_max_idle_ms > 0 &&
         NowNanos() - idle_since_ns >= options_.source_max_idle_ms * 1000000)) {
      clean_end = true;
      break;
    }
  }
  if (threaded != nullptr) threaded->Stop();

  // End of stream: flush the final windows, but only on a clean end — an
  // aborted or failed run must not emit partial windows as if they
  // completed. A selection low node holds nothing to flush. The high nodes
  // finish in index order, each handing its tail on to its readers before
  // they finish.
  if (status.ok() && clean_end) {
    for (size_t h = 0; h < high_.size() && status.ok(); ++h) {
      const uint64_t h0 = NowNanos();
      status = high_[h]->Finish();
      high_[h]->AddCpuNanos(NowNanos() - h0);
      if (status.ok()) status = HandOn(h);
    }
  }
  // Snapshots requested by the final flush bind to the end-of-stream
  // offset; a failed batch leaves no consistent state to snapshot.
  if (status.ok()) FlushPendingSnapshots(source, shed);
  source_active_.store(false, std::memory_order_relaxed);
  sync_metrics();

  // The report — including the degradation summary — is built even for
  // failed runs and kept in last_report() for post-mortems.
  RunReport report;
  report.stream_seconds =
      last_ts > first_ts ? static_cast<double>(last_ts - first_ts) * 1e-9
                         : 0.0;
  report.pipeline_seconds = static_cast<double>(NowNanos() - wall0) * 1e-9;
  report.packets = delivered;
  report.packets_malformed = malformed;
  if (threaded != nullptr) threaded->FillReport(&report);
  producer_retries_->Add(report.ring_producer_retries);
  packets_dropped_->Add(report.packets_dropped);
  if (low_ != nullptr) report.low = MakeReport(*low_, report.stream_seconds);
  for (auto& node : high_) {
    report.late_tuples += node->late_tuples();
    report.high.push_back(MakeReport(*node, report.stream_seconds));
  }
  report.sources.push_back({.source = source.describe(),
                            .resumed_from_offset = resumed,
                            .clean_end = clean_end && status.ok(),
                            .durable_offset = source.durable_offset(),
                            .offset_lag = source.offset_lag(),
                            .error = source.last_status().message(),
                            .stats = source.stats()});
  FillCheckpointReport(&report);
  PublishReport(report);

  if (!status.ok()) return status;
  if (!clean_end && !source.last_status().ok()) return source.last_status();
  return report;
}

Result<RunReport> TwoLevelRuntime::RunSource(ResumableSource& source) {
  return Drive(source, nullptr);
}

Result<RunReport> TwoLevelRuntime::Run(const Trace& trace) {
  TraceSource source(&trace);
  return Drive(source, nullptr);
}

Result<RunReport> TwoLevelRuntime::RunThreaded(const Trace& trace) {
  ThreadedFeed feed(trace, options_, *registry_);
  return Drive(feed, &feed);
}

}  // namespace streamop
