// Engine-wide metrics: a registry of named counters, gauges and log-linear
// latency histograms backing the paper's §7-style evaluation (CPU at line
// rate, drop behaviour under overload, per-window sampler work) with
// machine-readable export.
//
// Design constraints (DESIGN.md §7):
//  * Heap-free after registration: metric objects live in deques owned by
//    the registry (stable addresses); recording touches only fixed-size
//    atomics, so the operator hot path stays allocation-free.
//  * Relaxed atomics everywhere: RunThreaded's producer and consumer share
//    the registry; each individual metric has a single writer, readers
//    (snapshot/export) tolerate slightly stale values.
//  * Compile-out switch: building with -DSTREAMOP_NO_STATS turns every
//    record/increment into a no-op (kStatsEnabled folds the call sites
//    away) for overhead A/B measurement.

#ifndef STREAMOP_OBS_METRICS_H_
#define STREAMOP_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace streamop {
namespace obs {

#ifdef STREAMOP_NO_STATS
inline constexpr bool kStatsEnabled = false;
#else
inline constexpr bool kStatsEnabled = true;
#endif

inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Monotonic counter. Single logical writer; relaxed increments.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    if constexpr (kStatsEnabled) v_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Point-in-time value (load factor, high-water mark). Set/SetMax assume a
/// single writer (the owning thread); readers see the latest stored value.
class Gauge {
 public:
  void Set(double v) {
    if constexpr (kStatsEnabled) v_.store(v, std::memory_order_relaxed);
  }
  /// Keeps the maximum seen (single-writer: plain load-compare-store).
  void SetMax(double v) {
    if constexpr (kStatsEnabled) {
      if (v > v_.load(std::memory_order_relaxed)) {
        v_.store(v, std::memory_order_relaxed);
      }
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Log-linear histogram over uint64 values (nanoseconds, sizes): each
/// power-of-two octave is split into kSubBuckets linear sub-buckets, so
/// relative bucket width is <= 25% across the full 64-bit range with a
/// fixed 252-slot array — no allocation on Record, ever.
class Histogram {
 public:
  static constexpr size_t kSubBucketBits = 2;
  static constexpr size_t kSubBuckets = 1u << kSubBucketBits;  // 4
  // Linear region [0, 2*kSubBuckets) + one kSubBuckets-wide row per octave.
  static constexpr size_t kNumBuckets = (64 - kSubBucketBits) * kSubBuckets;

  static size_t BucketIndex(uint64_t v) {
    if (v < 2 * kSubBuckets) return static_cast<size_t>(v);
    const size_t msb = 63 - static_cast<size_t>(std::countl_zero(v));
    const size_t shift = msb - kSubBucketBits;
    const size_t sub = static_cast<size_t>(v >> shift) & (kSubBuckets - 1);
    return (shift + 1) * kSubBuckets + sub;
  }

  /// Exclusive upper bound of bucket i (values land in [lb, ub)).
  static uint64_t BucketUpperBound(size_t i) {
    if (i < 2 * kSubBuckets) return static_cast<uint64_t>(i) + 1;
    const size_t shift = i / kSubBuckets - 1;
    const uint64_t sub = i % kSubBuckets;
    return (kSubBuckets + sub + 1) << shift;
  }

  void Record(uint64_t v) {
    if constexpr (kStatsEnabled) {
      buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
      count_.fetch_add(1, std::memory_order_relaxed);
      sum_.fetch_add(v, std::memory_order_relaxed);
      if (v > max_.load(std::memory_order_relaxed)) {
        max_.store(v, std::memory_order_relaxed);  // single-writer max
      }
    }
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  uint64_t bucket_count(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  double mean() const {
    uint64_t c = count();
    return c > 0 ? static_cast<double>(sum()) / static_cast<double>(c) : 0.0;
  }

  /// Upper bound of the bucket holding the q-quantile (q in [0,1]).
  uint64_t ValueAtQuantile(double q) const;

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

/// Times a scope into a histogram; a null histogram (or STREAMOP_NO_STATS)
/// makes it a complete no-op, clock reads included.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* h) : h_(h) {
    if constexpr (kStatsEnabled) {
      if (h_ != nullptr) t0_ = NowNanos();
    }
  }
  ~ScopedTimer() {
    if constexpr (kStatsEnabled) {
      if (h_ != nullptr) h_->Record(NowNanos() - t0_);
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* h_;
  uint64_t t0_ = 0;
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One registry entry as seen by Visit(): borrowed references, valid only
/// inside the callback (the registry mutex is held across the visit).
struct MetricRef {
  const std::string& name;
  const std::string& labels;
  MetricKind kind;
  const Counter* counter;      // non-null iff kind == kCounter
  const Gauge* gauge;          // non-null iff kind == kGauge
  const Histogram* histogram;  // non-null iff kind == kHistogram
};

/// Named metric registry. Registration (GetCounter/GetGauge/GetHistogram)
/// is mutex-protected and idempotent per (name, labels); it happens at
/// component construction, never on the hot path. Metric objects live in
/// deques, so returned pointers stay valid for the registry's lifetime.
///
/// Naming scheme: `streamop_<layer>_<name>` with an optional preformatted
/// label string such as `node="low"` (DESIGN.md §7).
class MetricRegistry {
 public:
  /// Process-wide default registry used when a component is not handed an
  /// explicit one. Lives forever, so metric pointers never dangle.
  static MetricRegistry& Default();

  Counter* GetCounter(const std::string& name, const std::string& labels = "");
  Gauge* GetGauge(const std::string& name, const std::string& labels = "");
  Histogram* GetHistogram(const std::string& name,
                          const std::string& labels = "");

  /// JSON snapshot: {"counters": {...}, "gauges": {...}, "histograms":
  /// {name: {count, sum, max, mean, p50, p90, p99, buckets: [[ub, n]...]}}}.
  std::string ToJson() const;

  /// Prometheus text exposition format (one # TYPE line per family, all
  /// samples of a family grouped together).
  std::string ToPrometheus() const;

  size_t num_metrics() const;

  /// Enumerates every entry in registration order under the registry
  /// mutex — the scrape path of the time-series ring (obs/timeseries.h).
  /// The callback must not call back into the registry.
  void Visit(const std::function<void(const MetricRef&)>& fn) const;

 private:
  using Kind = MetricKind;
  struct Entry {
    std::string name;
    std::string labels;
    Kind kind;
    Counter* counter = nullptr;
    Gauge* gauge = nullptr;
    Histogram* histogram = nullptr;
  };

  Entry* Find(const std::string& name, const std::string& labels);

  mutable std::mutex mu_;
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  std::vector<Entry> entries_;  // registration order
};

// ---------------------------------------------------------------------------
// Instrumentation bundles: structs of registry-owned metric pointers that
// components hold by value. A default-constructed bundle (all null) means
// "not instrumented"; call sites guard with `enabled()` which constant-
// folds to false under STREAMOP_NO_STATS.
// ---------------------------------------------------------------------------

/// RingBuffer data-path metrics (producer side writes hwm).
struct RingBufferMetrics {
  Counter* pushes = nullptr;         // successful TryPush
  Counter* push_failures = nullptr;  // TryPush on a full ring
  Counter* pops = nullptr;           // successful TryPop
  Gauge* occupancy_hwm = nullptr;    // high-water mark of size()

  bool enabled() const { return kStatsEnabled && pushes != nullptr; }
  static RingBufferMetrics Create(MetricRegistry& reg,
                                  const std::string& labels = "");
};

/// Per-query-node metrics maintained by the runtime layer.
struct NodeMetrics {
  Counter* tuples_in = nullptr;
  Counter* tuples_out = nullptr;
  Counter* cpu_ns = nullptr;
  Counter* batches = nullptr;
  Histogram* batch_latency_ns = nullptr;  // per-batch processing time
  Histogram* batch_fill = nullptr;        // rows per consumed batch — low
                                          // fill means the drain loop runs
                                          // starved, partial batches

  bool enabled() const { return kStatsEnabled && tuples_in != nullptr; }
  static NodeMetrics Create(MetricRegistry& reg, const std::string& node_name);
};

/// SamplingOperator metrics: per-phase timing + sampler work accounting.
/// The admission histogram records one mean per-lane latency per batch so
/// its two clock reads amortize below the 2% ns/tuple overhead budget;
/// cleaning and flush phases are rare and timed on every occurrence.
struct OperatorMetrics {
  Counter* tuples = nullptr;            // tuples processed
  Counter* admitted = nullptr;          // tuples passing WHERE
  Counter* groups_created = nullptr;
  Counter* groups_removed = nullptr;
  Counter* cleaning_phases = nullptr;
  Counter* windows = nullptr;           // FlushWindow calls
  Counter* rows_out = nullptr;          // output rows emitted
  Counter* superagg_updates = nullptr;  // SuperAggState::OnTuple calls
  Counter* sfun_calls = nullptr;        // stateful-function invocations
  Counter* late_tuples = nullptr;       // clamped non-monotonic arrivals
  Histogram* admission_ns = nullptr;    // mean per-lane latency, per batch
  Histogram* cleaning_ns = nullptr;     // per cleaning phase
  Histogram* flush_ns = nullptr;        // per window flush
  Gauge* group_table_load_factor = nullptr;  // at window close
  Gauge* peak_groups = nullptr;              // high-water mark of live groups

  // Sample-quality gauges, refreshed once per window flush from the
  // WindowQualityReport (the per-window history lives in the QualityRing;
  // these expose the latest window to /metrics scrapes). Worst case across
  // the window's supergroups is reported.
  Gauge* quality_sum_ci95 = nullptr;          // widest sum$ 95% CI half-width
  Gauge* quality_threshold_z = nullptr;       // largest subset-sum threshold
  Gauge* quality_freq_error_bound = nullptr;  // lossy counting eps*N bound
  Gauge* quality_distinct_rel_error = nullptr;  // KMV/distinct ~1/sqrt(k)
  Gauge* quality_coverage = nullptr;          // smallest reservoir coverage
  Gauge* quality_shed_p_min = nullptr;        // worst admission probability

  bool enabled() const { return kStatsEnabled && tuples != nullptr; }
  static OperatorMetrics Create(MetricRegistry& reg,
                                const std::string& node_name);
};

/// Ingest metrics of one ResumableSource (stream/resumable_source.h):
/// frame and record flow, connection churn, sequence anomalies, and the
/// durable offset a restart would resume from. offset_lag is how far the
/// consumer trails the producer's announced head (records), the file end
/// (bytes) or the trace end (records) — the first gauge to watch on a slow
/// consumer.
struct IngestSourceMetrics {
  Counter* frames = nullptr;            // well-formed frames / pcap records
  Counter* records = nullptr;           // PacketRecords delivered
  Counter* malformed_frames = nullptr;  // quarantined frames
  Counter* reconnects = nullptr;        // socket reconnects / HELLO nudges
  Counter* gaps = nullptr;              // sequence gaps detected
  Counter* gap_records = nullptr;       // records lost to gaps
  Counter* duplicates = nullptr;        // duplicate/reordered records dropped
  Counter* heartbeats = nullptr;        // idle reads (timeout, no data)
  Gauge* durable_offset = nullptr;      // current resumable offset
  Gauge* resume_offset = nullptr;       // offset of the last (re)start
  Gauge* offset_lag = nullptr;          // producer head - durable offset

  bool enabled() const { return kStatsEnabled && frames != nullptr; }
  static IngestSourceMetrics Create(MetricRegistry& reg,
                                    const std::string& source_name);
};

}  // namespace obs
}  // namespace streamop

#endif  // STREAMOP_OBS_METRICS_H_
