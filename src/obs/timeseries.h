// Metrics time-series: a sampler thread scrapes the MetricRegistry every
// N ms into a fixed-size, delta-encoded ring of interval snapshots — the
// history layer the point-in-time endpoints (/metrics, /windows) lack.
// Rates, trends and "what happened in the last minute before the crash"
// all derive from this ring; the alert engine (obs/alerts.h) evaluates
// its rules over it and the flight recorder (obs/flight_recorder.h)
// spills it to disk.
//
// Encoding (DESIGN.md §7 spirit — bounded, heap-free at steady state):
//  * Counters are stored as per-interval deltas, sparsely: a counter that
//    did not move contributes no point.
//  * Gauges are stored as values, also sparsely: only when the value
//    changed since the previous scrape (plus once on first sight).
//  * Histograms contribute two counter-like scalar series (`name_count`,
//    `name_sum`) plus sparse per-interval *bucket deltas*, so interval-
//    accurate quantiles and rates are derivable for any retained window.
//  * Every interval's points live in flat slabs reserved at construction
//    (capacity × max_points slots) but left uninitialised, so the kernel
//    commits a page only when a scrape first writes into it — a scrape
//    fills a few dozen slots of its slice, not all of them. Readers never
//    look past an interval's npoints/nbuckets. When an interval is evicted
//    its deltas fold into a per-series base value, so reconstruction
//    stays exact across wraparound. Overflowing an interval's slice drops
//    points and counts the drop — never allocates, never blocks the
//    scrape.
//
// The scrape runs on its own thread (TimeSeriesSampler), never on the
// per-tuple path. Under STREAMOP_NO_STATS the sampler's thread entry
// point is not compiled at all (nm-asserted in CI) and Scrape() is a
// no-op.

#ifndef STREAMOP_OBS_TIMESERIES_H_
#define STREAMOP_OBS_TIMESERIES_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

/// Thread entry of the time-series sampler. External linkage on purpose:
/// the NO_STATS CI job asserts with nm that this symbol is absent when the
/// observability layer is compiled out (and present otherwise).
#ifndef STREAMOP_NO_STATS
void* StreamopTimeseriesSamplerMain(void* sampler);
#endif

namespace streamop {
namespace obs {

struct TimeSeriesOptions {
  size_t capacity = 240;            // intervals retained (ring depth)
  size_t max_series = 1024;         // scalar series slots
  size_t max_points = 1024;         // scalar points per interval (sparse)
  size_t max_bucket_deltas = 2048;  // histogram bucket deltas per interval
  uint64_t interval_ms = 250;       // sampler period (0 = sampler disabled)
};

enum class SeriesKind : uint8_t { kCounter = 0, kGauge = 1 };

/// One reconstructed point handed to readers.
struct TimeSeriesPoint {
  uint64_t t_ns = 0;
  double value = 0.0;  // cumulative (counter) or current (gauge)
  double delta = 0.0;  // per-interval delta (counters; 0 for gauges)
};

class TimeSeries {
 public:
  explicit TimeSeries(TimeSeriesOptions options = TimeSeriesOptions());

  const TimeSeriesOptions& options() const { return options_; }

  /// One scrape of `reg`. Allocation-free at steady state: new series
  /// allocate their descriptor on first sight only (registration-time,
  /// not per scrape). Thread-safe against all readers.
  void Scrape(MetricRegistry& reg, uint64_t t_ns = NowNanos());

  uint64_t scrapes() const { return scrapes_.load(std::memory_order_relaxed); }
  size_t num_series() const;
  uint64_t dropped_points() const;
  uint64_t dropped_series() const;

  /// Series keys ("name" or "name{labels}") in first-sight order.
  std::vector<std::string> SeriesKeys() const;

  /// Reconstructed points of series `key` over the newest `max_intervals`
  /// retained intervals (oldest first). Empty if the key is unknown.
  std::vector<TimeSeriesPoint> Window(const std::string& key,
                                      size_t max_intervals) const;

  /// Latest cumulative (counter) or current (gauge) value; NaN if unknown.
  double LatestValue(const std::string& key) const;

  /// Per-second rate of a counter-kind series over the trailing
  /// `window_s` seconds (sum of deltas / actual covered time). Series
  /// matching is by exact key OR bare metric name (aggregates across all
  /// labeled series of that name). NaN when nothing matches or fewer than
  /// two intervals are retained.
  double Rate(const std::string& key_or_name, double window_s) const;

  /// Worst (maximum) latest value across every series matching the exact
  /// key or bare name; NaN when nothing matches.
  double MaxValue(const std::string& key_or_name) const;

  /// Interval-accurate quantile of histogram `name{labels}` over the
  /// trailing `window_s` seconds, rebuilt from the retained per-interval
  /// bucket deltas. Returns NaN for unknown histograms or empty windows.
  double HistogramQuantile(const std::string& key, double window_s,
                           double q) const;

  /// {"series": [...], "interval_ms": N, "scrapes": N, ...}
  std::string SeriesListJson() const;

  /// Points of every series whose key or bare name matches `metric`,
  /// limited to the trailing `range_s` seconds:
  /// {"metric": ..., "series": [{"key", "kind", "points": [[t_ms, value,
  /// rate_per_s], ...]}, ...]}. Histogram-backed keys additionally carry
  /// interval-accurate "p50"/"p99" arrays.
  std::string RangeJson(const std::string& metric, double range_s) const;

  /// Pre-rendered forensic rows for the flight recorder: the newest
  /// `last_k` intervals of every retained series (values for gauges,
  /// per-second rates for counters). Invokes `fn(key, kind, t_ns[],
  /// values[])` once per series under the ring lock.
  void VisitTail(size_t last_k,
                 const std::function<void(const std::string& key,
                                          SeriesKind kind,
                                          const std::vector<uint64_t>& t_ns,
                                          const std::vector<double>& values)>&
                     fn) const;

 private:
  struct Series {
    std::string key;   // "name" or "name{labels}"
    std::string name;  // bare metric name (for aggregate matching)
    SeriesKind kind = SeriesKind::kCounter;
    double last = 0.0;  // newest scraped cumulative/gauge value
    double base = 0.0;  // value just before the oldest retained interval
    bool seen = false;  // scraped at least once
  };
  struct HistSlot {
    std::string key;  // "name{labels}" of the histogram family
    uint32_t count_series = 0;  // index of the `name_count` scalar series
    std::unique_ptr<uint64_t[]> last_buckets;  // [Histogram::kNumBuckets]
  };
  // Slab entries: trivially default-constructible on purpose, so the
  // slabs allocate without zero-filling (every write sets all fields; a
  // default member initialiser would bring the zero-fill back, which the
  // constructor's static_assert rejects).
  struct Point {
    uint32_t series;
    double value;  // delta (counter) or value (gauge)
  };
  struct BucketDelta {
    uint32_t hist;
    uint32_t bucket;
    uint64_t delta;
  };
  struct Interval {
    uint64_t t_ns = 0;
    uint32_t npoints = 0;
    uint32_t nbuckets = 0;
    uint32_t dropped_points = 0;
    uint32_t dropped_buckets = 0;
  };
  // Registry entry index -> series/hist slots. The registry is append-only
  // in registration order, so after first sight every scrape resolves a
  // metric by position — no string compares, no allocation.
  struct EntryMap {
    uint32_t primary = 0xffffffffu;  // counter/gauge sid; hist `_count` sid
    uint32_t sum = 0xffffffffu;      // hist `_sum` sid
    uint32_t hist = 0xffffffffu;     // HistSlot index
  };

  // All require mu_ held.
  // Per-scrape cursor; kept out of the Visit lambda so the callback
  // captures two pointers and stays inside std::function's inline buffer
  // (a larger capture would heap-allocate on every scrape).
  struct ScrapeCtx {
    size_t entry_idx = 0;
    Interval* iv = nullptr;
    Point* points = nullptr;
    BucketDelta* buckets = nullptr;
  };
  void ScrapeEntry(const MetricRef& m, ScrapeCtx& ctx);
  uint32_t FindOrAddSeries(const std::string& name, const std::string& labels,
                           SeriesKind kind);
  uint32_t FindOrAddHist(const std::string& name, const std::string& labels,
                         uint32_t count_series);
  void FoldOut(size_t slot);  // evict: fold slot's deltas into series bases
  size_t RetainedLocked() const;
  // Reconstructs series `sid` across the newest `max_intervals` intervals.
  std::vector<TimeSeriesPoint> WindowLocked(uint32_t sid,
                                            size_t max_intervals) const;
  std::vector<uint32_t> MatchLocked(const std::string& key_or_name) const;

  TimeSeriesOptions options_;
  mutable std::mutex mu_;
  std::vector<Series> series_;
  std::vector<HistSlot> hists_;
  std::vector<EntryMap> entry_map_;
  std::vector<Interval> intervals_;      // ring, capacity slots
  // Uninitialised slabs; slot k's slice is valid up to its npoints /
  // nbuckets.
  std::unique_ptr<Point[]> points_;         // capacity × max_points
  std::unique_ptr<BucketDelta[]> buckets_;  // capacity × max_bucket_deltas
  uint64_t seq_ = 0;                     // scrapes folded into the ring
  std::atomic<uint64_t> scrapes_{0};
  uint64_t dropped_points_ = 0;
  uint64_t dropped_series_ = 0;  // registry entries beyond max_series
};

class AlertEngine;
class FlightRecorder;

/// Owns the scrape thread: every `interval_ms` it scrapes the registry
/// into the ring, evaluates the alert engine, and (on cadence or request)
/// spills the flight-recorder segment. Start() is a no-op under
/// STREAMOP_NO_STATS — the thread entry point StreamopTimeseriesSamplerMain
/// is only compiled when stats are enabled.
class TimeSeriesSampler {
 public:
  struct Options {
    uint64_t interval_ms = 250;
    MetricRegistry* registry = nullptr;  // nullptr = process default
    TimeSeries* timeseries = nullptr;    // required
    AlertEngine* alerts = nullptr;       // optional
    FlightRecorder* recorder = nullptr;  // optional
  };

  explicit TimeSeriesSampler(Options options);
  ~TimeSeriesSampler();

  TimeSeriesSampler(const TimeSeriesSampler&) = delete;
  TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;

  Status Start();
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  uint64_t ticks() const { return ticks_.load(std::memory_order_relaxed); }

  /// One sampler tick (scrape + alert evaluation + cadence spill),
  /// callable without the thread for tests and single-shot paths.
  void TickOnce(uint64_t t_ns = NowNanos());

 private:
#ifndef STREAMOP_NO_STATS
  friend void* ::StreamopTimeseriesSamplerMain(void*);
#endif
  void Loop();

  Options options_;
  std::thread thread_;
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> ticks_{0};
};

}  // namespace obs
}  // namespace streamop

#endif  // STREAMOP_OBS_TIMESERIES_H_
