#include "obs/timeseries.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <type_traits>

#include "obs/alerts.h"
#include "obs/flight_recorder.h"

namespace streamop {
namespace obs {

namespace {

constexpr uint32_t kInvalid = 0xffffffffu;

void AppendJsonEscaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
}

void AppendDouble(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

std::string MakeKey(const std::string& name, const std::string& labels) {
  if (labels.empty()) return name;
  std::string key = name;
  key += '{';
  key += labels;
  key += '}';
  return key;
}

}  // namespace

TimeSeries::TimeSeries(TimeSeriesOptions options) : options_(options) {
  if (options_.capacity < 2) options_.capacity = 2;
  if (options_.max_points < 16) options_.max_points = 16;
  if (options_.max_bucket_deltas < 16) options_.max_bucket_deltas = 16;
  static_assert(std::is_trivially_default_constructible_v<Point> &&
                std::is_trivially_default_constructible_v<BucketDelta>);
  intervals_.resize(options_.capacity);
  points_ = std::make_unique_for_overwrite<Point[]>(options_.capacity *
                                                    options_.max_points);
  buckets_ = std::make_unique_for_overwrite<BucketDelta[]>(
      options_.capacity * options_.max_bucket_deltas);
  series_.reserve(options_.max_series);
}

uint32_t TimeSeries::FindOrAddSeries(const std::string& name,
                                     const std::string& labels,
                                     SeriesKind kind) {
  if (series_.size() >= options_.max_series) {
    ++dropped_series_;
    return kInvalid;
  }
  Series s;
  s.key = MakeKey(name, labels);
  s.name = name;
  s.kind = kind;
  series_.push_back(std::move(s));
  return static_cast<uint32_t>(series_.size() - 1);
}

uint32_t TimeSeries::FindOrAddHist(const std::string& name,
                                   const std::string& labels,
                                   uint32_t count_series) {
  HistSlot h;
  h.key = MakeKey(name, labels);
  h.count_series = count_series;
  h.last_buckets = std::make_unique<uint64_t[]>(Histogram::kNumBuckets);
  for (size_t i = 0; i < Histogram::kNumBuckets; ++i) h.last_buckets[i] = 0;
  hists_.push_back(std::move(h));
  return static_cast<uint32_t>(hists_.size() - 1);
}

void TimeSeries::FoldOut(size_t slot) {
  Interval& iv = intervals_[slot];
  const Point* p = &points_[slot * options_.max_points];
  for (uint32_t i = 0; i < iv.npoints; ++i) {
    Series& s = series_[p[i].series];
    if (s.kind == SeriesKind::kCounter) {
      s.base += p[i].value;
    } else {
      s.base = p[i].value;
    }
  }
  iv.npoints = 0;
  iv.nbuckets = 0;
}

void TimeSeries::Scrape(MetricRegistry& reg, uint64_t t_ns) {
  if constexpr (!kStatsEnabled) {
    (void)reg;
    (void)t_ns;
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  const size_t slot = static_cast<size_t>(seq_ % options_.capacity);
  if (seq_ >= options_.capacity) FoldOut(slot);
  Interval& iv = intervals_[slot];
  iv = Interval{};
  iv.t_ns = t_ns;
  Point* points = &points_[slot * options_.max_points];
  BucketDelta* buckets = &buckets_[slot * options_.max_bucket_deltas];

  // entry_map_ mirrors the registry's append-only entry order, so at
  // steady state the scrape resolves every metric without a string
  // compare or an allocation. The callback must capture at most two
  // pointers: std::function stores that inline, anything bigger would
  // heap-allocate per scrape.
  ScrapeCtx ctx{0, &iv, points, buckets};
  reg.Visit([this, &ctx](const MetricRef& m) { ScrapeEntry(m, ctx); });
  ++seq_;
  scrapes_.fetch_add(1, std::memory_order_relaxed);
}

void TimeSeries::ScrapeEntry(const MetricRef& m, ScrapeCtx& ctx) {
  Interval& iv = *ctx.iv;
  Point* points = ctx.points;
  BucketDelta* buckets = ctx.buckets;
  {
    const size_t i = ctx.entry_idx++;
    if (i >= entry_map_.size()) {
      EntryMap em;
      switch (m.kind) {
        case MetricKind::kCounter:
          em.primary = FindOrAddSeries(m.name, m.labels, SeriesKind::kCounter);
          break;
        case MetricKind::kGauge:
          em.primary = FindOrAddSeries(m.name, m.labels, SeriesKind::kGauge);
          break;
        case MetricKind::kHistogram: {
          em.primary =
              FindOrAddSeries(m.name + "_count", m.labels, SeriesKind::kCounter);
          em.sum =
              FindOrAddSeries(m.name + "_sum", m.labels, SeriesKind::kCounter);
          if (em.primary != kInvalid) {
            em.hist = FindOrAddHist(m.name, m.labels, em.primary);
          }
          break;
        }
      }
      entry_map_.push_back(em);
    }
    const EntryMap& em = entry_map_[i];
    auto push_point = [&](uint32_t sid, double raw) {
      if (sid == kInvalid) return;
      Series& s = series_[sid];
      if (s.kind == SeriesKind::kCounter) {
        // First sight folds into the same arithmetic: last starts at 0,
        // so the whole cumulative value becomes this interval's delta.
        const double delta = raw - s.last;
        s.last = raw;
        s.seen = true;
        if (delta == 0.0) return;
        if (iv.npoints >= options_.max_points) {
          ++iv.dropped_points;
          ++dropped_points_;
          return;
        }
        points[iv.npoints++] = Point{sid, delta};
      } else {
        const bool changed = !s.seen || raw != s.last;
        s.last = raw;
        s.seen = true;
        if (!changed) return;
        if (iv.npoints >= options_.max_points) {
          ++iv.dropped_points;
          ++dropped_points_;
          return;
        }
        points[iv.npoints++] = Point{sid, raw};
      }
    };
    switch (m.kind) {
      case MetricKind::kCounter:
        push_point(em.primary, static_cast<double>(m.counter->value()));
        break;
      case MetricKind::kGauge:
        push_point(em.primary, m.gauge->value());
        break;
      case MetricKind::kHistogram: {
        push_point(em.primary, static_cast<double>(m.histogram->count()));
        push_point(em.sum, static_cast<double>(m.histogram->sum()));
        if (em.hist != kInvalid) {
          HistSlot& h = hists_[em.hist];
          for (size_t b = 0; b < Histogram::kNumBuckets; ++b) {
            const uint64_t cur = m.histogram->bucket_count(b);
            const uint64_t delta = cur - h.last_buckets[b];
            if (delta == 0) continue;
            h.last_buckets[b] = cur;
            if (iv.nbuckets >= options_.max_bucket_deltas) {
              ++iv.dropped_buckets;
              continue;
            }
            buckets[iv.nbuckets++] =
                BucketDelta{em.hist, static_cast<uint32_t>(b), delta};
          }
        }
        break;
      }
    }
  }
}

size_t TimeSeries::num_series() const {
  std::lock_guard<std::mutex> lock(mu_);
  return series_.size();
}

uint64_t TimeSeries::dropped_points() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_points_;
}

uint64_t TimeSeries::dropped_series() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_series_;
}

std::vector<std::string> TimeSeries::SeriesKeys() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(series_.size());
  for (const Series& s : series_) out.push_back(s.key);
  return out;
}

size_t TimeSeries::RetainedLocked() const {
  return static_cast<size_t>(
      std::min<uint64_t>(seq_, options_.capacity));
}

std::vector<TimeSeriesPoint> TimeSeries::WindowLocked(
    uint32_t sid, size_t max_intervals) const {
  std::vector<TimeSeriesPoint> out;
  if (sid >= series_.size()) return out;
  const Series& s = series_[sid];
  const size_t retained = RetainedLocked();
  if (retained == 0) return out;
  const size_t emit_from = retained > max_intervals ? retained - max_intervals
                                                    : 0;
  out.reserve(retained - emit_from);
  double value = s.base;  // value just before the oldest retained interval
  for (size_t k = 0; k < retained; ++k) {
    const uint64_t global = seq_ - retained + k;
    const size_t slot = static_cast<size_t>(global % options_.capacity);
    const Interval& iv = intervals_[slot];
    const Point* p = &points_[slot * options_.max_points];
    double delta = 0.0;
    bool hit = false;
    for (uint32_t i = 0; i < iv.npoints; ++i) {
      if (p[i].series == sid) {
        hit = true;
        if (s.kind == SeriesKind::kCounter) {
          delta = p[i].value;
          value += delta;
        } else {
          value = p[i].value;
        }
        break;
      }
    }
    (void)hit;
    if (k >= emit_from) {
      out.push_back(TimeSeriesPoint{iv.t_ns, value, delta});
    }
  }
  return out;
}

std::vector<uint32_t> TimeSeries::MatchLocked(
    const std::string& key_or_name) const {
  std::vector<uint32_t> out;
  for (uint32_t i = 0; i < series_.size(); ++i) {
    if (series_[i].key == key_or_name || series_[i].name == key_or_name) {
      out.push_back(i);
    }
  }
  return out;
}

std::vector<TimeSeriesPoint> TimeSeries::Window(const std::string& key,
                                                size_t max_intervals) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (uint32_t i = 0; i < series_.size(); ++i) {
    if (series_[i].key == key) return WindowLocked(i, max_intervals);
  }
  return {};
}

double TimeSeries::LatestValue(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Series& s : series_) {
    if (s.key == key) return s.seen ? s.last : std::nan("");
  }
  return std::nan("");
}

double TimeSeries::MaxValue(const std::string& key_or_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double worst = std::nan("");
  for (const Series& s : series_) {
    if (!s.seen) continue;
    if (s.key != key_or_name && s.name != key_or_name) continue;
    if (std::isnan(worst) || s.last > worst) worst = s.last;
  }
  return worst;
}

double TimeSeries::Rate(const std::string& key_or_name,
                        double window_s) const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t retained = RetainedLocked();
  if (retained < 2) return std::nan("");
  double total_delta = 0.0;
  bool any = false;
  // Interval k's delta covers (t_{k-1}, t_k]; include intervals newer than
  // the cutoff and measure the span from the predecessor of the oldest
  // included interval. When the window covers everything retained, the
  // oldest interval's own span is unknown — its delta is excluded.
  const size_t newest_slot =
      static_cast<size_t>((seq_ - 1) % options_.capacity);
  const uint64_t t_newest = intervals_[newest_slot].t_ns;
  const uint64_t window_ns =
      static_cast<uint64_t>(window_s * 1e9);
  size_t oldest_included = retained;  // index in [0, retained)
  for (size_t k = 0; k < retained; ++k) {
    const uint64_t global = seq_ - retained + k;
    const size_t slot = static_cast<size_t>(global % options_.capacity);
    if (t_newest - intervals_[slot].t_ns <= window_ns) {
      oldest_included = k;
      break;
    }
  }
  if (oldest_included >= retained) return std::nan("");
  size_t first_counted = oldest_included;
  uint64_t t_span_start;
  if (oldest_included == 0) {
    first_counted = 1;  // span before interval 0 is unknown
    t_span_start =
        intervals_[static_cast<size_t>((seq_ - retained) %
                                       options_.capacity)].t_ns;
  } else {
    const uint64_t global = seq_ - retained + oldest_included - 1;
    t_span_start =
        intervals_[static_cast<size_t>(global % options_.capacity)].t_ns;
  }
  if (t_newest <= t_span_start) return std::nan("");
  // Match inline rather than via MatchLocked(): the alert engine calls
  // Rate() once per rule per evaluation, and building a matched-id vector
  // here would put an allocation on that path.
  for (uint32_t sid = 0; sid < series_.size(); ++sid) {
    const Series& s = series_[sid];
    if (s.kind != SeriesKind::kCounter) continue;
    if (s.key != key_or_name && s.name != key_or_name) continue;
    any = true;
    for (size_t k = first_counted; k < retained; ++k) {
      const uint64_t global = seq_ - retained + k;
      const size_t slot = static_cast<size_t>(global % options_.capacity);
      const Interval& iv = intervals_[slot];
      const Point* p = &points_[slot * options_.max_points];
      for (uint32_t i = 0; i < iv.npoints; ++i) {
        if (p[i].series == sid) {
          total_delta += p[i].value;
          break;
        }
      }
    }
  }
  if (!any) return std::nan("");
  return total_delta / (static_cast<double>(t_newest - t_span_start) / 1e9);
}

double TimeSeries::HistogramQuantile(const std::string& key, double window_s,
                                     double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t retained = RetainedLocked();
  if (retained == 0) return std::nan("");
  uint32_t hid = 0xffffffffu;
  for (uint32_t i = 0; i < hists_.size(); ++i) {
    if (hists_[i].key == key) {
      hid = i;
      break;
    }
  }
  if (hid == 0xffffffffu) return std::nan("");
  const size_t newest_slot =
      static_cast<size_t>((seq_ - 1) % options_.capacity);
  const uint64_t t_newest = intervals_[newest_slot].t_ns;
  const uint64_t window_ns = static_cast<uint64_t>(window_s * 1e9);
  uint64_t counts[Histogram::kNumBuckets] = {0};
  uint64_t total = 0;
  for (size_t k = 0; k < retained; ++k) {
    const uint64_t global = seq_ - retained + k;
    const size_t slot = static_cast<size_t>(global % options_.capacity);
    const Interval& iv = intervals_[slot];
    if (t_newest - iv.t_ns > window_ns) continue;
    const BucketDelta* b = &buckets_[slot * options_.max_bucket_deltas];
    for (uint32_t i = 0; i < iv.nbuckets; ++i) {
      if (b[i].hist == hid) {
        counts[b[i].bucket] += b[i].delta;
        total += b[i].delta;
      }
    }
  }
  if (total == 0) return std::nan("");
  const uint64_t target = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  uint64_t seen = 0;
  for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    seen += counts[i];
    if (seen >= target && counts[i] > 0) {
      return static_cast<double>(Histogram::BucketUpperBound(i));
    }
  }
  return static_cast<double>(
      Histogram::BucketUpperBound(Histogram::kNumBuckets - 1));
}

std::string TimeSeries::SeriesListJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"interval_ms\": ";
  out += std::to_string(options_.interval_ms);
  out += ", \"capacity\": " + std::to_string(options_.capacity);
  out += ", \"retained\": " + std::to_string(RetainedLocked());
  out += ", \"scrapes\": " + std::to_string(seq_);
  out += ", \"dropped_points\": " + std::to_string(dropped_points_);
  out += ", \"dropped_series\": " + std::to_string(dropped_series_);
  out += ", \"series\": [";
  for (size_t i = 0; i < series_.size(); ++i) {
    if (i) out += ", ";
    out += "{\"key\": \"";
    AppendJsonEscaped(out, series_[i].key);
    out += "\", \"kind\": \"";
    out += series_[i].kind == SeriesKind::kCounter ? "counter" : "gauge";
    out += "\"}";
  }
  out += "]}";
  return out;
}

std::string TimeSeries::RangeJson(const std::string& metric,
                                  double range_s) const {
  std::unique_lock<std::mutex> lock(mu_);
  const size_t retained = RetainedLocked();
  const size_t max_intervals =
      options_.interval_ms > 0
          ? std::min<size_t>(
                retained,
                static_cast<size_t>(range_s * 1000.0 /
                                        static_cast<double>(
                                            options_.interval_ms) +
                                    1.0))
          : retained;
  std::string out = "{\"metric\": \"";
  AppendJsonEscaped(out, metric);
  out += "\", \"range_s\": ";
  AppendDouble(out, range_s);
  out += ", \"series\": [";
  const std::vector<uint32_t> matched = MatchLocked(metric);
  bool first = true;
  for (uint32_t sid : matched) {
    const std::vector<TimeSeriesPoint> pts = WindowLocked(sid, max_intervals);
    if (!first) out += ", ";
    first = false;
    out += "{\"key\": \"";
    AppendJsonEscaped(out, series_[sid].key);
    out += "\", \"kind\": \"";
    out += series_[sid].kind == SeriesKind::kCounter ? "counter" : "gauge";
    out += "\", \"points\": [";
    uint64_t prev_t = 0;
    for (size_t i = 0; i < pts.size(); ++i) {
      if (i) out += ", ";
      out += "[";
      out += std::to_string(pts[i].t_ns / 1000000);
      out += ", ";
      AppendDouble(out, pts[i].value);
      out += ", ";
      double rate = 0.0;
      if (i > 0 && pts[i].t_ns > prev_t) {
        rate = pts[i].delta /
               (static_cast<double>(pts[i].t_ns - prev_t) / 1e9);
      }
      AppendDouble(out, rate);
      out += "]";
      prev_t = pts[i].t_ns;
    }
    out += "]}";
  }
  out += "], \"histograms\": [";
  // Interval-accurate quantiles for matching histogram families.
  bool hfirst = true;
  for (uint32_t hid = 0; hid < hists_.size(); ++hid) {
    const HistSlot& h = hists_[hid];
    const std::string bare =
        h.key.substr(0, h.key.find('{'));
    if (h.key != metric && bare != metric) continue;
    if (!hfirst) out += ", ";
    hfirst = false;
    out += "{\"key\": \"";
    AppendJsonEscaped(out, h.key);
    out += "\"";
    for (double q : {0.5, 0.99}) {
      out += q == 0.5 ? ", \"p50\": [" : ", \"p99\": [";
      bool pfirst = true;
      for (size_t k = retained > max_intervals ? retained - max_intervals : 0;
           k < retained; ++k) {
        const uint64_t global = seq_ - retained + k;
        const size_t slot = static_cast<size_t>(global % options_.capacity);
        const Interval& iv = intervals_[slot];
        const BucketDelta* b = &buckets_[slot * options_.max_bucket_deltas];
        uint64_t counts[Histogram::kNumBuckets] = {0};
        uint64_t total = 0;
        for (uint32_t i = 0; i < iv.nbuckets; ++i) {
          if (b[i].hist == hid) {
            counts[b[i].bucket] += b[i].delta;
            total += b[i].delta;
          }
        }
        if (!pfirst) out += ", ";
        pfirst = false;
        out += "[";
        out += std::to_string(iv.t_ns / 1000000);
        out += ", ";
        if (total == 0) {
          out += "null";
        } else {
          const uint64_t target = static_cast<uint64_t>(
              std::ceil(q * static_cast<double>(total)));
          uint64_t seen = 0;
          double v = static_cast<double>(
              Histogram::BucketUpperBound(Histogram::kNumBuckets - 1));
          for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
            seen += counts[i];
            if (seen >= target && counts[i] > 0) {
              v = static_cast<double>(Histogram::BucketUpperBound(i));
              break;
            }
          }
          AppendDouble(out, v);
        }
        out += "]";
      }
      out += "]";
    }
    out += "}";
  }
  out += "]}";
  return out;
}

void TimeSeries::VisitTail(
    size_t last_k,
    const std::function<void(const std::string&, SeriesKind,
                             const std::vector<uint64_t>&,
                             const std::vector<double>&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint64_t> t_ns;
  std::vector<double> values;
  for (uint32_t sid = 0; sid < series_.size(); ++sid) {
    if (!series_[sid].seen) continue;
    const std::vector<TimeSeriesPoint> pts = WindowLocked(sid, last_k);
    if (pts.empty()) continue;
    t_ns.clear();
    values.clear();
    uint64_t prev_t = 0;
    for (size_t i = 0; i < pts.size(); ++i) {
      t_ns.push_back(pts[i].t_ns);
      if (series_[sid].kind == SeriesKind::kCounter) {
        double rate = 0.0;
        if (i > 0 && pts[i].t_ns > prev_t) {
          rate = pts[i].delta /
                 (static_cast<double>(pts[i].t_ns - prev_t) / 1e9);
        } else if (options_.interval_ms > 0) {
          rate = pts[i].delta /
                 (static_cast<double>(options_.interval_ms) / 1000.0);
        }
        values.push_back(rate);
      } else {
        values.push_back(pts[i].value);
      }
      prev_t = pts[i].t_ns;
    }
    fn(series_[sid].key, series_[sid].kind, t_ns, values);
  }
}

// ---------------------------------------------------------------------------
// TimeSeriesSampler
// ---------------------------------------------------------------------------

TimeSeriesSampler::TimeSeriesSampler(Options options) : options_(options) {
  if (options_.interval_ms == 0) options_.interval_ms = 250;
  if (options_.registry == nullptr) {
    options_.registry = &MetricRegistry::Default();
  }
}

TimeSeriesSampler::~TimeSeriesSampler() { Stop(); }

void TimeSeriesSampler::TickOnce(uint64_t t_ns) {
  if (options_.timeseries == nullptr) return;
  options_.timeseries->Scrape(*options_.registry, t_ns);
  if (options_.alerts != nullptr) {
    options_.alerts->Evaluate(*options_.timeseries, t_ns);
  }
  if (options_.recorder != nullptr) {
    options_.recorder->MaybeSpill(*options_.timeseries, options_.alerts,
                                  ticks_.load(std::memory_order_relaxed));
  }
  ticks_.fetch_add(1, std::memory_order_relaxed);
}

Status TimeSeriesSampler::Start() {
#ifdef STREAMOP_NO_STATS
  return Status::OK();
#else
  if (options_.timeseries == nullptr) {
    return Status::InvalidArgument("sampler needs a TimeSeries ring");
  }
  if (running_.load(std::memory_order_acquire)) return Status::OK();
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_requested_ = false;
  }
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { StreamopTimeseriesSamplerMain(this); });
  return Status::OK();
#endif
}

void TimeSeriesSampler::Stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_release);
}

void TimeSeriesSampler::Loop() {
#ifndef STREAMOP_NO_STATS
  std::unique_lock<std::mutex> lock(stop_mu_);
  while (!stop_requested_) {
    lock.unlock();
    TickOnce(NowNanos());
    lock.lock();
    stop_cv_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms),
                      [this] { return stop_requested_; });
  }
#endif
}

}  // namespace obs
}  // namespace streamop

#ifndef STREAMOP_NO_STATS
void* StreamopTimeseriesSamplerMain(void* sampler) {
  static_cast<streamop::obs::TimeSeriesSampler*>(sampler)->Loop();
  return nullptr;
}
#endif
