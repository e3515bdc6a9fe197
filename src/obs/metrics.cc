#include "obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace streamop {
namespace obs {

namespace {

// Escapes `"` and `\` so metric keys like `name{node="low"}` embed safely
// in JSON string position.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 4);
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string FullName(const std::string& name, const std::string& labels) {
  if (labels.empty()) return name;
  return name + "{" + labels + "}";
}

void AppendDouble(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out->append(buf);
}

void AppendUInt(std::string* out, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out->append(buf);
}

}  // namespace

uint64_t Histogram::ValueAtQuantile(double q) const {
  const uint64_t total = count();
  if (total == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  auto target = static_cast<uint64_t>(q * static_cast<double>(total) + 0.5);
  if (target < 1) target = 1;
  if (target > total) target = total;
  uint64_t cum = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    cum += bucket_count(i);
    if (cum >= target) return BucketUpperBound(i);
  }
  return BucketUpperBound(kNumBuckets - 1);
}

MetricRegistry& MetricRegistry::Default() {
  static MetricRegistry* reg = new MetricRegistry();
  return *reg;
}

MetricRegistry::Entry* MetricRegistry::Find(const std::string& name,
                                            const std::string& labels) {
  for (Entry& e : entries_) {
    if (e.name == name && e.labels == labels) return &e;
  }
  return nullptr;
}

Counter* MetricRegistry::GetCounter(const std::string& name,
                                    const std::string& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Entry* e = Find(name, labels)) {
    return e->kind == Kind::kCounter ? e->counter : nullptr;
  }
  counters_.emplace_back();
  Entry e;
  e.name = name;
  e.labels = labels;
  e.kind = Kind::kCounter;
  e.counter = &counters_.back();
  entries_.push_back(e);
  return e.counter;
}

Gauge* MetricRegistry::GetGauge(const std::string& name,
                                const std::string& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Entry* e = Find(name, labels)) {
    return e->kind == Kind::kGauge ? e->gauge : nullptr;
  }
  gauges_.emplace_back();
  Entry e;
  e.name = name;
  e.labels = labels;
  e.kind = Kind::kGauge;
  e.gauge = &gauges_.back();
  entries_.push_back(e);
  return e.gauge;
}

Histogram* MetricRegistry::GetHistogram(const std::string& name,
                                        const std::string& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Entry* e = Find(name, labels)) {
    return e->kind == Kind::kHistogram ? e->histogram : nullptr;
  }
  histograms_.emplace_back();
  Entry e;
  e.name = name;
  e.labels = labels;
  e.kind = Kind::kHistogram;
  e.histogram = &histograms_.back();
  entries_.push_back(e);
  return e.histogram;
}

size_t MetricRegistry::num_metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void MetricRegistry::Visit(
    const std::function<void(const MetricRef&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Entry& e : entries_) {
    fn(MetricRef{e.name, e.labels, e.kind, e.counter, e.gauge, e.histogram});
  }
}

std::string MetricRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\n \"counters\": {";
  bool first = true;
  for (const Entry& e : entries_) {
    if (e.kind != Kind::kCounter) continue;
    if (!first) out += ",";
    first = false;
    out += "\n  \"" + JsonEscape(FullName(e.name, e.labels)) + "\": ";
    AppendUInt(&out, e.counter->value());
  }
  out += "\n },\n \"gauges\": {";
  first = true;
  for (const Entry& e : entries_) {
    if (e.kind != Kind::kGauge) continue;
    if (!first) out += ",";
    first = false;
    out += "\n  \"" + JsonEscape(FullName(e.name, e.labels)) + "\": ";
    AppendDouble(&out, e.gauge->value());
  }
  out += "\n },\n \"histograms\": {";
  first = true;
  for (const Entry& e : entries_) {
    if (e.kind != Kind::kHistogram) continue;
    const Histogram& h = *e.histogram;
    if (!first) out += ",";
    first = false;
    out += "\n  \"" + JsonEscape(FullName(e.name, e.labels)) + "\": {";
    out += "\"count\": ";
    AppendUInt(&out, h.count());
    out += ", \"sum\": ";
    AppendUInt(&out, h.sum());
    out += ", \"max\": ";
    AppendUInt(&out, h.max());
    out += ", \"mean\": ";
    AppendDouble(&out, h.mean());
    out += ", \"p50\": ";
    AppendUInt(&out, h.ValueAtQuantile(0.50));
    out += ", \"p90\": ";
    AppendUInt(&out, h.ValueAtQuantile(0.90));
    out += ", \"p99\": ";
    AppendUInt(&out, h.ValueAtQuantile(0.99));
    out += ", \"buckets\": [";
    bool bfirst = true;
    for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      uint64_t c = h.bucket_count(i);
      if (c == 0) continue;  // sparse: only occupied buckets
      if (!bfirst) out += ", ";
      bfirst = false;
      out += "[";
      AppendUInt(&out, Histogram::BucketUpperBound(i));
      out += ", ";
      AppendUInt(&out, c);
      out += "]";
    }
    out += "]}";
  }
  out += "\n }\n}\n";
  return out;
}

std::string MetricRegistry::ToPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Group all samples of a family (same metric name) under one # TYPE
  // line, as the exposition format requires.
  std::vector<std::string> families;
  for (const Entry& e : entries_) {
    if (std::find(families.begin(), families.end(), e.name) ==
        families.end()) {
      families.push_back(e.name);
    }
  }

  std::string out;
  for (const std::string& family : families) {
    const char* type = nullptr;
    bool histogram_family = false;
    for (const Entry& e : entries_) {
      if (e.name != family) continue;
      if (type == nullptr) {
        type = e.kind == Kind::kCounter
                   ? "counter"
                   : e.kind == Kind::kGauge ? "gauge" : "histogram";
        histogram_family = e.kind == Kind::kHistogram;
        out += "# TYPE " + family + " " + type + "\n";
      }
      const std::string label_block =
          e.labels.empty() ? "" : "{" + e.labels + "}";
      switch (e.kind) {
        case Kind::kCounter:
          out += family + label_block + " ";
          AppendUInt(&out, e.counter->value());
          out += "\n";
          break;
        case Kind::kGauge:
          out += family + label_block + " ";
          AppendDouble(&out, e.gauge->value());
          out += "\n";
          break;
        case Kind::kHistogram: {
          const Histogram& h = *e.histogram;
          const std::string sep = e.labels.empty() ? "" : ",";
          uint64_t cum = 0;
          for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
            uint64_t c = h.bucket_count(i);
            if (c == 0) continue;  // cumulative counts stay correct
            cum += c;
            out += family + "_bucket{" + e.labels + sep + "le=\"";
            AppendUInt(&out, Histogram::BucketUpperBound(i));
            out += "\"} ";
            AppendUInt(&out, cum);
            out += "\n";
          }
          out += family + "_bucket{" + e.labels + sep + "le=\"+Inf\"} ";
          AppendUInt(&out, h.count());
          out += "\n";
          out += family + "_sum" + label_block + " ";
          AppendUInt(&out, h.sum());
          out += "\n";
          out += family + "_count" + label_block + " ";
          AppendUInt(&out, h.count());
          out += "\n";
          break;
        }
      }
    }
    if (!histogram_family) continue;
    // Pre-computed quantiles as companion gauge families (family_p50 /
    // family_p90 / family_p99): Prometheus cannot derive accurate
    // percentiles from log-linear buckets server-side, and the JSON export
    // already carries these (keep the two exports in parity).
    static constexpr struct {
      const char* suffix;
      double q;
    } kQuantiles[] = {{"_p50", 0.50}, {"_p90", 0.90}, {"_p99", 0.99}};
    for (const auto& quant : kQuantiles) {
      out += "# TYPE " + family + quant.suffix + " gauge\n";
      for (const Entry& e : entries_) {
        if (e.name != family || e.kind != Kind::kHistogram) continue;
        const std::string label_block =
            e.labels.empty() ? "" : "{" + e.labels + "}";
        out += family + quant.suffix + label_block + " ";
        AppendUInt(&out, e.histogram->ValueAtQuantile(quant.q));
        out += "\n";
      }
    }
  }
  return out;
}

RingBufferMetrics RingBufferMetrics::Create(MetricRegistry& reg,
                                            const std::string& labels) {
  RingBufferMetrics m;
  m.pushes = reg.GetCounter("streamop_ring_pushes_total", labels);
  m.push_failures = reg.GetCounter("streamop_ring_push_failures_total", labels);
  m.pops = reg.GetCounter("streamop_ring_pops_total", labels);
  m.occupancy_hwm = reg.GetGauge("streamop_ring_occupancy_hwm", labels);
  return m;
}

NodeMetrics NodeMetrics::Create(MetricRegistry& reg,
                                const std::string& node_name) {
  const std::string labels = "node=\"" + node_name + "\"";
  NodeMetrics m;
  m.tuples_in = reg.GetCounter("streamop_node_tuples_in_total", labels);
  m.tuples_out = reg.GetCounter("streamop_node_tuples_out_total", labels);
  m.cpu_ns = reg.GetCounter("streamop_node_cpu_ns_total", labels);
  m.batches = reg.GetCounter("streamop_node_batches_total", labels);
  m.batch_latency_ns =
      reg.GetHistogram("streamop_node_batch_latency_ns", labels);
  m.batch_fill = reg.GetHistogram("streamop_batch_fill", labels);
  return m;
}

OperatorMetrics OperatorMetrics::Create(MetricRegistry& reg,
                                        const std::string& node_name) {
  const std::string labels = "node=\"" + node_name + "\"";
  OperatorMetrics m;
  m.tuples = reg.GetCounter("streamop_operator_tuples_total", labels);
  m.admitted = reg.GetCounter("streamop_operator_admitted_total", labels);
  m.groups_created =
      reg.GetCounter("streamop_operator_groups_created_total", labels);
  m.groups_removed =
      reg.GetCounter("streamop_operator_groups_removed_total", labels);
  m.cleaning_phases =
      reg.GetCounter("streamop_operator_cleaning_phases_total", labels);
  m.windows = reg.GetCounter("streamop_operator_windows_total", labels);
  m.rows_out = reg.GetCounter("streamop_operator_rows_out_total", labels);
  m.superagg_updates =
      reg.GetCounter("streamop_operator_superagg_updates_total", labels);
  m.sfun_calls = reg.GetCounter("streamop_operator_sfun_calls_total", labels);
  m.late_tuples =
      reg.GetCounter("streamop_operator_late_tuples_total", labels);
  m.admission_ns =
      reg.GetHistogram("streamop_operator_admission_ns", labels);
  m.cleaning_ns = reg.GetHistogram("streamop_operator_cleaning_ns", labels);
  m.flush_ns = reg.GetHistogram("streamop_operator_flush_ns", labels);
  m.group_table_load_factor =
      reg.GetGauge("streamop_operator_group_table_load_factor", labels);
  m.peak_groups = reg.GetGauge("streamop_operator_peak_groups", labels);
  m.quality_sum_ci95 = reg.GetGauge("streamop_quality_sum_ci95", labels);
  m.quality_threshold_z =
      reg.GetGauge("streamop_quality_threshold_z", labels);
  m.quality_freq_error_bound =
      reg.GetGauge("streamop_quality_freq_error_bound", labels);
  m.quality_distinct_rel_error =
      reg.GetGauge("streamop_quality_distinct_rel_error", labels);
  m.quality_coverage = reg.GetGauge("streamop_quality_coverage", labels);
  m.quality_shed_p_min = reg.GetGauge("streamop_quality_shed_p_min", labels);
  return m;
}

IngestSourceMetrics IngestSourceMetrics::Create(
    MetricRegistry& reg, const std::string& source_name) {
  const std::string labels = "source=\"" + source_name + "\"";
  IngestSourceMetrics m;
  m.frames = reg.GetCounter("streamop_ingest_frames_total", labels);
  m.records = reg.GetCounter("streamop_ingest_records_total", labels);
  m.malformed_frames =
      reg.GetCounter("streamop_ingest_malformed_frames_total", labels);
  m.reconnects = reg.GetCounter("streamop_ingest_reconnects_total", labels);
  m.gaps = reg.GetCounter("streamop_ingest_seq_gaps_total", labels);
  m.gap_records = reg.GetCounter("streamop_ingest_gap_records_total", labels);
  m.duplicates =
      reg.GetCounter("streamop_ingest_duplicate_records_total", labels);
  m.heartbeats = reg.GetCounter("streamop_ingest_heartbeats_total", labels);
  m.durable_offset = reg.GetGauge("streamop_ingest_durable_offset", labels);
  m.resume_offset = reg.GetGauge("streamop_ingest_resume_offset", labels);
  m.offset_lag = reg.GetGauge("streamop_ingest_offset_lag", labels);
  return m;
}

}  // namespace obs
}  // namespace streamop
