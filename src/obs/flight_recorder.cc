#include "obs/flight_recorder.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/file_util.h"
#include "common/serde.h"

namespace streamop {
namespace obs {

namespace {

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

// Compact human form for table cells: 12345678 -> "12.3M".
std::string Humanize(double v) {
  char buf[32];
  const double a = std::fabs(v);
  if (a >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.1fG", v / 1e9);
  } else if (a >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.1fM", v / 1e6);
  } else if (a >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fk", v / 1e3);
  } else if (a >= 10 || v == std::floor(v)) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f", v);
  }
  return buf;
}

}  // namespace

size_t ForensicReport::fired_alerts() const {
  size_t n = 0;
  for (const AlertRow& a : alerts) {
    if (a.state == "firing") ++n;
  }
  return n;
}

FlightRecorder::FlightRecorder(FlightRecorderOptions options)
    : options_(options) {
  if (options_.spill_every_n_ticks == 0) options_.spill_every_n_ticks = 4;
  if (options_.last_k_intervals == 0) options_.last_k_intervals = 48;
  if (options_.span_ring == nullptr) options_.span_ring = &SpanRing::Default();
}

std::string FlightRecorder::segment_path() const {
  return options_.dir + "/flight.seg";
}

void FlightRecorder::MaybeSpill(const TimeSeries& ts,
                                const AlertEngine* alerts, uint64_t tick) {
  const bool requested =
      spill_requested_.exchange(false, std::memory_order_acq_rel);
  if (!requested && (tick == 0 || tick % options_.spill_every_n_ticks != 0)) {
    return;
  }
  (void)Spill(ts, alerts);
}

Status FlightRecorder::Spill(const TimeSeries& ts, const AlertEngine* alerts) {
  if (!enabled()) return Status::OK();
  if constexpr (!kStatsEnabled) return Status::OK();
  std::lock_guard<std::mutex> lock(spill_mu_);
  // The segment is framed in the buffer it is written to: the header's
  // bytes are reserved here and filled in once the payload is complete.
  ByteWriter w;
  w.Reserve(last_segment_size_);  // a segment rarely changes size
  const char header[kHeaderSize] = {};
  w.Raw(header, kHeaderSize);
  w.U64(ts.scrapes());
  w.U64(ts.options().interval_ms);

  // Section 1: the pre-rendered last-K-intervals table. Rendering at
  // spill time (rates already computed) keeps Load() free of any
  // dependency on the live ring's encoding. Each series is written as it
  // is visited, and the count patched in after.
  const size_t nseries_at = w.size();
  w.U64(0);
  uint64_t nseries = 0;
  ts.VisitTail(options_.last_k_intervals,
               [&](const std::string& key, SeriesKind kind,
                   const std::vector<uint64_t>& t_ns,
                   const std::vector<double>& vals) {
                 w.Str(key);
                 w.U8(static_cast<uint8_t>(kind));
                 w.U64(t_ns.size());
                 for (size_t k = 0; k < t_ns.size(); ++k) {
                   w.U64(t_ns[k]);
                   w.F64(vals[k]);
                 }
                 ++nseries;
               });
  w.PatchU64(nseries_at, nseries);

  // Section 2: the alert board + transition log.
  if (alerts != nullptr) {
    w.Bool(true);
    const std::vector<AlertStatus> board = alerts->Snapshot();
    w.U64(board.size());
    for (const AlertStatus& st : board) {
      w.Str(st.rule.name);
      w.Str(AlertSeverityName(st.rule.severity));
      w.Str(AlertStateName(st.state));
      w.F64(st.last_value);
      w.F64(st.rule.threshold);
      w.U64(st.times_fired);
    }
    const std::vector<AlertTransition> log = alerts->Transitions();
    w.U64(log.size());
    for (const AlertTransition& t : log) {
      w.U64(t.t_ns);
      w.Str(t.rule);
      w.Str(AlertStateName(t.from));
      w.Str(AlertStateName(t.to));
      w.F64(t.value);
    }
  } else {
    w.Bool(false);
  }

  // Section 3: the newest spans (names resolved to strings — the ring
  // stores literal pointers that die with the process).
  const std::vector<SpanRecord> spans =
      options_.span_ring->Newest(options_.max_spans);
  w.U64(spans.size());
  for (const SpanRecord& s : spans) {
    w.Str(s.name != nullptr ? s.name : "?");
    w.U64(s.window_seq);
    w.U64(s.ts_ns);
    w.U64(s.dur_ns);
    w.U64(s.rows);
  }

  const uint64_t now = NowNanos();
  const std::string_view payload =
      std::string_view(w.data()).substr(kHeaderSize);
  w.PatchU32(0, kMagic);
  w.PatchU32(4, kVersion);
  w.PatchU64(8, now);
  w.PatchU64(16, payload.size());
  w.PatchU32(24, Crc32c(payload.data(), payload.size()));
  w.PatchU32(28, Crc32c(w.data().data(), 28));

  // The write creates the dir, so a fresh --flight-dir needs no
  // pre-creating, and a recorder that never spills never touches the disk.
  Status st = WriteFileAtomic(options_.dir, "flight.seg", w.data());
  if (!st.ok()) {
    spill_failures_.fetch_add(1, std::memory_order_relaxed);
    return st;
  }
  last_segment_size_ = w.size();
  spills_.fetch_add(1, std::memory_order_relaxed);
  last_spill_ns_.store(now, std::memory_order_relaxed);
  return Status::OK();
}

Result<ForensicReport> FlightRecorder::Load(const std::string& dir) {
  const std::string path = dir + "/flight.seg";
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("no flight segment at " + path);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string bytes = ss.str();
  if (bytes.size() < kHeaderSize) {
    return Status::IOError("flight segment truncated: " + path);
  }
  ByteReader h(bytes.data(), kHeaderSize);
  const uint32_t magic = h.U32();
  const uint32_t version = h.U32();
  const uint64_t written_at = h.U64();
  const uint64_t len = h.U64();
  const uint32_t payload_crc = h.U32();
  const uint32_t header_crc = h.U32();
  if (magic != kMagic) {
    return Status::IOError("flight segment bad magic: " + path);
  }
  if (version != kVersion) {
    return Status::IOError("flight segment unknown version " +
                            std::to_string(version));
  }
  if (Crc32c(bytes.data(), 28) != header_crc) {
    return Status::IOError("flight segment header CRC mismatch: " + path);
  }
  if (bytes.size() != kHeaderSize + len) {
    return Status::IOError("flight segment length mismatch: " + path);
  }
  if (Crc32c(bytes.data() + kHeaderSize, len) != payload_crc) {
    return Status::IOError("flight segment payload CRC mismatch: " + path);
  }

  ByteReader r(std::string_view(bytes).substr(kHeaderSize));
  ForensicReport rep;
  rep.path = path;
  rep.written_at_ns = written_at;
  rep.scrapes = r.U64();
  rep.interval_ms = r.U64();
  const uint64_t nseries = r.U64();
  for (uint64_t i = 0; i < nseries && r.ok(); ++i) {
    ForensicReport::SeriesRow row;
    row.key = r.Str();
    row.kind = r.U8();
    const uint64_t npts = r.U64();
    for (uint64_t k = 0; k < npts && r.ok(); ++k) {
      row.t_ns.push_back(r.U64());
      row.values.push_back(r.F64());
    }
    rep.rows.push_back(std::move(row));
  }
  if (r.Bool()) {
    const uint64_t nalerts = r.U64();
    for (uint64_t i = 0; i < nalerts && r.ok(); ++i) {
      ForensicReport::AlertRow a;
      a.name = r.Str();
      a.severity = r.Str();
      a.state = r.Str();
      a.value = r.F64();
      a.threshold = r.F64();
      a.times_fired = r.U64();
      rep.alerts.push_back(std::move(a));
    }
    const uint64_t nlog = r.U64();
    for (uint64_t i = 0; i < nlog && r.ok(); ++i) {
      ForensicReport::TransitionRow t;
      t.t_ns = r.U64();
      t.rule = r.Str();
      t.from = r.Str();
      t.to = r.Str();
      t.value = r.F64();
      rep.transitions.push_back(std::move(t));
    }
  }
  const uint64_t nspans = r.U64();
  for (uint64_t i = 0; i < nspans && r.ok(); ++i) {
    ForensicReport::SpanRow s;
    s.name = r.Str();
    s.window_seq = r.U64();
    s.ts_ns = r.U64();
    s.dur_ns = r.U64();
    s.rows = r.U64();
    rep.spans.push_back(std::move(s));
  }
  if (!r.ok()) {
    return Status::IOError("flight segment payload malformed: " + path);
  }
  rep.valid = true;
  return rep;
}

std::string ForensicReport::ToText() const {
  std::string out;
  out += "=== flight recorder: pre-crash forensics ===\n";
  out += "segment: " + path + "\n";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "scrapes: %llu  interval: %llums  series: %zu\n",
                static_cast<unsigned long long>(scrapes),
                static_cast<unsigned long long>(interval_ms), rows.size());
  out += buf;

  out += "-- alerts ";
  std::snprintf(buf, sizeof(buf), "(%zu fired) --\n", fired_alerts());
  out += buf;
  for (const AlertRow& a : alerts) {
    if (a.state == "inactive" && a.times_fired == 0) continue;
    std::snprintf(buf, sizeof(buf),
                  "  [%s] %-24s %-8s value=%s threshold=%s fired=%llu\n",
                  a.severity.c_str(), a.name.c_str(), a.state.c_str(),
                  Humanize(a.value).c_str(), Humanize(a.threshold).c_str(),
                  static_cast<unsigned long long>(a.times_fired));
    out += buf;
  }
  if (!transitions.empty()) {
    out += "-- alert transitions (oldest first) --\n";
    for (const TransitionRow& t : transitions) {
      std::snprintf(buf, sizeof(buf), "  t=%llums %-24s %s -> %s (value=%s)\n",
                    static_cast<unsigned long long>(t.t_ns / 1000000),
                    t.rule.c_str(), t.from.c_str(), t.to.c_str(),
                    Humanize(t.value).c_str());
      out += buf;
    }
  }

  // Last-K-intervals table: headline series first (anything that moved),
  // constants suppressed to keep the table readable.
  out += "-- last intervals (counters as rate/s, gauges as value) --\n";
  for (const SeriesRow& row : rows) {
    bool moved = false;
    for (double v : row.values) {
      if (v != 0.0) {
        moved = true;
        break;
      }
    }
    if (!moved) continue;
    std::string line = "  ";
    line += row.key;
    line += ": ";
    const size_t n = row.values.size();
    const size_t from = n > 12 ? n - 12 : 0;
    for (size_t i = from; i < n; ++i) {
      if (i > from) line += " ";
      line += Humanize(row.values[i]);
    }
    line += "\n";
    out += line;
  }

  if (!spans.empty()) {
    out += "-- newest spans --\n";
    const size_t from = spans.size() > 8 ? spans.size() - 8 : 0;
    for (size_t i = from; i < spans.size(); ++i) {
      const SpanRow& s = spans[i];
      std::snprintf(buf, sizeof(buf),
                    "  %-20s window=%llu dur=%lluus rows=%llu\n",
                    s.name.c_str(),
                    static_cast<unsigned long long>(s.window_seq),
                    static_cast<unsigned long long>(s.dur_ns / 1000),
                    static_cast<unsigned long long>(s.rows));
      out += buf;
    }
  }
  out += "=== end forensics ===\n";
  return out;
}

std::string ForensicReport::ToJson() const {
  std::string out = "{\"valid\": ";
  out += valid ? "true" : "false";
  out += ", \"path\": \"";
  AppendJsonEscaped(out, path);
  out += "\", \"written_at_ms\": " + std::to_string(written_at_ns / 1000000);
  out += ", \"scrapes\": " + std::to_string(scrapes);
  out += ", \"interval_ms\": " + std::to_string(interval_ms);
  out += ", \"fired_alerts\": " + std::to_string(fired_alerts());
  out += ", \"alerts\": [";
  for (size_t i = 0; i < alerts.size(); ++i) {
    const AlertRow& a = alerts[i];
    if (i) out += ", ";
    out += "{\"name\": \"";
    AppendJsonEscaped(out, a.name);
    out += "\", \"severity\": \"" + a.severity;
    out += "\", \"state\": \"" + a.state;
    out += "\", \"value\": ";
    AppendDouble(out, a.value);
    out += ", \"threshold\": ";
    AppendDouble(out, a.threshold);
    out += ", \"times_fired\": " + std::to_string(a.times_fired);
    out += "}";
  }
  out += "], \"transitions\": [";
  for (size_t i = 0; i < transitions.size(); ++i) {
    const TransitionRow& t = transitions[i];
    if (i) out += ", ";
    out += "{\"t_ms\": " + std::to_string(t.t_ns / 1000000);
    out += ", \"rule\": \"";
    AppendJsonEscaped(out, t.rule);
    out += "\", \"from\": \"" + t.from + "\", \"to\": \"" + t.to;
    out += "\", \"value\": ";
    AppendDouble(out, t.value);
    out += "}";
  }
  out += "], \"series\": [";
  for (size_t i = 0; i < rows.size(); ++i) {
    const SeriesRow& row = rows[i];
    if (i) out += ", ";
    out += "{\"key\": \"";
    AppendJsonEscaped(out, row.key);
    out += "\", \"kind\": \"";
    out += row.kind == 0 ? "counter" : "gauge";
    out += "\", \"points\": [";
    for (size_t k = 0; k < row.values.size(); ++k) {
      if (k) out += ", ";
      out += "[" + std::to_string(row.t_ns[k] / 1000000) + ", ";
      AppendDouble(out, row.values[k]);
      out += "]";
    }
    out += "]}";
  }
  out += "], \"spans\": [";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRow& s = spans[i];
    if (i) out += ", ";
    out += "{\"name\": \"";
    AppendJsonEscaped(out, s.name);
    out += "\", \"window\": " + std::to_string(s.window_seq);
    out += ", \"ts_ns\": " + std::to_string(s.ts_ns);
    out += ", \"dur_ns\": " + std::to_string(s.dur_ns);
    out += ", \"rows\": " + std::to_string(s.rows);
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace obs
}  // namespace streamop
