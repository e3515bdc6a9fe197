// Flight recorder: spills the metrics time-series tail, the alert board
// (states + recent transitions) and the newest spans to a small
// CRC-guarded on-disk segment, so a SIGKILLed process leaves behind the
// last minute of its own telemetry. TwoLevelRuntime loads the segment on
// the next start and surfaces it as a post-crash forensic report
// (last-K-intervals table + fired alerts) on stderr and over HTTP
// (/forensics) — the aircraft-accident workflow for a stream engine.
//
// Segment format (little-endian, mirrors the checkpoint framing of
// engine/checkpoint.h without depending on it):
//   [0..4)   magic "SOPF"
//   [4..8)   version u32
//   [8..16)  written_at_ns u64
//   [16..24) payload length u64
//   [24..28) payload CRC-32C
//   [28..32) header CRC-32C over bytes [0..28)
//   [32.. )  payload (ByteWriter sections)
// Written atomically: temp file + fsync + rename, then directory fsync —
// a torn spill can only ever lose the newest segment, never corrupt it.

#ifndef STREAMOP_OBS_FLIGHT_RECORDER_H_
#define STREAMOP_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/alerts.h"
#include "obs/span.h"
#include "obs/timeseries.h"

namespace streamop {
namespace obs {

struct FlightRecorderOptions {
  std::string dir;  // empty = disabled
  /// Spill cadence in sampler ticks (e.g. 4 ticks at 250ms = once per
  /// second). The runtime additionally requests a spill at every
  /// checkpoint write so the segment and the durable state stay in step.
  uint64_t spill_every_n_ticks = 4;
  /// How many trailing intervals each series keeps in the segment.
  size_t last_k_intervals = 48;
  /// Newest spans spilled alongside the table.
  size_t max_spans = 64;
  SpanRing* span_ring = nullptr;  // nullptr = process default
};

/// A decoded segment, independent of the live objects that produced it.
struct ForensicReport {
  bool valid = false;
  std::string path;
  uint64_t written_at_ns = 0;
  uint64_t scrapes = 0;
  uint64_t interval_ms = 0;

  struct SeriesRow {
    std::string key;
    uint8_t kind = 0;            // SeriesKind
    std::vector<uint64_t> t_ns;  // oldest first
    std::vector<double> values;  // rate/s for counters, value for gauges
  };
  std::vector<SeriesRow> rows;

  struct AlertRow {
    std::string name;
    std::string severity;
    std::string state;
    double value = 0.0;
    double threshold = 0.0;
    uint64_t times_fired = 0;
  };
  std::vector<AlertRow> alerts;

  struct TransitionRow {
    uint64_t t_ns = 0;
    std::string rule;
    std::string from;
    std::string to;
    double value = 0.0;
  };
  std::vector<TransitionRow> transitions;

  struct SpanRow {
    std::string name;
    uint64_t window_seq = 0;
    uint64_t ts_ns = 0;
    uint64_t dur_ns = 0;
    uint64_t rows = 0;
  };
  std::vector<SpanRow> spans;

  /// Number of alert rows currently firing.
  size_t fired_alerts() const;

  /// Human-readable post-crash report: fired alerts, the transition log
  /// and a last-K-intervals table of the headline series.
  std::string ToText() const;
  std::string ToJson() const;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderOptions options);

  const FlightRecorderOptions& options() const { return options_; }
  bool enabled() const { return !options_.dir.empty(); }

  /// Serializes the current telemetry tail and writes the segment
  /// atomically. Called from the sampler thread; also safe standalone.
  Status Spill(const TimeSeries& ts, const AlertEngine* alerts);

  /// Cadence gate used by the sampler: spills when `tick` hits the
  /// configured cadence or a spill was requested (checkpoint hook).
  void MaybeSpill(const TimeSeries& ts, const AlertEngine* alerts,
                  uint64_t tick);

  /// Asks the sampler to spill on its next tick — the checkpoint-cadence
  /// integration point; callable from any thread.
  void RequestSpill() {
    spill_requested_.store(true, std::memory_order_release);
  }

  uint64_t spills() const { return spills_.load(std::memory_order_relaxed); }
  uint64_t spill_failures() const {
    return spill_failures_.load(std::memory_order_relaxed);
  }
  uint64_t last_spill_ns() const {
    return last_spill_ns_.load(std::memory_order_relaxed);
  }

  std::string segment_path() const;

  /// Loads and verifies the segment under `dir`. NotFound when no segment
  /// exists; DataLoss when the file is torn or fails its CRCs.
  static Result<ForensicReport> Load(const std::string& dir);

  static constexpr uint32_t kMagic = 0x46504f53;  // "SOPF" little-endian
  static constexpr uint32_t kVersion = 1;
  static constexpr size_t kHeaderSize = 32;

 private:
  FlightRecorderOptions options_;
  std::mutex spill_mu_;
  size_t last_segment_size_ = 0;  // of the last spill written; spill_mu_
  std::atomic<bool> spill_requested_{false};
  std::atomic<uint64_t> spills_{0};
  std::atomic<uint64_t> spill_failures_{0};
  std::atomic<uint64_t> last_spill_ns_{0};
};

}  // namespace obs
}  // namespace streamop

#endif  // STREAMOP_OBS_FLIGHT_RECORDER_H_
