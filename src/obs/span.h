// Causal window-lifecycle spans: the one event record of the observability
// layer, next to the metric registry (counters/gauges/histograms) and the
// per-window quality reports. The SpanRing stitches each window's
// lifecycle — ring drain → batch select → admission → clean → flush →
// quality report — into a parent/child tree rooted at one "window" span per
// closed window, carrying the batch counts, shed probability,
// Horvitz–Thompson weight and subset-sum threshold context the phases ran
// under.
//
// Span model:
//  * Every span has a process-unique id (relaxed atomic counter) and a
//    parent id (0 = root). The operator allocates the window span's id when
//    the window opens, so phase spans emitted mid-window can reference
//    their parent before it is emitted; the window span itself is written
//    last, at flush time, covering open → flush.
//  * Batch-level spans ("ring_drain", "batch_select", "admission") attach
//    to the window open when the phase completes; a batch straddling a
//    boundary attributes its phases to the window each phase fed. The
//    drain span is emitted by the runtime, which learns the window span id
//    through the SpanContext it threads through QueryNode::PushBatch →
//    SamplingOperator::ProcessBatch (context propagation, not guesswork).
//  * Window-level spans ("clean", "flush", "quality_report") are children
//    of the window span directly. A "clean" span carries the cleaned
//    supergroup's threshold z after the phase, a "flush" span the window's
//    largest z after the final adjustment (0 = no threshold sampler).
//
// Each phase reads the clock once at its start and once at its end; the
// same duration feeds the span, the phase's histogram and the profiler's
// phase totals. Disabled, a record site is one relaxed bool load; enabled,
// Emit() claims a slot with one relaxed fetch_add and writes fixed-size
// fields in place — no allocation, oldest spans overwritten. The slots
// themselves are allocated by the first set_enabled(true), so a ring that
// is never enabled (every operator points at the default one) commits
// none of them. Slot fields are individually atomic (relaxed) so a
// concurrent /spans export never races the writer; a snapshot taken
// mid-write may see a torn span (documented, tolerated by the
// exporters). STREAMOP_NO_STATS folds every record site away; the export
// surface stays (serving empty rings), mirroring the HTTP server's
// contract.

#ifndef STREAMOP_OBS_SPAN_H_
#define STREAMOP_OBS_SPAN_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace streamop {
namespace obs {

/// One completed span. `name` must be a string literal (the ring stores the
/// pointer). A parent_id of 0 marks a root span; window_seq ties the span
/// to a window lifecycle (1-based; 0 = outside any window).
struct SpanRecord {
  const char* name = nullptr;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
  uint64_t window_seq = 0;
  uint64_t ts_ns = 0;
  uint64_t dur_ns = 0;
  uint64_t rows = 0;        // tuples/lanes the span covered
  uint64_t admitted = 0;    // lanes admitted past WHERE (admission spans)
  double shed_p = 1.0;      // upstream Bernoulli admission probability
  double max_weight = 1.0;  // largest HT weight seen in scope
  double z = 0.0;           // subset-sum threshold (clean/flush; 0 = none)
};

/// Per-batch causal context threaded by the runtime through
/// QueryNode::PushBatch into SamplingOperator::ProcessBatch. The runtime
/// fills the upstream fields; the operator reports back the window it fed
/// so the runtime's drain span can parent itself under the window root.
struct SpanContext {
  // Set by the caller (the ring-drain loop).
  double shed_p = 1.0;   // post-tick admission probability of this batch
  uint64_t rows = 0;     // packets popped from the ring for this batch
  // Filled by the sampling operator: the last window this batch touched.
  uint64_t window_span_id = 0;
  uint64_t window_seq = 0;
};

class SpanRing {
 public:
  /// Process-wide default ring, shared by the operator and the runtime.
  static SpanRing& Default();

  explicit SpanRing(size_t capacity = 4096);
  ~SpanRing();

  SpanRing(const SpanRing&) = delete;
  SpanRing& operator=(const SpanRing&) = delete;

  /// The first enable allocates and publishes the slots; after that,
  /// enabling and disabling only flip the flag.
  void set_enabled(bool on);
  bool enabled() const {
    return kStatsEnabled && enabled_.load(std::memory_order_relaxed);
  }

  /// Allocates a span id without writing anything — used by the operator to
  /// name the window span at open time so children can parent under it.
  uint64_t NextId() {
    if constexpr (kStatsEnabled) {
      return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
    }
    return 0;
  }

  /// Records a completed span. r.span_id of 0 draws a fresh id; the id
  /// actually used is returned (0 when disabled).
  uint64_t Emit(const SpanRecord& r) {
    if constexpr (kStatsEnabled) {
      if (!enabled()) return 0;
      const uint64_t id = r.span_id != 0 ? r.span_id : NextId();
      Put(r, id);
      return id;
    }
    return 0;
  }

  /// Total spans ever emitted (>= capacity means overwrites happened).
  uint64_t spans_recorded() const {
    return seq_.load(std::memory_order_relaxed);
  }
  size_t capacity() const { return cap_; }

  /// Copies out the retained spans, oldest first by start timestamp.
  std::vector<SpanRecord> Snapshot() const;

  /// Chrome trace format ({"traceEvents": [...]}): complete "X" events with
  /// span/parent/window ids and the shed/weight/z context in args, timestamps
  /// rebased to the earliest retained span, in microseconds.
  std::string ToChromeTraceJson() const;

  /// Flat JSON span list: {"spans": [...]}.
  std::string ToJson() const;

  /// Spans of one window lifecycle (window_seq == seq), as JSON.
  std::string WindowJson(uint64_t window_seq) const;

 private:
  // Individually-atomic slot fields: writers store relaxed, snapshots load
  // relaxed. A reader overlapping a writer sees a torn span at worst, never
  // a data race.
  struct Slot {
    std::atomic<const char*> name{nullptr};
    std::atomic<uint64_t> span_id{0};
    std::atomic<uint64_t> parent_id{0};
    std::atomic<uint64_t> window_seq{0};
    std::atomic<uint64_t> ts_ns{0};
    std::atomic<uint64_t> dur_ns{0};
    std::atomic<uint64_t> rows{0};
    std::atomic<uint64_t> admitted{0};
    std::atomic<double> shed_p{1.0};
    std::atomic<double> max_weight{1.0};
    std::atomic<double> z{0.0};
  };

  void Put(const SpanRecord& r, uint64_t id) {
    // Null only while a first enable on another thread is still publishing.
    Slot* const slots = slots_.load(std::memory_order_acquire);
    if (slots == nullptr) return;
    const uint64_t s = seq_.fetch_add(1, std::memory_order_relaxed);
    Slot& slot = slots[s % cap_];
    slot.name.store(r.name, std::memory_order_relaxed);
    slot.span_id.store(id, std::memory_order_relaxed);
    slot.parent_id.store(r.parent_id, std::memory_order_relaxed);
    slot.window_seq.store(r.window_seq, std::memory_order_relaxed);
    slot.ts_ns.store(r.ts_ns, std::memory_order_relaxed);
    slot.dur_ns.store(r.dur_ns, std::memory_order_relaxed);
    slot.rows.store(r.rows, std::memory_order_relaxed);
    slot.admitted.store(r.admitted, std::memory_order_relaxed);
    slot.shed_p.store(r.shed_p, std::memory_order_relaxed);
    slot.max_weight.store(r.max_weight, std::memory_order_relaxed);
    slot.z.store(r.z, std::memory_order_relaxed);
  }

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> seq_{0};
  std::atomic<uint64_t> next_id_{0};
  // cap_ slots (atomics, so a plain array), owned; null until the first
  // enable. Published with release after construction and read with
  // acquire, so no reader sees a half-built array.
  std::atomic<Slot*> slots_{nullptr};
  size_t cap_ = 0;
};

}  // namespace obs
}  // namespace streamop

#endif  // STREAMOP_OBS_SPAN_H_
