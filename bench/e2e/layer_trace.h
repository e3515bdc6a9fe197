// LayerTrace: the benchmark's in-memory span recorder.
//
// The traced run wraps every call it makes into a pipeline layer in a
// span (name, start, end, parent, batch or window id). Spans nest: a span
// opened while another is open is its child, and a layer's self time is
// its span's duration minus what its children cover. Per-name totals are
// kept for every span; the spans themselves are kept up to a cap and
// written out as chrome-trace JSON when the run ends.

#ifndef STREAMOP_BENCH_E2E_LAYER_TRACE_H_
#define STREAMOP_BENCH_E2E_LAYER_TRACE_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace streamop {
namespace e2e {

class LayerTrace {
 public:
  struct Totals {
    const char* name = nullptr;
    uint64_t calls = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;
  };

  /// RAII span. Rename() relabels the span before it closes, for calls
  /// whose layer is known only afterwards (a high-level batch that closed
  /// a window is a boundary, not an admission).
  class Scope {
   public:
    Scope(LayerTrace* trace, const char* name, uint64_t id)
        : trace_(trace), name_(name) {
      trace_->Begin(id);
    }
    ~Scope() { trace_->End(name_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void Rename(const char* name) { name_ = name; }

   private:
    LayerTrace* trace_;
    const char* name_;
  };

  explicit LayerTrace(size_t max_kept_spans = 200000)
      : max_kept_(max_kept_spans) {}

  Scope Span(const char* name, uint64_t id) { return Scope(this, name, id); }

  /// Forgets every span and total (between traced iterations).
  void Reset() {
    open_.clear();
    kept_.clear();
    totals_.clear();
    root_ns_ = 0;
    next_id_ = 1;
  }

  const std::vector<Totals>& totals() const { return totals_; }
  Totals Get(const char* name) const {
    for (const Totals& t : totals_) {
      if (std::strcmp(t.name, name) == 0) return t;
    }
    return Totals{name, 0, 0, 0};
  }
  /// Sum of the durations of spans with no parent: the traced wall time
  /// that some layer accounts for.
  uint64_t root_ns() const { return root_ns_; }

  /// Chrome trace-event JSON (load in chrome://tracing or Perfetto).
  std::string ChromeJson() const {
    std::string out = "{\"traceEvents\": [\n";
    // Spans are kept as they close, children before their parents, so the
    // earliest start is not necessarily the first one kept.
    uint64_t t0 = UINT64_MAX;
    for (const Kept& s : kept_) t0 = std::min(t0, s.start_ns);
    char buf[256];
    for (size_t i = 0; i < kept_.size(); ++i) {
      const Kept& s = kept_[i];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                    "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                    "{\"id\": %u, \"parent\": %u, \"batch\": %llu}}",
                    i == 0 ? "" : ",\n", s.name,
                    static_cast<double>(s.start_ns - t0) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id,
                    s.parent, static_cast<unsigned long long>(s.batch));
      out += buf;
    }
    out += "\n]}\n";
    return out;
  }

  /// Per-layer self-time table over `wall_ns` of traced wall time.
  std::string SelfTimeTable(uint64_t wall_ns) const {
    std::string out;
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%-36s %10s %12s %12s %8s\n", "layer",
                  "calls", "total_ms", "self_ms", "self_%");
    out += buf;
    const double wall = wall_ns > 0 ? static_cast<double>(wall_ns) : 1.0;
    for (const Totals& t : totals_) {
      std::snprintf(buf, sizeof(buf), "%-36s %10llu %12.3f %12.3f %8.2f\n",
                    t.name, static_cast<unsigned long long>(t.calls),
                    static_cast<double>(t.total_ns) / 1e6,
                    static_cast<double>(t.self_ns) / 1e6,
                    100.0 * static_cast<double>(t.self_ns) / wall);
      out += buf;
    }
    const uint64_t unattributed = wall_ns > root_ns_ ? wall_ns - root_ns_ : 0;
    std::snprintf(buf, sizeof(buf), "%-36s %10s %12s %12.3f %8.2f\n",
                  "(unattributed)", "", "",
                  static_cast<double>(unattributed) / 1e6,
                  100.0 * static_cast<double>(unattributed) / wall);
    out += buf;
    return out;
  }

 private:
  struct Open {
    uint32_t id;
    uint32_t parent;
    uint64_t batch;
    uint64_t start_ns;
    uint64_t child_ns;
  };
  struct Kept {
    const char* name;
    uint32_t id;
    uint32_t parent;
    uint64_t batch;
    uint64_t start_ns;
    uint64_t end_ns;
  };

  void Begin(uint64_t batch) {
    const uint32_t parent = open_.empty() ? 0 : open_.back().id;
    open_.push_back(Open{next_id_++, parent, batch, obs::NowNanos(), 0});
  }

  void End(const char* name) {
    const uint64_t end = obs::NowNanos();
    const Open o = open_.back();
    open_.pop_back();
    const uint64_t dur = end - o.start_ns;
    if (open_.empty()) {
      root_ns_ += dur;
    } else {
      open_.back().child_ns += dur;
    }
    Totals* t = Find(name);
    ++t->calls;
    t->total_ns += dur;
    t->self_ns += dur - std::min(dur, o.child_ns);
    if (kept_.size() < max_kept_) {
      kept_.push_back(Kept{name, o.id, o.parent, o.batch, o.start_ns, end});
    }
  }

  Totals* Find(const char* name) {
    for (Totals& t : totals_) {
      if (t.name == name || std::strcmp(t.name, name) == 0) return &t;
    }
    totals_.push_back(Totals{name, 0, 0, 0});
    return &totals_.back();
  }

  size_t max_kept_;
  std::vector<Open> open_;
  std::vector<Kept> kept_;
  std::vector<Totals> totals_;
  uint64_t root_ns_ = 0;
  uint32_t next_id_ = 1;
};

}  // namespace e2e
}  // namespace streamop

#endif  // STREAMOP_BENCH_E2E_LAYER_TRACE_H_
