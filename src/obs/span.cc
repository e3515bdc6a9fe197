#include "obs/span.h"

#include <algorithm>
#include <cstdio>

namespace streamop {
namespace obs {

namespace {

// Shared row formatter for the flat JSON exports.
void AppendSpanJson(std::string* out, const SpanRecord& s) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"name\": \"%s\", \"span_id\": %llu, \"parent_id\": %llu, "
      "\"window_seq\": %llu, \"ts_ns\": %llu, \"dur_ns\": %llu, "
      "\"rows\": %llu, \"admitted\": %llu, \"shed_p\": %.6g, "
      "\"max_weight\": %.6g, \"z\": %.17g}",
      s.name != nullptr ? s.name : "?",
      static_cast<unsigned long long>(s.span_id),
      static_cast<unsigned long long>(s.parent_id),
      static_cast<unsigned long long>(s.window_seq),
      static_cast<unsigned long long>(s.ts_ns),
      static_cast<unsigned long long>(s.dur_ns),
      static_cast<unsigned long long>(s.rows),
      static_cast<unsigned long long>(s.admitted), s.shed_p, s.max_weight,
      s.z);
  *out += buf;
}

}  // namespace

SpanRing& SpanRing::Default() {
  static SpanRing* ring = new SpanRing();
  return *ring;
}

SpanRing::SpanRing(size_t capacity) : cap_(std::max<size_t>(capacity, 1)) {}

SpanRing::~SpanRing() { delete[] slots_.load(std::memory_order_acquire); }

void SpanRing::set_enabled(bool on) {
  if (kStatsEnabled && on &&
      slots_.load(std::memory_order_acquire) == nullptr) {
    // Slots default shed_p and max_weight to 1.0, so they are constructed,
    // not left as zero pages. A racing first enable keeps one array.
    Slot* fresh = new Slot[cap_];
    Slot* expected = nullptr;
    if (!slots_.compare_exchange_strong(expected, fresh,
                                        std::memory_order_acq_rel)) {
      delete[] fresh;
    }
  }
  enabled_.store(on, std::memory_order_relaxed);
}

std::vector<SpanRecord> SpanRing::Snapshot() const {
  const uint64_t seq = seq_.load(std::memory_order_relaxed);
  const Slot* const slots = slots_.load(std::memory_order_acquire);
  std::vector<SpanRecord> out;
  if (slots == nullptr) return out;
  const size_t n =
      static_cast<size_t>(std::min<uint64_t>(seq, static_cast<uint64_t>(cap_)));
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Slot& s = slots[i];
    SpanRecord r;
    r.name = s.name.load(std::memory_order_relaxed);
    r.span_id = s.span_id.load(std::memory_order_relaxed);
    r.parent_id = s.parent_id.load(std::memory_order_relaxed);
    r.window_seq = s.window_seq.load(std::memory_order_relaxed);
    r.ts_ns = s.ts_ns.load(std::memory_order_relaxed);
    r.dur_ns = s.dur_ns.load(std::memory_order_relaxed);
    r.rows = s.rows.load(std::memory_order_relaxed);
    r.admitted = s.admitted.load(std::memory_order_relaxed);
    r.shed_p = s.shed_p.load(std::memory_order_relaxed);
    r.max_weight = s.max_weight.load(std::memory_order_relaxed);
    r.z = s.z.load(std::memory_order_relaxed);
    if (r.name == nullptr) continue;  // torn with a concurrent first write
    out.push_back(r);
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
              return a.span_id < b.span_id;
            });
  return out;
}

std::string SpanRing::ToChromeTraceJson() const {
  std::vector<SpanRecord> spans = Snapshot();
  const uint64_t base = spans.empty() ? 0 : spans.front().ts_ns;
  std::string out = "{\"traceEvents\": [";
  char buf[640];
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (i > 0) out += ",";
    std::snprintf(
        buf, sizeof(buf),
        "\n {\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, "
        "\"pid\": 1, \"tid\": 1, \"args\": {\"span_id\": %llu, "
        "\"parent_id\": %llu, \"window_seq\": %llu, \"rows\": %llu, "
        "\"admitted\": %llu, \"shed_p\": %.6g, \"max_weight\": %.6g, "
        "\"z\": %.17g}}",
        s.name, static_cast<double>(s.ts_ns - base) / 1000.0,
        static_cast<double>(s.dur_ns) / 1000.0,
        static_cast<unsigned long long>(s.span_id),
        static_cast<unsigned long long>(s.parent_id),
        static_cast<unsigned long long>(s.window_seq),
        static_cast<unsigned long long>(s.rows),
        static_cast<unsigned long long>(s.admitted), s.shed_p, s.max_weight,
        s.z);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

std::string SpanRing::ToJson() const {
  std::vector<SpanRecord> spans = Snapshot();
  std::string out = "{\"spans\": [";
  for (size_t i = 0; i < spans.size(); ++i) {
    if (i > 0) out += ",";
    out += "\n ";
    AppendSpanJson(&out, spans[i]);
  }
  out += spans.empty() ? "]}\n" : "\n]}\n";
  return out;
}

std::string SpanRing::WindowJson(uint64_t window_seq) const {
  std::vector<SpanRecord> spans = Snapshot();
  char head[96];
  std::snprintf(head, sizeof(head), "{\"window_seq\": %llu, \"spans\": [",
                static_cast<unsigned long long>(window_seq));
  std::string out = head;
  bool first = true;
  for (const SpanRecord& s : spans) {
    if (s.window_seq != window_seq) continue;
    if (!first) out += ",";
    first = false;
    out += "\n ";
    AppendSpanJson(&out, s);
  }
  out += first ? "]}\n" : "\n]}\n";
  return out;
}

}  // namespace obs
}  // namespace streamop
