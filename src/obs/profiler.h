// Always-on sampling profiler: a SIGPROF timer-signal stack sampler plus
// per-phase time totals for the pipeline's hot loop.
//
//  * Stack sampler: setitimer(ITIMER_PROF) delivers SIGPROF every 1/hz
//    seconds of consumed CPU time; the handler claims a fixed slot with one
//    relaxed fetch_add and captures a raw backtrace into it — no allocation,
//    no locks, oldest samples overwritten. The ring itself is allocated by
//    Start(), before the timer is armed: an unstarted profiler (the
//    Default() every operator points at) holds none. Symbolization
//    (dladdr) happens only at export time, off the signal path.
//    Folded(seconds) renders the samples of the last N seconds as
//    flamegraph.pl-compatible folded-stack text ("frame;frame;frame
//    count"), served at GET /profile?seconds=N.
//  * Phase totals: the runtime (ring drain) and the operator (batch select,
//    admission, cleaning, flush, quality report) add each phase's duration
//    in nanoseconds, read from the same NowNanos() pair that times the
//    phase's span and histogram, into this class's relaxed atomics — one
//    add per phase per batch, never per tuple. Nested cleaning comes out
//    of admission and the quality report out of flush (a window flush a
//    batch triggers still counts in admission as well). Totals accumulate
//    whenever the caller's metrics are on.
//
// Overhead: at the default 97 Hz a sample costs ~1-2us of handler time, or
// well under 0.1% of CPU — the profiler stays inside the observability
// layer's <= 2% A/B budget with everything else enabled (bench/micro_obs.cc
// measures exactly this). At most one profiler is active per process (the
// signal handler needs a process-wide target).
//
// STREAMOP_NO_STATS compiles the sampler and the phase totals out:
// Start() becomes a no-op, record sites constant-fold away, and the signal
// handler is not even compiled into the library (CI asserts the symbol is
// absent from NO_STATS builds).

#ifndef STREAMOP_OBS_PROFILER_H_
#define STREAMOP_OBS_PROFILER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "obs/metrics.h"

namespace streamop {
namespace obs {

class Profiler {
 public:
  /// Hot-loop phases, in lifecycle order. kDrain is the runtime's ring-pop
  /// + batch-build phase; the rest are the operator's.
  enum Phase : uint32_t {
    kDrain = 0,
    kBatchSelect,
    kAdmission,
    kClean,
    kFlush,
    kQuality,
    kNumPhases,
  };
  static const char* PhaseName(uint32_t phase);

  struct Options {
    int hz = 97;             // sample rate (co-prime with common tick rates)
    size_t capacity = 8192;  // retained samples (ring, overwrite-oldest)
  };

  /// Process-wide default profiler (the signal handler can only target one
  /// instance anyway).
  static Profiler& Default();

  Profiler();
  explicit Profiler(Options options);
  ~Profiler();

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Allocates the sample ring (first call only), installs the SIGPROF
  /// handler and starts the profiling timer. Idempotent; fails
  /// (kFailedPrecondition) if another Profiler instance is already active.
  /// No-op returning OK under STREAMOP_NO_STATS.
  Status Start();

  /// Stops the timer and uninstalls the handler. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  int hz() const { return options_.hz; }
  /// Adjusts the sample rate of a stopped profiler (lets callers tune the
  /// process-wide Default() before Start()); ignored while running.
  void set_hz(int hz) {
    if (!running() && hz > 0) options_.hz = hz;
  }
  size_t capacity() const { return options_.capacity; }

  /// Total samples ever taken (>= capacity means overwrites happened).
  uint64_t samples_recorded() const {
    return seq_.load(std::memory_order_relaxed);
  }

  /// Phase totals in nanoseconds, independent of the stack sampler.
  void AddPhaseNs(uint32_t phase, uint64_t ns) {
    if constexpr (kStatsEnabled) {
      if (phase < kNumPhases && ns > 0) {
        phase_ns_[phase].fetch_add(ns, std::memory_order_relaxed);
      }
    }
  }
  uint64_t phase_ns(uint32_t phase) const {
    return phase < kNumPhases
               ? phase_ns_[phase].load(std::memory_order_relaxed)
               : 0;
  }

  /// Folded-stack flamegraph text of the samples taken within the last
  /// `seconds` (0 = every retained sample), root frame first, one
  /// "frame;frame;frame count" line per distinct stack — pipe through
  /// flamegraph.pl. Symbolizes with dladdr; frames without a symbol render
  /// as "module+0xoff".
  std::string Folded(uint64_t seconds) const;

  /// Phase totals + sampler state as JSON (GET /profile?format=phases).
  std::string PhasesJson() const;

  /// Called by the signal handler; public only for that reason.
  void TakeSample();

 private:
  static constexpr int kMaxFrames = 32;

  // Fixed-size sample slot; fields individually atomic so exports never
  // race the handler (a torn sample is tolerated and filtered).
  struct Sample {
    std::atomic<uint64_t> ts_ns{0};
    std::atomic<int> depth{0};
    std::atomic<void*> frames[kMaxFrames];
  };

  Options options_;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> seq_{0};
  // The sample ring: allocated by the first Start() and kept until
  // destruction, so samples stay readable after Stop(). `slots_` owns it;
  // the handler and exporters read it only through `ring_`, where null
  // means never started (reads as empty).
  std::unique_ptr<Sample[]> slots_;
  std::atomic<Sample*> ring_{nullptr};
  std::atomic<uint64_t> phase_ns_[kNumPhases] = {};
};

}  // namespace obs
}  // namespace streamop

#endif  // STREAMOP_OBS_PROFILER_H_
