#include "obs/profiler.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#ifndef STREAMOP_NO_STATS
#include <dlfcn.h>
#include <errno.h>
#include <execinfo.h>
#include <signal.h>
#include <sys/time.h>
#endif

namespace streamop {
namespace obs {

namespace {

#ifndef STREAMOP_NO_STATS
// The one profiler the SIGPROF handler samples into. Set by Start(),
// cleared by Stop(); the handler tolerates a concurrent clear (it re-checks
// and bails).
std::atomic<Profiler*> g_active_profiler{nullptr};
#endif  // STREAMOP_NO_STATS

}  // namespace

#ifndef STREAMOP_NO_STATS
// External linkage on purpose: the NO_STATS CI job asserts with nm that
// this symbol is absent from the library when the observability layer is
// compiled out (and present otherwise).
void StreamopSigprofHandler(int, siginfo_t*, void*) {
  const int saved_errno = errno;
  Profiler* p = g_active_profiler.load(std::memory_order_acquire);
  if (p != nullptr) p->TakeSample();
  errno = saved_errno;
}
#endif  // STREAMOP_NO_STATS

const char* Profiler::PhaseName(uint32_t phase) {
  switch (phase) {
    case kDrain:
      return "ring_drain";
    case kBatchSelect:
      return "batch_select";
    case kAdmission:
      return "admission";
    case kClean:
      return "clean";
    case kFlush:
      return "flush";
    case kQuality:
      return "quality_report";
    default:
      return "?";
  }
}

Profiler& Profiler::Default() {
  static Profiler* p = new Profiler();
  return *p;
}

Profiler::Profiler() : Profiler(Options()) {}

Profiler::Profiler(Options options) : options_(options) {
  if (options_.hz < 1) options_.hz = 1;
  if (options_.hz > 1000) options_.hz = 1000;
  if (options_.capacity < 1) options_.capacity = 1;
}

Profiler::~Profiler() { Stop(); }

Status Profiler::Start() {
#ifdef STREAMOP_NO_STATS
  return Status::OK();
#else
  if (running_.load(std::memory_order_acquire)) return Status::OK();
  Profiler* expected = nullptr;
  if (!g_active_profiler.compare_exchange_strong(expected, this,
                                                 std::memory_order_acq_rel)) {
    return Status::AlreadyExists(
        "another profiler instance is already active");
  }
  // Winning the CAS makes this the only thread in Start(); the ring is
  // published before the handler is installed, so the handler never
  // allocates.
  if (ring_.load(std::memory_order_relaxed) == nullptr) {
    slots_ = std::make_unique<Sample[]>(options_.capacity);
    ring_.store(slots_.get(), std::memory_order_release);
  }
  // Force the one-time lazy initialization inside glibc's backtrace()
  // (dlopen of libgcc, unwinder setup — it allocates) here, outside the
  // signal handler, so every in-handler call is allocation-free.
  void* warm[4];
  (void)::backtrace(warm, 4);

  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = &StreamopSigprofHandler;
  sa.sa_flags = SA_RESTART | SA_SIGINFO;
  sigemptyset(&sa.sa_mask);
  if (::sigaction(SIGPROF, &sa, nullptr) != 0) {
    g_active_profiler.store(nullptr, std::memory_order_release);
    return Status::Internal("sigaction(SIGPROF): " +
                            std::string(strerror(errno)));
  }
  itimerval timer{};
  const long usec = 1000000L / options_.hz;
  timer.it_interval.tv_sec = usec / 1000000L;
  timer.it_interval.tv_usec = usec % 1000000L;
  timer.it_value = timer.it_interval;
  if (::setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
    ::signal(SIGPROF, SIG_IGN);
    g_active_profiler.store(nullptr, std::memory_order_release);
    return Status::Internal("setitimer(ITIMER_PROF): " +
                            std::string(strerror(errno)));
  }
  running_.store(true, std::memory_order_release);
  return Status::OK();
#endif
}

void Profiler::Stop() {
#ifndef STREAMOP_NO_STATS
  if (!running_.load(std::memory_order_acquire)) return;
  itimerval off{};
  ::setitimer(ITIMER_PROF, &off, nullptr);
  ::signal(SIGPROF, SIG_IGN);
  g_active_profiler.store(nullptr, std::memory_order_release);
  running_.store(false, std::memory_order_release);
#endif
}

void Profiler::TakeSample() {
#ifndef STREAMOP_NO_STATS
  Sample* ring = ring_.load(std::memory_order_acquire);
  if (ring == nullptr) return;  // never started
  const uint64_t s = seq_.fetch_add(1, std::memory_order_relaxed);
  Sample& slot = ring[s % options_.capacity];
  void* frames[kMaxFrames];
  int depth = ::backtrace(frames, kMaxFrames);
  if (depth < 0) depth = 0;
  if (depth > kMaxFrames) depth = kMaxFrames;
  slot.ts_ns.store(NowNanos(), std::memory_order_relaxed);
  for (int i = 0; i < depth; ++i) {
    slot.frames[i].store(frames[i], std::memory_order_relaxed);
  }
  slot.depth.store(depth, std::memory_order_relaxed);
#endif
}

std::string Profiler::Folded(uint64_t seconds) const {
  std::string out;
#ifdef STREAMOP_NO_STATS
  (void)seconds;
#else
  const Sample* ring = ring_.load(std::memory_order_acquire);
  if (ring == nullptr) return out;  // never started
  const uint64_t now = NowNanos();
  const uint64_t since =
      seconds == 0 ? 0
                   : (now > seconds * 1000000000ull
                          ? now - seconds * 1000000000ull
                          : 0);
  const uint64_t seq = seq_.load(std::memory_order_relaxed);
  const size_t n = static_cast<size_t>(std::min<uint64_t>(
      seq, static_cast<uint64_t>(options_.capacity)));

  // Aggregate identical stacks. Export-time allocation is fine — this runs
  // on the HTTP serving thread, never the pipeline.
  std::map<std::vector<void*>, uint64_t> stacks;
  std::vector<void*> key;
  for (size_t i = 0; i < n; ++i) {
    const Sample& s = ring[i];
    const int depth = s.depth.load(std::memory_order_relaxed);
    if (depth <= 0) continue;  // torn with a concurrent handler write
    if (s.ts_ns.load(std::memory_order_relaxed) < since) continue;
    key.clear();
    for (int f = 0; f < depth; ++f) {
      key.push_back(s.frames[f].load(std::memory_order_relaxed));
    }
    ++stacks[key];
  }

  // Symbolize each distinct pc once.
  std::map<void*, std::string> names;
  auto frame_name = [&names](void* pc) -> const std::string& {
    auto it = names.find(pc);
    if (it != names.end()) return it->second;
    char buf[256];
    Dl_info info;
    if (::dladdr(pc, &info) != 0 && info.dli_sname != nullptr) {
      std::snprintf(buf, sizeof(buf), "%s", info.dli_sname);
    } else if (::dladdr(pc, &info) != 0 && info.dli_fname != nullptr) {
      const char* base = std::strrchr(info.dli_fname, '/');
      std::snprintf(buf, sizeof(buf), "%s+0x%zx",
                    base != nullptr ? base + 1 : info.dli_fname,
                    static_cast<size_t>(reinterpret_cast<uintptr_t>(pc) -
                                        reinterpret_cast<uintptr_t>(
                                            info.dli_fbase)));
    } else {
      std::snprintf(buf, sizeof(buf), "0x%zx",
                    static_cast<size_t>(reinterpret_cast<uintptr_t>(pc)));
    }
    // Folded format: ';' separates frames, ' ' separates stack from count.
    std::string name(buf);
    for (char& c : name) {
      if (c == ';' || c == ' ') c = '_';
    }
    return names.emplace(pc, std::move(name)).first->second;
  };

  for (const auto& [stack, count] : stacks) {
    // backtrace() returns leaf-first; folded wants root-first.
    for (size_t f = stack.size(); f-- > 0;) {
      out += frame_name(stack[f]);
      if (f > 0) out += ";";
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %llu\n",
                  static_cast<unsigned long long>(count));
    out += buf;
  }
#endif
  return out;
}

std::string Profiler::PhasesJson() const {
  std::string out = "{\"running\": ";
  out += running() ? "true" : "false";
  char buf[128];
  std::snprintf(buf, sizeof(buf), ", \"hz\": %d, \"samples\": %llu",
                options_.hz,
                static_cast<unsigned long long>(samples_recorded()));
  out += buf;
  out += ", \"phase_ns\": {";
  for (uint32_t p = 0; p < kNumPhases; ++p) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %llu", p > 0 ? ", " : "",
                  PhaseName(p),
                  static_cast<unsigned long long>(phase_ns(p)));
    out += buf;
  }
  out += "}}\n";
  return out;
}

}  // namespace obs
}  // namespace streamop
