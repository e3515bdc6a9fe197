// Ablation — small-tuple admission rule: the paper's §4.4 counter scheme
// vs the original Duffield-Lund-Thorup probabilistic rule.
//
// Both are unbiased for subset sums, but their window-estimate error
// behaves very differently when the threshold overshoots (the non-relaxed
// failure of Fig. 2): the counter scheme's error is bounded by a single z
// per window, while the probabilistic rule's error scales like
// sqrt(z / window_total) — which is what makes the paper's non-relaxed
// valleys so deep. This experiment quantifies the difference, one of the
// "algorithm engineering" knobs the operator makes cheap to explore.

#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"

using namespace streamop;
using namespace streamop::bench;

namespace {

struct ErrStats {
  double mean_abs = 0.0;
  double worst = 0.0;
};

ErrStats RunOnce(const Trace& trace, const std::vector<uint64_t>& truth,
                 double relax, bool probabilistic, uint64_t seed) {
  CompiledQuery cq =
      MustCompile(SubsetSumSql(1000, relax, 2.0, probabilistic), seed);
  TwoLevelRuntime rt({cq});
  MustRun(rt, trace);
  std::vector<double> est =
      EstimatePerWindow(rt.high_node(0).DrainOutput(), truth.size());
  ErrStats out;
  size_t full = truth.size() - 1;
  for (size_t w = 0; w < full; ++w) {
    if (truth[w] == 0) continue;
    double rel = std::fabs(est[w] - static_cast<double>(truth[w])) /
                 static_cast<double>(truth[w]);
    out.mean_abs += rel;
    out.worst = std::max(out.worst, rel);
  }
  out.mean_abs /= static_cast<double>(full);
  return out;
}

}  // namespace

int main() {
  Trace trace = TraceGenerator::MakeResearchFeed(401.0, /*seed=*/2007);
  std::vector<uint64_t> truth = trace.BytesPerWindow(20);

  PrintHeader("ablation: counter vs probabilistic admission (target 1000)");
  std::printf("%-26s %16s %16s\n", "configuration", "mean|err|",
              "worst|err|");
  struct Config {
    const char* name;
    double relax;
    bool prob;
  };
  const Config configs[] = {
      {"counter, relaxed f=10", 10.0, false},
      {"counter, non-relaxed", 1.0, false},
      {"probabilistic, relaxed", 10.0, true},
      {"probabilistic, non-relaxed", 1.0, true},
  };
  for (const Config& c : configs) {
    ErrStats e = RunOnce(trace, truth, c.relax, c.prob, 71);
    std::printf("%-26s %15.2f%% %15.2f%%\n", c.name, 100 * e.mean_abs,
                100 * e.worst);
  }
  std::printf(
      "\nreading: the counter scheme bounds each window's error by one z, "
      "so even the non-relaxed variant degrades gently; under probabilistic "
      "admission the non-relaxed variant reproduces the paper's deep "
      "under-estimation valleys, and the relaxed fix recovers accuracy.\n");
  return 0;
}
