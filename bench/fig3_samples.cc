// Figure 3 — "Samples per period", 1000 samples per 20 s period.
//
// The relaxed algorithm occasionally over-samples (and then final-cleans
// back down to N), while the non-relaxed algorithm frequently under-samples
// after load drops, causing the Fig. 2 underestimation. We report the
// windows' final sample counts for both variants.

#include <cstdio>

#include "bench/bench_util.h"

using namespace streamop;
using namespace streamop::bench;

namespace {

std::vector<WindowStats> RunWindows(const Trace& trace, double relax) {
  CompiledQuery cq = MustCompile(
      SubsetSumSql(1000, relax, 2.0, /*probabilistic=*/true), /*seed=*/17);
  TwoLevelRuntime rt({cq});
  MustRun(rt, trace);
  return rt.high_node(0).window_stats();
}

}  // namespace

int main() {
  Trace trace = TraceGenerator::MakeResearchFeed(601.0, /*seed=*/2005);

  PrintHeader("Figure 3: samples per period (target 1000)");
  std::vector<WindowStats> relaxed = RunWindows(trace, 10.0);
  std::vector<WindowStats> nonrelaxed = RunWindows(trace, 1.0);

  std::printf("%-8s %14s %14s %18s %18s\n", "window", "relaxed",
              "nonrelaxed", "admitted(rel)", "admitted(nonrel)");
  size_t windows = std::min(relaxed.size(), nonrelaxed.size());
  uint64_t rel_total = 0, nonrel_total = 0, rel_under = 0, nonrel_under = 0;
  for (size_t w = 0; w < windows; ++w) {
    std::printf("%-8zu %14llu %14llu %18llu %18llu\n", w,
                static_cast<unsigned long long>(relaxed[w].groups_output),
                static_cast<unsigned long long>(nonrelaxed[w].groups_output),
                static_cast<unsigned long long>(relaxed[w].tuples_admitted),
                static_cast<unsigned long long>(nonrelaxed[w].tuples_admitted));
    rel_total += relaxed[w].groups_output;
    nonrel_total += nonrelaxed[w].groups_output;
    if (w + 1 < windows) {  // full windows only
      if (relaxed[w].groups_output < 800) ++rel_under;
      if (nonrelaxed[w].groups_output < 800) ++nonrel_under;
    }
  }
  std::printf(
      "\nsummary: relaxed total samples = %llu, nonrelaxed = %llu; "
      "under-sampled windows (<800): relaxed %llu, nonrelaxed %llu\n",
      static_cast<unsigned long long>(rel_total),
      static_cast<unsigned long long>(nonrel_total),
      static_cast<unsigned long long>(rel_under),
      static_cast<unsigned long long>(nonrel_under));
  std::printf(
      "paper shape: nonrelaxed frequently under-samples, relaxed holds the "
      "target -> %s\n",
      (nonrel_under > rel_under && rel_total > nonrel_total) ? "REPRODUCED"
                                                             : "CHECK");
  return 0;
}
