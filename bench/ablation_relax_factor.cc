// Ablation — the relaxation factor f (the paper fixes f = 10).
//
// The relaxed algorithm seeds each new window with z_prev / f. Small f
// approaches the non-relaxed algorithm (accurate only under steady load);
// large f forgets more of the learned threshold and pays in cleaning
// phases. We sweep f over a bursty feed and report accuracy vs cleaning
// cost, locating the regime the paper's choice sits in.

#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"

using namespace streamop;
using namespace streamop::bench;

int main() {
  Trace trace = TraceGenerator::MakeResearchFeed(401.0, /*seed=*/2006);
  std::vector<uint64_t> truth = trace.BytesPerWindow(20);

  PrintHeader("ablation: relaxation factor f (target 1000, bursty feed)");
  std::printf("%-8s %16s %16s %18s %10s\n", "f", "mean|err|",
              "worst|err|", "cleanings/window", "%CPU");
  for (double f : {1.0, 2.0, 5.0, 10.0, 20.0, 50.0}) {
    CompiledQuery cq =
        MustCompile(SubsetSumSql(1000, f, 2.0, /*probabilistic=*/true), 61);
    TwoLevelRuntime rt({cq});
    const RunReport report = MustRun(rt, trace);
    std::vector<double> est =
        EstimatePerWindow(rt.high_node(0).DrainOutput(), truth.size());
    double mean_err = 0.0, worst = 0.0;
    size_t full = truth.size() - 1;
    for (size_t w = 0; w < full; ++w) {
      if (truth[w] == 0) continue;
      double rel = std::fabs(est[w] - static_cast<double>(truth[w])) /
                   static_cast<double>(truth[w]);
      mean_err += rel;
      worst = std::max(worst, rel);
    }
    mean_err /= static_cast<double>(full);
    double cleanings = 0;
    const std::vector<WindowStats>& windows = rt.high_node(0).window_stats();
    for (const WindowStats& ws : windows) {
      cleanings += static_cast<double>(ws.cleaning_phases);
    }
    cleanings /= static_cast<double>(windows.size());
    std::printf("%-8.0f %15.2f%% %15.2f%% %18.1f %9.2f%%\n", f,
                100 * mean_err, 100 * worst, cleanings,
                report.high[0].cpu_percent);
  }
  std::printf(
      "\nreading: f=1 (non-relaxed) shows the worst-case windows; accuracy "
      "saturates around the paper's f=10 while cleaning cost keeps rising "
      "with f.\n");
  return 0;
}
