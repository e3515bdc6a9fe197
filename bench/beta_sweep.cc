// §7.2 (text) — the beta sweep: "Increasing (decreasing) beta decreases
// (increases) the number of times cleaning is done, but increases
// (decreases) its cost. We found little dependence of CPU load on beta."
//
// beta is the cleaning trigger: a cleaning phase fires when the live sample
// exceeds beta * N. We sweep beta and report cleaning phases per window,
// mean cleaning cost (groups examined per phase ~ beta*N) and %CPU.

#include <cstdio>

#include "bench/bench_util.h"

using namespace streamop;
using namespace streamop::bench;

int main() {
  const double kDurationSec = 20.0;
  Trace trace = TraceGenerator::MakeDataCenterFeed(kDurationSec, /*seed=*/79);

  PrintHeader("beta sweep: cleaning trigger vs CPU (target 1000, relaxed)");
  std::printf("%-8s %18s %18s %10s\n", "beta", "cleanings/window",
              "removed/window", "%CPU");
  double min_cpu = 1e18, max_cpu = 0.0;
  for (double beta : {1.25, 1.5, 2.0, 3.0, 4.0}) {
    CompiledQuery cq = MustCompile(SubsetSumSql(1000, 10.0, beta), 51);
    TwoLevelRuntime rt({cq});
    const RunReport report = MustRun(rt, trace);
    const std::vector<WindowStats>& windows = rt.high_node(0).window_stats();
    double cleanings = 0, removed = 0;
    for (const WindowStats& ws : windows) {
      cleanings += static_cast<double>(ws.cleaning_phases);
      removed += static_cast<double>(ws.groups_removed);
    }
    cleanings /= static_cast<double>(windows.size());
    removed /= static_cast<double>(windows.size());
    double cpu = report.high[0].cpu_percent;
    min_cpu = std::min(min_cpu, cpu);
    max_cpu = std::max(max_cpu, cpu);
    std::printf("%-8.2f %18.1f %18.0f %9.2f%%\n", beta, cleanings, removed,
                cpu);
  }
  std::printf(
      "\nsummary: %%CPU spread across beta = %.2f points (min %.2f, max "
      "%.2f)\n",
      max_cpu - min_cpu, min_cpu, max_cpu);
  std::printf(
      "paper shape: higher beta -> fewer but costlier cleanings; little "
      "overall CPU dependence -> %s\n",
      (max_cpu - min_cpu) < std::max(1.0, 0.5 * max_cpu) ? "REPRODUCED"
                                                         : "CHECK");
  return 0;
}
