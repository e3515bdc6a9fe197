// Traffic-volume monitoring with dynamic subset-sum sampling — the paper's
// motivating application (§7.1) as a runnable program.
//
// Runs three query sets simultaneously over one bursty feed, exactly as the
// paper's accuracy experiment does:
//   * the exact per-window byte count ("actual"),
//   * the relaxed dynamic subset-sum sampler (1000 samples / 20 s window),
//   * the non-relaxed sampler,
// then prints the per-window comparison and an error summary. The point of
// the exercise: 1000 samples stand in for hundreds of thousands of packets
// while keeping the sum estimate within a few percent — but only if the
// threshold carry-over is relaxed.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "engine/runtime.h"
#include "net/trace_generator.h"
#include "query/query.h"

using namespace streamop;

namespace {

std::string SamplerSql(double relax_factor) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), R"(
      SELECT tb, srcIP, destIP, UMAX(sum(len), ssthreshold())
      FROM PKTS
      WHERE ssample(len, 1000, 2, %g, 0, 1) = TRUE
      GROUP BY time/20 as tb, srcIP, destIP, ts_ns
      HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
      CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
      CLEANING BY ssclean_with(sum(len)) = TRUE
  )",
                relax_factor);
  return buf;
}

std::vector<double> RunEstimates(const std::string& sql, const Trace& trace,
                                 size_t windows) {
  Catalog catalog = Catalog::Default();
  Result<CompiledQuery> cq = CompileQuery(sql, catalog, {.seed = 99});
  if (!cq.ok()) {
    std::fprintf(stderr, "compile error: %s\n", cq.status().ToString().c_str());
    std::exit(1);
  }
  TwoLevelRuntime rt({*cq});
  Result<RunReport> run = rt.Run(trace);
  if (!run.ok()) {
    std::fprintf(stderr, "run error: %s\n", run.status().ToString().c_str());
    std::exit(1);
  }
  const std::vector<Tuple> rows = rt.high_node(0).DrainOutput();
  std::vector<double> est(windows, 0.0);
  for (const Tuple& t : rows) {
    uint64_t tb = t[0].AsUInt();
    if (tb < windows) est[tb] += t[3].AsDouble();
  }
  return est;
}

}  // namespace

int main(int argc, char** argv) {
  double duration = argc > 1 ? std::atof(argv[1]) : 301.0;
  Trace trace = TraceGenerator::MakeResearchFeed(duration, /*seed=*/2005);
  std::vector<uint64_t> actual = trace.BytesPerWindow(20);

  std::printf("monitoring %zu packets over %.0f s (20 s windows)\n\n",
              trace.size(), trace.DurationSec());

  std::vector<double> relaxed =
      RunEstimates(SamplerSql(10.0), trace, actual.size());
  std::vector<double> nonrelaxed =
      RunEstimates(SamplerSql(1.0), trace, actual.size());

  std::printf("%-8s %14s %14s %8s %14s %8s\n", "window", "actual MB",
              "relaxed MB", "err", "nonrelaxed MB", "err");
  double worst_rel = 0, worst_nonrel = 0;
  for (size_t w = 0; w + 1 < actual.size(); ++w) {
    double a = static_cast<double>(actual[w]);
    double er = a > 0 ? 100.0 * (relaxed[w] - a) / a : 0.0;
    double en = a > 0 ? 100.0 * (nonrelaxed[w] - a) / a : 0.0;
    worst_rel = std::max(worst_rel, std::fabs(er));
    worst_nonrel = std::max(worst_nonrel, std::fabs(en));
    std::printf("%-8zu %14.2f %14.2f %+7.1f%% %14.2f %+7.1f%%\n", w, a / 1e6,
                relaxed[w] / 1e6, er, nonrelaxed[w] / 1e6, en);
  }
  std::printf("\nworst-window error: relaxed %.1f%%, nonrelaxed %.1f%%\n",
              worst_rel, worst_nonrel);
  if (worst_nonrel > 1.5 * worst_rel) {
    std::printf(
        "the relaxed threshold carry-over (z/10 at window start) kept the "
        "sample representative through this trace's load drops.\n");
  } else {
    std::printf(
        "this run saw no sharp load drop, where the variants behave alike; "
        "longer runs (default 301 s) include drops that separate them.\n");
  }
  return 0;
}
