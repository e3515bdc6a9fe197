// Figure 2 — "Accuracy of summation", 1000 samples per 20 s period.
//
// Three query sets run over the same bursty feed (the paper's research-
// center link): the exact per-window sum of packet lengths ("actual"),
// dynamic subset-sum sampling with the relaxed threshold carry-over
// (f = 10), and the original non-relaxed algorithm. The paper's finding:
// the non-relaxed estimate collapses after sharp load drops because the
// carried threshold over-estimates the next window's load; the relaxed
// variant tracks the actual sum closely.
//
// Also reproduces the §7.1 remark that 100 and 10,000 samples per period
// give nearly identical results (the -n sweep at the bottom).

#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"

using namespace streamop;
using namespace streamop::bench;

namespace {

struct AccuracyRun {
  std::vector<double> estimate;   // per window
  double mean_abs_rel_err = 0.0;  // over full windows
  double worst_rel_err = 0.0;
};

AccuracyRun RunAccuracy(const Trace& trace, uint64_t n, double relax,
                        const std::vector<uint64_t>& truth) {
  CompiledQuery cq = MustCompile(SubsetSumSql(n, relax, 2.0, /*probabilistic=*/true),
                               /*seed=*/17);
  TwoLevelRuntime rt({cq});
  MustRun(rt, trace);
  AccuracyRun out;
  out.estimate =
      EstimatePerWindow(rt.high_node(0).DrainOutput(), truth.size());
  size_t full = truth.size() > 1 ? truth.size() - 1 : truth.size();
  for (size_t w = 0; w < full; ++w) {
    if (truth[w] == 0) continue;
    double rel = std::fabs(out.estimate[w] - static_cast<double>(truth[w])) /
                 static_cast<double>(truth[w]);
    out.mean_abs_rel_err += rel;
    out.worst_rel_err = std::max(out.worst_rel_err, rel);
  }
  out.mean_abs_rel_err /= static_cast<double>(full);
  return out;
}

}  // namespace

int main() {
  // ~30 windows of 20 s, matching the span of the paper's charts.
  const double kDurationSec = 601.0;
  Trace trace = TraceGenerator::MakeResearchFeed(kDurationSec, /*seed=*/2005);
  std::vector<uint64_t> truth = trace.BytesPerWindow(20);

  PrintHeader("Figure 2: accuracy of summation (1000 samples per period)");
  std::printf("trace: %zu packets over %.0f s (bursty research feed)\n",
              trace.size(), trace.DurationSec());

  AccuracyRun relaxed = RunAccuracy(trace, 1000, 10.0, truth);
  AccuracyRun nonrelaxed = RunAccuracy(trace, 1000, 1.0, truth);

  std::printf("%-8s %16s %22s %24s\n", "window", "actual",
              "estimated(relaxed)", "estimated(nonrelaxed)");
  for (size_t w = 0; w + 1 < truth.size(); ++w) {
    std::printf("%-8zu %16llu %16.0f (%+5.1f%%) %16.0f (%+5.1f%%)\n", w,
                static_cast<unsigned long long>(truth[w]),
                relaxed.estimate[w],
                100.0 * (relaxed.estimate[w] - static_cast<double>(truth[w])) /
                    static_cast<double>(truth[w]),
                nonrelaxed.estimate[w],
                100.0 *
                    (nonrelaxed.estimate[w] - static_cast<double>(truth[w])) /
                    static_cast<double>(truth[w]));
  }
  std::printf(
      "\nsummary: relaxed mean |err| = %.2f%% (worst %.2f%%); "
      "nonrelaxed mean |err| = %.2f%% (worst %.2f%%)\n",
      100 * relaxed.mean_abs_rel_err, 100 * relaxed.worst_rel_err,
      100 * nonrelaxed.mean_abs_rel_err, 100 * nonrelaxed.worst_rel_err);
  std::printf(
      "paper shape: nonrelaxed underestimates sharply after load drops; "
      "relaxed tracks the actual sum closely -> %s\n",
      (relaxed.mean_abs_rel_err < nonrelaxed.mean_abs_rel_err &&
       nonrelaxed.worst_rel_err > 2 * relaxed.worst_rel_err)
          ? "REPRODUCED"
          : "CHECK");

  // §7.1: "We repeated these experiments to collect 100 and 10,000 samples
  // per period, and obtained nearly identical results."
  PrintHeader("Figure 2 (N sweep): samples-per-period sensitivity");
  std::printf("%-10s %24s %24s\n", "N", "relaxed mean|err|",
              "nonrelaxed mean|err|");
  for (uint64_t n : {100ULL, 1000ULL, 10000ULL}) {
    AccuracyRun r = RunAccuracy(trace, n, 10.0, truth);
    AccuracyRun nr = RunAccuracy(trace, n, 1.0, truth);
    std::printf("%-10llu %22.2f%% %22.2f%%\n",
                static_cast<unsigned long long>(n), 100 * r.mean_abs_rel_err,
                100 * nr.mean_abs_rel_err);
  }
  return 0;
}
