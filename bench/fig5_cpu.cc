// Figure 5 — "Subset-sum Sampling CPU Usage" vs samples per period.
//
// On the steady high-speed feed (the paper's 100k pkt/s data-center tap),
// we measure the %CPU (fraction of one CPU consumed at line rate) of:
//   * dynamic subset-sum sampling, relaxed, via the sampling operator;
//   * dynamic subset-sum sampling, non-relaxed, via the sampling operator;
//   * basic subset-sum sampling as a UDF in a selection operator.
// The paper's findings: all three use a small fraction of a CPU even at
// 100k+ pkt/s; the sampling operator costs only a few percentage points
// over the bare selection; relaxation adds a further small overhead
// (more cleaning phases).

#include <cstdio>

#include "bench/bench_util.h"

using namespace streamop;
using namespace streamop::bench;

namespace {

double RunCpuPercent(const CompiledQuery& cq, const Trace& trace,
                     uint64_t* samples_out) {
  TwoLevelRuntime rt({cq});
  const RunReport report = MustRun(rt, trace);
  if (samples_out != nullptr) *samples_out = report.high[0].tuples_out;
  return report.high[0].cpu_percent;
}

}  // namespace

int main() {
  const double kDurationSec = 20.0;
  Trace trace = TraceGenerator::MakeDataCenterFeed(kDurationSec, /*seed=*/77);
  const double pps = static_cast<double>(trace.size()) / kDurationSec;
  const double bytes_per_period =
      static_cast<double>(trace.TotalBytes()) * 20.0 / kDurationSec;

  PrintHeader("Figure 5: subset-sum sampling CPU usage (steady feed)");
  std::printf("trace: %zu packets, %.0f pkt/s, %.0f Mbit/s\n", trace.size(),
              pps,
              static_cast<double>(trace.TotalBytes()) * 8.0 / kDurationSec /
                  1e6);

  std::printf("%-18s %14s %16s %12s %14s\n", "samples/period", "SS relaxed",
              "SS nonrelaxed", "basic SS", "(basic kept)");
  double sum_relax = 0, sum_nonrelax = 0, sum_basic = 0;
  int rows = 0;
  for (uint64_t n : {100ULL, 1000ULL, 2500ULL, 5000ULL, 10000ULL}) {
    CompiledQuery relaxed = MustCompile(SubsetSumSql(n, 10.0), 31);
    CompiledQuery nonrelaxed = MustCompile(SubsetSumSql(n, 1.0), 31);
    // Basic subset-sum threshold tuned to produce ~n samples per period.
    double z = bytes_per_period / static_cast<double>(n);
    CompiledQuery basic = MustCompile(BasicSubsetSumSelectionSql(z), 31);

    double cpu_relaxed = RunCpuPercent(relaxed, trace, nullptr);
    double cpu_nonrelaxed = RunCpuPercent(nonrelaxed, trace, nullptr);
    uint64_t basic_kept = 0;
    double cpu_basic = RunCpuPercent(basic, trace, &basic_kept);
    std::printf("%-18llu %13.2f%% %15.2f%% %11.2f%% %14llu\n",
                static_cast<unsigned long long>(n), cpu_relaxed,
                cpu_nonrelaxed, cpu_basic,
                static_cast<unsigned long long>(basic_kept));
    sum_relax += cpu_relaxed;
    sum_nonrelax += cpu_nonrelaxed;
    sum_basic += cpu_basic;
    ++rows;
  }
  double mean_relax = sum_relax / rows;
  double mean_nonrelax = sum_nonrelax / rows;
  double mean_basic = sum_basic / rows;
  std::printf(
      "\nsummary: mean %%CPU relaxed %.2f, nonrelaxed %.2f, basic %.2f; "
      "operator overhead over selection = %.2f points, relaxation overhead "
      "= %.2f points\n",
      mean_relax, mean_nonrelax, mean_basic, mean_nonrelax - mean_basic,
      mean_relax - mean_nonrelax);
  std::printf(
      "paper shape: small fraction of a CPU overall; operator adds a few "
      "points over bare selection; relaxed slightly above nonrelaxed -> %s\n",
      (mean_basic < mean_nonrelax && mean_nonrelax <= mean_relax + 0.25)
          ? "REPRODUCED"
          : "CHECK");
  return 0;
}
