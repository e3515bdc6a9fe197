// Shared helpers for the figure-reproduction benchmarks: canonical traces,
// the paper's query texts, and table formatting.

#ifndef STREAMOP_BENCH_BENCH_UTIL_H_
#define STREAMOP_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <vector>

#include "engine/runtime.h"
#include "net/trace_generator.h"
#include "query/query.h"

namespace streamop {
namespace bench {

/// The paper's dynamic subset-sum query (§6.1): N samples per 20-second
/// window; relax_factor 1 reproduces the original (non-relaxed) algorithm,
/// the paper's fix uses f = 10.
/// `probabilistic` selects the admission rule for small tuples: false = the
/// counter scheme of §4.4 (deterministic, error bounded by one z per
/// window), true = the original DLT per-tuple coin flip (the behaviour the
/// paper's live runs exhibit, with right-skewed estimates when a window is
/// under-sampled).
inline std::string SubsetSumSql(uint64_t n, double relax_factor,
                                double beta = 2.0,
                                bool probabilistic = false) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), R"(
      SELECT tb, srcIP, destIP, UMAX(sum(len), ssthreshold())
      FROM PKTS
      WHERE ssample(len, %llu, %g, %g, 0, %d) = TRUE
      GROUP BY time/20 as tb, srcIP, destIP, ts_ns
      HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
      CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
      CLEANING BY ssclean_with(sum(len)) = TRUE
  )",
                static_cast<unsigned long long>(n), beta, relax_factor,
                probabilistic ? 1 : 0);
  return buf;
}

/// The ground-truth aggregation query of §7.1 ("actual").
inline const char* ActualSumSql() {
  return "SELECT tb, sum(len) FROM PKT GROUP BY time/20 as tb";
}

/// Basic subset-sum sampling as a user-defined function in a selection
/// operator (the Fig. 5 baseline). z is the fixed threshold.
inline std::string BasicSubsetSumSelectionSql(double z) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "SELECT time, srcIP, destIP, UMAX(len, %g) "
                "FROM PKT WHERE ssample(len, 0, 2, 1, %g) = TRUE",
                z, z);
  return buf;
}

/// Sums the weight-adjusted estimate column per 20 s window.
inline std::vector<double> EstimatePerWindow(const std::vector<Tuple>& rows,
                                             size_t num_windows,
                                             size_t tb_col = 0,
                                             size_t weight_col = 3) {
  std::vector<double> est(num_windows, 0.0);
  for (const Tuple& t : rows) {
    uint64_t tb = t[tb_col].AsUInt();
    if (tb < est.size()) est[tb] += t[weight_col].AsDouble();
  }
  return est;
}

inline void PrintHeader(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

/// Compiles or dies — benchmark queries are fixed strings.
inline CompiledQuery MustCompile(const std::string& sql, uint64_t seed = 1) {
  Catalog catalog = Catalog::Default();
  Result<CompiledQuery> cq = CompileQuery(sql, catalog, {.seed = seed});
  if (!cq.ok()) {
    std::fprintf(stderr, "query compilation failed: %s\nquery: %s\n",
                 cq.status().ToString().c_str(), sql.c_str());
    std::exit(1);
  }
  return *std::move(cq);
}

/// Runs `rt` over `trace` or dies. The runtime's nodes keep their output
/// and window stats for the caller.
inline RunReport MustRun(TwoLevelRuntime& rt, const Trace& trace) {
  Result<RunReport> report = rt.Run(trace);
  if (!report.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 report.status().ToString().c_str());
    std::exit(1);
  }
  return *std::move(report);
}

}  // namespace bench
}  // namespace streamop

#endif  // STREAMOP_BENCH_BENCH_UTIL_H_
