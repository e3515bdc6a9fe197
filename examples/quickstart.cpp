// Quickstart: compile a sampling query from text, run it over a synthetic
// packet trace, and print the sampled rows.
//
//   $ ./quickstart
//
// The query is the paper's dynamic subset-sum sampler (§6.1): collect ~100
// weight-representative packet samples per 20-second window, such that the
// sum of the UMAX(sum(len), ssthreshold()) column over any subset of the
// samples estimates that subset's true byte count.

#include <cstdio>

#include "common/string_util.h"
#include "engine/runtime.h"
#include "net/trace_generator.h"
#include "query/query.h"

using namespace streamop;

int main() {
  // 1. A catalog of input streams. Catalog::Default() pre-registers the
  //    packet schema under the names PKT / PKTS / TCP.
  Catalog catalog = Catalog::Default();

  // 2. Compile the query text into an executable plan.
  const char* sql = R"(
      SELECT tb, srcIP, destIP, UMAX(sum(len), ssthreshold())
      FROM PKTS
      WHERE ssample(len, 100) = TRUE
      GROUP BY time/20 as tb, srcIP, destIP, ts_ns
      HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
      CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
      CLEANING BY ssclean_with(sum(len)) = TRUE
  )";
  Result<CompiledQuery> query = CompileQuery(sql, catalog, {.seed = 42});
  if (!query.ok()) {
    std::fprintf(stderr, "compile error: %s\n",
                 query.status().ToString().c_str());
    return 1;
  }

  // 3. A 60-second synthetic feed modeled on the paper's research-center
  //    link (bursty, 0.7k-15k packets/second).
  Trace trace = TraceGenerator::MakeResearchFeed(60.0, /*seed=*/7);
  std::printf("replaying %zu packets (%.1f MB over %.0f s)...\n\n",
              trace.size(),
              static_cast<double>(trace.TotalBytes()) / 1e6,
              trace.DurationSec());

  // 4. Run to completion and inspect the sample.
  //    The runtime has no low-level node here: the query is its one
  //    high-level node and reads the trace's packets as they are.
  TwoLevelRuntime rt({*query});
  Result<RunReport> run = rt.Run(trace);
  if (!run.ok()) {
    std::fprintf(stderr, "execution error: %s\n",
                 run.status().ToString().c_str());
    return 1;
  }
  const std::vector<Tuple> rows = rt.high_node(0).DrainOutput();
  const std::vector<WindowStats>& windows = rt.high_node(0).window_stats();

  std::printf("%-6s %-16s %-16s %14s\n", "tb", "srcIP", "destIP",
              "est. weight");
  int shown = 0;
  for (const Tuple& row : rows) {
    if (++shown > 12) break;
    std::printf("%-6llu %-16s %-16s %14.0f\n",
                static_cast<unsigned long long>(row[0].AsUInt()),
                FormatIpv4(static_cast<uint32_t>(row[1].AsUInt())).c_str(),
                FormatIpv4(static_cast<uint32_t>(row[2].AsUInt())).c_str(),
                row[3].AsDouble());
  }
  std::printf("... (%zu sampled rows total)\n\n", rows.size());

  // 5. The per-window execution statistics the operator keeps.
  for (size_t w = 0; w < windows.size(); ++w) {
    const WindowStats& ws = windows[w];
    std::printf(
        "window %zu: %s tuples in, %llu admitted, %llu cleaning phases, "
        "%llu samples out\n",
        w, FormatWithCommas(ws.tuples_in).c_str(),
        static_cast<unsigned long long>(ws.tuples_admitted),
        static_cast<unsigned long long>(ws.cleaning_phases),
        static_cast<unsigned long long>(ws.groups_output));
  }
  return 0;
}
