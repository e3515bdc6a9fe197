// Heavy-hitters reporting: "which source addresses account for at least 1%
// of traffic, per minute?" — the §6.6 Manku-Motwani query as an
// application.
//
// The sampling operator evaluates lossy counting declaratively: grouping by
// source address counts packets; `local_count(w)` advances the bucket id
// every w tuples and triggers the cleaning phase; the CLEANING BY predicate
// prunes groups whose count cannot reach the support threshold. The HAVING
// step here is done in application code (threshold s on the reported
// counts), mirroring how the paper's users consume the result set.

#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "common/string_util.h"
#include "engine/runtime.h"
#include "net/trace_generator.h"
#include "query/query.h"

using namespace streamop;

int main(int argc, char** argv) {
  const double support = argc > 1 ? std::atof(argv[1]) : 0.01;  // s = 1%
  const double epsilon = 0.001;  // bucket width w = 1/eps = 1000 tuples

  Trace trace = TraceGenerator::MakeResearchFeed(180.0, /*seed=*/11);
  std::printf("feed: %zu packets over %.0f s; reporting srcIPs with >= %.1f%% "
              "of packets per minute\n\n",
              trace.size(), trace.DurationSec(), 100 * support);

  Catalog catalog = Catalog::Default();
  char sql[512];
  std::snprintf(sql, sizeof(sql), R"(
      SELECT tb, srcIP, sum(len), count(*)
      FROM TCP
      GROUP BY time/60 as tb, srcIP
      CLEANING WHEN local_count(%d) = TRUE
      CLEANING BY count(*) >= current_bucket() - first(current_bucket())
  )",
                static_cast<int>(1.0 / epsilon));
  Result<CompiledQuery> cq = CompileQuery(sql, catalog);
  if (!cq.ok()) {
    std::fprintf(stderr, "compile error: %s\n", cq.status().ToString().c_str());
    return 1;
  }
  TwoLevelRuntime rt({*cq});
  Result<RunReport> run = rt.Run(trace);
  if (!run.ok()) {
    std::fprintf(stderr, "run error: %s\n", run.status().ToString().c_str());
    return 1;
  }
  const std::vector<Tuple> rows = rt.high_node(0).DrainOutput();

  // Packets per window (to apply the support threshold s*N per minute).
  std::vector<uint64_t> packets_per_min = trace.PacketsPerWindow(60);

  // Organize rows per window, filter by (s - eps) * N, sort by bytes.
  struct Row {
    uint32_t src;
    uint64_t bytes;
    uint64_t packets;
  };
  std::map<uint64_t, std::vector<Row>> per_window;
  for (const Tuple& t : rows) {
    uint64_t tb = t[0].AsUInt();
    uint64_t n = tb < packets_per_min.size() ? packets_per_min[tb] : 0;
    double threshold = (support - epsilon) * static_cast<double>(n);
    if (static_cast<double>(t[3].AsUInt()) >= threshold) {
      per_window[tb].push_back(Row{static_cast<uint32_t>(t[1].AsUInt()),
                                   t[2].AsUInt(), t[3].AsUInt()});
    }
  }

  for (auto& [tb, rows] : per_window) {
    std::sort(rows.begin(), rows.end(),
              [](const Row& a, const Row& b) { return a.bytes > b.bytes; });
    std::printf("minute %llu (%s packets): %zu heavy hitters\n",
                static_cast<unsigned long long>(tb),
                FormatWithCommas(packets_per_min[tb]).c_str(), rows.size());
    int shown = 0;
    for (const Row& r : rows) {
      if (++shown > 8) break;
      std::printf("   %-16s %10s bytes %8s pkts (%.2f%%)\n",
                  FormatIpv4(r.src).c_str(), FormatWithCommas(r.bytes).c_str(),
                  FormatWithCommas(r.packets).c_str(),
                  100.0 * static_cast<double>(r.packets) /
                      static_cast<double>(packets_per_min[tb]));
    }
  }
  return 0;
}
