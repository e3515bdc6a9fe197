// Sampled flows under a DDoS — the §8 extension as an application.
//
// Flow records (NetFlow-style: 5-tuple, bytes, packets) are the workhorse
// of network measurement, but building them requires one group per live
// flow — and a flood of single-packet flows (spoofed-source SYN flood)
// explodes that table. This program runs the *flow-integrated* dynamic
// subset-sum query: packets are threshold-sampled on the way in, admitted
// packets aggregate into flow groups carrying Horvitz-Thompson-adjusted
// byte weights, and cleaning phases re-threshold whole flows. The group
// table stays bounded at ~beta*N through the flood while heavy flows and
// per-window byte totals remain accurate.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/string_util.h"
#include "engine/runtime.h"
#include "net/flow_generator.h"
#include "query/query.h"

using namespace streamop;

int main() {
  FlowTraceConfig cfg;
  cfg.duration_sec = 80.0;
  cfg.seed = 7;
  cfg.attack_enabled = true;
  cfg.attack_start_sec = 30.0;
  cfg.attack_duration_sec = 20.0;
  cfg.attack_flows_per_sec = 15000.0;
  Trace trace = GenerateFlowTrace(cfg);
  FlowWindowTruth truth = ComputeFlowTruth(trace, 20);

  std::printf(
      "feed: %zu packets / %.0f s; spoofed single-packet-flow flood during "
      "[%.0f, %.0f) s\n\n",
      trace.size(), trace.DurationSec(), cfg.attack_start_sec,
      cfg.attack_start_sec + cfg.attack_duration_sec);

  const char* sql = R"(
      SELECT tb, srcIP, destIP, srcPort, destPort, proto,
             UMAX(sum(UMAX(len, ssthreshold())), ssthreshold()), count(*)
      FROM PKT
      WHERE ssample(len, 500, 2, 10) = TRUE
      GROUP BY time/20 as tb, srcIP, destIP, srcPort, destPort, proto
      HAVING ssfinal_clean(sum(UMAX(len, ssthreshold())),
                           count_distinct$(*)) = TRUE
      CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
      CLEANING BY ssclean_with(sum(UMAX(len, ssthreshold()))) = TRUE
  )";
  Catalog catalog = Catalog::Default();
  Result<CompiledQuery> cq = CompileQuery(sql, catalog, {.seed = 13});
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
  const std::vector<WindowStats>& windows = rt.high_node(0).window_stats();

  std::vector<double> est(truth.bytes_per_window.size(), 0.0);
  std::vector<uint64_t> flow_samples(truth.bytes_per_window.size(), 0);
  for (const Tuple& t : rows) {
    uint64_t tb = t[0].AsUInt();
    if (tb < est.size()) {
      est[tb] += t[6].AsDouble();
      ++flow_samples[tb];
    }
  }

  std::printf("%-8s %12s %14s | %12s %12s %8s\n", "window", "true flows",
              "peak groups", "flow samples", "est. MB", "err");
  for (size_t w = 0; w < truth.flows_per_window.size(); ++w) {
    double actual = static_cast<double>(truth.bytes_per_window[w]);
    uint64_t peak = w < windows.size() ? windows[w].peak_groups : 0;
    std::printf("%-8zu %12llu %14llu | %12llu %12.2f %+7.1f%%\n", w,
                static_cast<unsigned long long>(truth.flows_per_window[w]),
                static_cast<unsigned long long>(peak),
                static_cast<unsigned long long>(flow_samples[w]), est[w] / 1e6,
                actual > 0 ? 100.0 * (est[w] - actual) / actual : 0.0);
  }

  // The flood window's heaviest sampled flows are the legitimate elephants,
  // not attack mice.
  uint64_t flood_tb = static_cast<uint64_t>(cfg.attack_start_sec) / 20;
  std::vector<const Tuple*> flood_rows;
  for (const Tuple& t : rows) {
    if (t[0].AsUInt() == flood_tb) flood_rows.push_back(&t);
  }
  std::sort(flood_rows.begin(), flood_rows.end(),
            [](const Tuple* a, const Tuple* b) {
              return (*a)[6].AsDouble() > (*b)[6].AsDouble();
            });
  std::printf("\nheaviest sampled flows during the flood window:\n");
  for (size_t i = 0; i < 5 && i < flood_rows.size(); ++i) {
    const Tuple& t = *flood_rows[i];
    std::printf("  %s:%llu -> %s:%llu  est %s bytes (%llu sampled pkts)\n",
                FormatIpv4(static_cast<uint32_t>(t[1].AsUInt())).c_str(),
                static_cast<unsigned long long>(t[3].AsUInt()),
                FormatIpv4(static_cast<uint32_t>(t[2].AsUInt())).c_str(),
                static_cast<unsigned long long>(t[4].AsUInt()),
                FormatWithCommas(static_cast<uint64_t>(t[6].AsDouble()))
                    .c_str(),
                static_cast<unsigned long long>(t[7].AsUInt()));
  }
  return 0;
}
