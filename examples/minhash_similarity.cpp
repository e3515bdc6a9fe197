// Min-hash signatures and set resemblance (§4.3 / §6.6): per source IP,
// sketch the set of destination addresses it talks to in each one-minute
// window, then estimate the Broder resemblance of consecutive windows —
// "is this host talking to the same peers as a minute ago?", a standard
// scan/anomaly signal.
//
// Two paths exercise the same sketch:
//   1. the §6.6 query through the sampling operator (k smallest H(destIP)
//      per (window, srcIP) supergroup), and
//   2. the KMinHashSketch library class fed directly,
// and the example cross-checks that both retain identical hash sets.

#include <cstdio>
#include <map>
#include <set>
#include <vector>

#include "common/hash.h"
#include "common/string_util.h"
#include "engine/runtime.h"
#include "net/trace_generator.h"
#include "query/query.h"
#include "sampling/kmv.h"

using namespace streamop;

int main() {
  const uint64_t k = 64;

  // A feed where destination sets drift: reuse the research feed and focus
  // on its busiest sources.
  Trace trace = TraceGenerator::MakeResearchFeed(120.0, /*seed=*/23);
  std::printf("feed: %zu packets over %.0f s; k = %llu min-hashes per "
              "(minute, srcIP)\n\n",
              trace.size(), trace.DurationSec(),
              static_cast<unsigned long long>(k));

  Catalog catalog = Catalog::Default();
  char sql[512];
  std::snprintf(sql, sizeof(sql), R"(
      SELECT tb, srcIP, HX
      FROM TCP
      WHERE HX <= Kth_smallest_value$(HX, %llu)
      GROUP BY time/60 as tb, srcIP, H(destIP) as HX
      SUPERGROUP BY tb, srcIP
      HAVING HX <= Kth_smallest_value$(HX, %llu)
      CLEANING WHEN count_distinct$(*) >= %llu
      CLEANING BY HX <= Kth_smallest_value$(HX, %llu)
  )",
                static_cast<unsigned long long>(k),
                static_cast<unsigned long long>(k),
                static_cast<unsigned long long>(2 * k),
                static_cast<unsigned long long>(k));
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

  // Signatures from the query output.
  std::map<std::pair<uint64_t, uint32_t>, std::set<uint64_t>> signatures;
  for (const Tuple& t : rows) {
    signatures[{t[0].AsUInt(), static_cast<uint32_t>(t[1].AsUInt())}].insert(
        t[2].AsUInt());
  }

  // Library-side sketches for cross-checking and resemblance estimation.
  std::map<std::pair<uint64_t, uint32_t>, KMinHashSketch> sketches;
  for (const PacketRecord& p : trace.packets()) {
    auto key = std::make_pair(p.ts_sec() / 60, p.src_ip);
    auto [it, inserted] = sketches.try_emplace(key, k);
    it->second.Offer(Value::UInt(p.dst_ip).Hash());
  }

  // Cross-check: the query's retained hash set must equal the sketch's.
  size_t checked = 0, mismatched = 0;
  for (auto& [key, sig] : signatures) {
    auto it = sketches.find(key);
    if (it == sketches.end()) continue;
    std::vector<uint64_t> lib = it->second.MinValues();
    std::set<uint64_t> lib_set(lib.begin(), lib.end());
    ++checked;
    if (lib_set != sig) ++mismatched;
  }
  std::printf("cross-check: %zu (minute, srcIP) signatures, %zu mismatches "
              "between query path and library path\n\n",
              checked, mismatched);

  // Resemblance of consecutive minutes for the sources present in both.
  std::printf("%-16s %8s %8s %14s %16s\n", "srcIP", "minute", "minute+1",
              "resemblance", "distinct dests");
  int shown = 0;
  for (auto& [key, sk] : sketches) {
    auto next_key = std::make_pair(key.first + 1, key.second);
    auto it = sketches.find(next_key);
    if (it == sketches.end()) continue;
    if (sk.size() < k / 2) continue;  // only sources with enough fan-out
    double rho = sk.EstimateResemblance(it->second);
    std::printf("%-16s %8llu %8llu %14.3f %16.0f\n",
                FormatIpv4(key.second).c_str(),
                static_cast<unsigned long long>(key.first),
                static_cast<unsigned long long>(key.first + 1), rho,
                sk.EstimateDistinctCount());
    if (++shown >= 10) break;
  }
  return mismatched == 0 ? 0 : 1;
}
