// Uniform packet sampling with the reservoir query (§6.6): keep a fixed-
// size uniform sample of packets per minute and use it for downstream
// statistics — here, the mean packet length and the TCP fraction, compared
// against their exact values.
//
// Unlike subset-sum sampling (which optimizes *sum* estimates by biasing
// toward heavy packets), the reservoir sample is uniform over packets, so
// plain sample means are the right estimators. rsample's third argument
// selects the exactly-uniform Bernoulli-backoff admission (mode 1); the
// default mode reproduces the paper's skip-candidate scheme, which is
// biased toward early packets in each window (see EXPERIMENTS.md).

#include <cmath>
#include <cstdio>
#include <map>
#include <vector>

#include "engine/runtime.h"
#include "net/trace_generator.h"
#include "query/query.h"

using namespace streamop;

int main() {
  const int kSampleSize = 200;
  Trace trace = TraceGenerator::MakeResearchFeed(180.0, /*seed=*/31);
  std::printf("feed: %zu packets over %.0f s; %d uniform samples per minute\n\n",
              trace.size(), trace.DurationSec(), kSampleSize);

  Catalog catalog = Catalog::Default();
  char sql[512];
  std::snprintf(sql, sizeof(sql), R"(
      SELECT tb, len, proto
      FROM TCP
      WHERE rsample(%d, 4, 1) = TRUE
      GROUP BY time/60 as tb, srcIP, destIP, len, proto, ts_ns
      HAVING rsfinal_clean(count_distinct$(*)) = TRUE
      CLEANING WHEN rsdo_clean(count_distinct$(*)) = TRUE
      CLEANING BY rsclean_with() = TRUE
  )",
                kSampleSize);
  Result<CompiledQuery> cq = CompileQuery(sql, catalog, {.seed = 5});
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

  // Exact per-minute statistics.
  struct Exact {
    double len_sum = 0;
    uint64_t tcp = 0;
    uint64_t n = 0;
  };
  std::map<uint64_t, Exact> exact;
  for (const PacketRecord& p : trace.packets()) {
    Exact& e = exact[p.ts_sec() / 60];
    e.len_sum += p.len;
    e.tcp += (p.proto == kProtoTcp) ? 1 : 0;
    ++e.n;
  }

  // Sampled per-minute statistics.
  struct Sampled {
    double len_sum = 0;
    uint64_t tcp = 0;
    uint64_t n = 0;
  };
  std::map<uint64_t, Sampled> sampled;
  for (const Tuple& t : rows) {
    Sampled& s = sampled[t[0].AsUInt()];
    s.len_sum += t[1].AsDouble();
    s.tcp += (t[2].AsUInt() == kProtoTcp) ? 1 : 0;
    ++s.n;
  }

  std::printf("%-8s %10s | %12s %12s | %10s %10s\n", "minute", "samples",
              "mean len", "(exact)", "TCP frac", "(exact)");
  for (auto& [tb, s] : sampled) {
    const Exact& e = exact[tb];
    if (s.n == 0 || e.n == 0) continue;
    std::printf("%-8llu %10llu | %12.1f %12.1f | %10.3f %10.3f\n",
                static_cast<unsigned long long>(tb),
                static_cast<unsigned long long>(s.n),
                s.len_sum / static_cast<double>(s.n),
                e.len_sum / static_cast<double>(e.n),
                static_cast<double>(s.tcp) / static_cast<double>(s.n),
                static_cast<double>(e.tcp) / static_cast<double>(e.n));
  }
  std::printf(
      "\nnote: a uniform %d-packet sample pins per-minute means to a few "
      "percent; use subset-sum sampling instead when the target is byte "
      "*totals* under heavy-tailed packet sizes.\n",
      kSampleSize);
  return 0;
}
