// End-to-end tests: the four paper queries (§6.6) compiled from SQL text
// and executed over synthetic traces, the two-level runtime, and
// cross-checks against ground truth computed directly from the trace.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/hash.h"
#include "engine/runtime.h"
#include "net/flow_generator.h"
#include "net/trace_generator.h"
#include "query/query.h"
#include "sampling/distinct.h"
#include "sampling/kmv.h"
#include "stream/fault_injection.h"
#include "stream/trace_source.h"
#include "tuple/tuple_batch.h"

namespace streamop {
namespace {

Catalog TestCatalog() { return Catalog::Default(); }

// FNV-1a 64 over the rows' text, as hex (readable on mismatch).
std::string RowsDigest(const std::vector<Tuple>& rows) {
  uint64_t h = 14695981039346656037ULL;
  for (const Tuple& row : rows) {
    for (unsigned char c : row.ToString() + "\n") {
      h ^= c;
      h *= 1099511628211ULL;
    }
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// The paper's dynamic subset-sum query (§6.1), parameterized by target
// sample count and relaxation factor (1 = non-relaxed).
std::string SubsetSumSql(uint64_t n, double relax) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), R"(
      SELECT tb, srcIP, destIP, UMAX(sum(len), ssthreshold())
      FROM PKTS
      WHERE ssample(len, %llu, 2, %g) = TRUE
      GROUP BY time/20 as tb, srcIP, destIP, ts_ns
      HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
      CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
      CLEANING BY ssclean_with(sum(len)) = TRUE
  )",
                static_cast<unsigned long long>(n), relax);
  return buf;
}

TEST(SubsetSumE2E, EstimatesWindowSumsOnBurstyFeed) {
  Trace trace = TraceGenerator::MakeResearchFeed(61.0, 42);
  auto cq = CompileQuery(SubsetSumSql(1000, 10.0), TestCatalog(), {.seed = 7});
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  TwoLevelRuntime rt({*cq});
  auto run = rt.Run(trace);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const std::vector<Tuple> output = rt.high_node(0).DrainOutput();

  auto truth = trace.BytesPerWindow(20);
  std::vector<double> est(truth.size(), 0.0);
  for (const Tuple& t : output) {
    uint64_t tb = t[0].AsUInt();
    ASSERT_LT(tb, truth.size());
    est[tb] += t[3].AsDouble();
  }
  for (size_t w = 0; w + 1 < truth.size(); ++w) {  // skip the partial tail
    double rel = std::fabs(est[w] - static_cast<double>(truth[w])) /
                 static_cast<double>(truth[w]);
    EXPECT_LT(rel, 0.10) << "window " << w;
  }
}

TEST(SubsetSumE2E, SampleCountRespectsTarget) {
  Trace trace = TraceGenerator::MakeResearchFeed(61.0, 43);
  auto cq = CompileQuery(SubsetSumSql(500, 10.0), TestCatalog(), {.seed = 9});
  ASSERT_TRUE(cq.ok());
  TwoLevelRuntime rt({*cq});
  auto run = rt.Run(trace);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const std::vector<WindowStats>& windows = rt.high_node(0).window_stats();
  for (const WindowStats& ws : windows) {
    EXPECT_LE(ws.groups_output, 500u);
  }
  // Full windows of a busy feed reach (nearly) the target.
  ASSERT_GE(windows.size(), 3u);
  for (size_t i = 0; i + 1 < windows.size(); ++i) {
    EXPECT_GE(windows[i].groups_output, 400u) << "window " << i;
  }
}

TEST(SubsetSumE2E, RelaxedBeatsNonRelaxedAfterLoadDrops) {
  // Fig. 2/3: on a bursty feed the non-relaxed variant under-samples after
  // sharp load drops; the relaxed variant keeps its sample counts up.
  Trace trace = TraceGenerator::MakeResearchFeed(201.0, 44);
  auto relaxed_q =
      CompileQuery(SubsetSumSql(1000, 10.0), TestCatalog(), {.seed = 1});
  auto nonrelaxed_q =
      CompileQuery(SubsetSumSql(1000, 1.0), TestCatalog(), {.seed = 1});
  ASSERT_TRUE(relaxed_q.ok());
  ASSERT_TRUE(nonrelaxed_q.ok());
  // Both variants run as the high nodes of one runtime.
  TwoLevelRuntime rt({*relaxed_q, *nonrelaxed_q});
  auto run = rt.Run(trace);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const std::vector<WindowStats>& relaxed = rt.high_node(0).window_stats();
  const std::vector<WindowStats>& nonrelaxed = rt.high_node(1).window_stats();

  uint64_t relaxed_total = 0, nonrelaxed_total = 0;
  for (const WindowStats& ws : relaxed) relaxed_total += ws.groups_output;
  for (const WindowStats& ws : nonrelaxed) {
    nonrelaxed_total += ws.groups_output;
  }
  EXPECT_GT(relaxed_total, nonrelaxed_total);

  // And the relaxed variant pays with more cleaning phases (Fig. 4).
  uint64_t relaxed_cleanings = 0, nonrelaxed_cleanings = 0;
  for (const WindowStats& ws : relaxed) relaxed_cleanings += ws.cleaning_phases;
  for (const WindowStats& ws : nonrelaxed) {
    nonrelaxed_cleanings += ws.cleaning_phases;
  }
  EXPECT_GT(relaxed_cleanings, nonrelaxed_cleanings);
}

TEST(HeavyHitterE2E, TopTalkersSurviveCleaning) {
  Trace trace = TraceGenerator::MakeResearchFeed(59.0, 45);
  auto cq = CompileQuery(R"(
      SELECT tb, srcIP, sum(len), count(*)
      FROM TCP
      GROUP BY time/60 as tb, srcIP
      CLEANING WHEN local_count(1000) = TRUE
      CLEANING BY count(*) >= current_bucket() - first(current_bucket())
  )",
                         TestCatalog());
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  TwoLevelRuntime rt({*cq});
  auto run = rt.Run(trace);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const std::vector<Tuple> output = rt.high_node(0).DrainOutput();

  // Ground-truth packet counts per srcIP.
  std::map<uint32_t, uint64_t> truth;
  for (const PacketRecord& p : trace.packets()) ++truth[p.src_ip];
  std::vector<std::pair<uint64_t, uint32_t>> ranked;
  for (auto& [ip, cnt] : truth) ranked.push_back({cnt, ip});
  std::sort(ranked.rbegin(), ranked.rend());

  std::map<uint64_t, uint64_t> reported;  // srcIP -> estimated count
  for (const Tuple& t : output) {
    reported[t[1].AsUInt()] = t[3].AsUInt();
  }
  // Every top-10 talker (all far above the 1/1000 support implied by the
  // bucket width) must be reported, with its count within the eps*N bound.
  const double eps = 1.0 / 1000.0;
  const double n = static_cast<double>(trace.size());
  for (int i = 0; i < 10 && i < static_cast<int>(ranked.size()); ++i) {
    uint64_t ip = ranked[static_cast<size_t>(i)].second;
    uint64_t true_cnt = ranked[static_cast<size_t>(i)].first;
    ASSERT_TRUE(reported.count(ip) > 0) << "missed top talker " << i;
    EXPECT_LE(reported[ip], true_cnt);
    EXPECT_GE(static_cast<double>(reported[ip]),
              static_cast<double>(true_cnt) - eps * n - 1.0);
  }
  // The table was actually pruned: far fewer rows than distinct sources.
  EXPECT_LT(output.size(), truth.size());
}

TEST(MinHashE2E, ReportsKSmallestHashesPerSource) {
  // One source talking to 3000 distinct destinations in one window: the
  // query must output exactly the 100 smallest H(destIP) values.
  std::vector<PacketRecord> packets;
  Pcg64 rng(47);
  for (int i = 0; i < 20000; ++i) {
    PacketRecord p{};
    p.ts_ns = static_cast<uint64_t>(i) * 1000000ULL;  // all within 20 s
    p.src_ip = 0x0a000001;
    p.dst_ip = 0xc0a80000 + static_cast<uint32_t>(rng.NextBounded(3000));
    p.len = 100;
    p.proto = kProtoTcp;
    packets.push_back(p);
  }
  Trace trace(std::move(packets));

  auto cq = CompileQuery(R"(
      SELECT tb, srcIP, HX
      FROM TCP
      WHERE HX <= Kth_smallest_value$(HX, 100)
      GROUP BY time/60 as tb, srcIP, H(destIP) as HX
      SUPERGROUP BY tb, srcIP
      HAVING HX <= Kth_smallest_value$(HX, 100)
      CLEANING WHEN count_distinct$(*) >= 150
      CLEANING BY HX <= Kth_smallest_value$(HX, 100)
  )",
                         TestCatalog());
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  TwoLevelRuntime rt({*cq});
  auto run = rt.Run(trace);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const std::vector<Tuple> output = rt.high_node(0).DrainOutput();

  // Expected: the 100 smallest H(destIP) over the distinct destinations.
  std::set<uint64_t> distinct_hashes;
  for (const PacketRecord& p : trace.packets()) {
    distinct_hashes.insert(SeededHash64(Value::UInt(p.dst_ip).Hash(), 0));
  }
  std::vector<uint64_t> expected(distinct_hashes.begin(),
                                 distinct_hashes.end());
  expected.resize(100);

  std::vector<uint64_t> got;
  for (const Tuple& t : output) got.push_back(t[2].AsUInt());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);
}

TEST(ReservoirE2E, FixedSizeUniformSamplePerWindow) {
  Trace trace = TraceGenerator::MakeResearchFeed(59.0, 48);
  auto cq = CompileQuery(R"(
      SELECT tb, srcIP, destIP
      FROM TCP
      WHERE rsample(100, 2) = TRUE
      GROUP BY time/60 as tb, srcIP, destIP, ts_ns
      HAVING rsfinal_clean(count_distinct$(*)) = TRUE
      CLEANING WHEN rsdo_clean(count_distinct$(*)) = TRUE
      CLEANING BY rsclean_with() = TRUE
  )",
                         TestCatalog(), {.seed = 11});
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  TwoLevelRuntime rt({*cq});
  auto run = rt.Run(trace);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const std::vector<Tuple> output = rt.high_node(0).DrainOutput();
  const std::vector<WindowStats>& windows = rt.high_node(0).window_stats();
  ASSERT_GE(windows.size(), 1u);
  EXPECT_EQ(output.size(), 100u);  // one full window of 59 s
  EXPECT_GT(windows[0].cleaning_phases, 0u);
}

TEST(AggregationE2E, OperatorMatchesGroundTruth) {
  // The "actual" query of §7.1: per-window sum of packet lengths.
  Trace trace = TraceGenerator::MakeResearchFeed(41.0, 49);
  auto cq = CompileQuery(
      "SELECT tb, sum(len) FROM PKT GROUP BY time/20 as tb", TestCatalog());
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  TwoLevelRuntime rt({*cq});
  auto run = rt.Run(trace);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const std::vector<Tuple> output = rt.high_node(0).DrainOutput();
  auto truth = trace.BytesPerWindow(20);
  ASSERT_EQ(output.size(), truth.size());
  for (const Tuple& t : output) {
    EXPECT_EQ(t[1].AsUInt(), truth[t[0].AsUInt()]) << t.ToString();
  }
}

TEST(SampledFlowsE2E, BoundedGroupsAccurateEstimates) {
  // Â§8 extension: flow aggregation integrated with packet-level dynamic
  // subset-sum sampling survives a single-packet-flow flood with a bounded
  // group table and accurate per-window byte estimates.
  FlowTraceConfig cfg;
  cfg.duration_sec = 60.0;
  cfg.seed = 54;
  cfg.attack_enabled = true;
  cfg.attack_start_sec = 20.0;
  cfg.attack_duration_sec = 20.0;
  cfg.attack_flows_per_sec = 10000.0;
  Trace trace = GenerateFlowTrace(cfg);
  FlowWindowTruth truth = ComputeFlowTruth(trace, 20);
  ASSERT_GE(truth.flows_per_window.size(), 3u);
  // The flood window really does have an enormous flow count.
  EXPECT_GT(truth.flows_per_window[1], 20u * truth.flows_per_window[0]);

  auto cq = CompileQuery(R"(
      SELECT tb, srcIP, destIP, srcPort, destPort, proto,
             UMAX(sum(UMAX(len, ssthreshold())), ssthreshold()), count(*)
      FROM PKT
      WHERE ssample(len, 500, 2, 10) = TRUE
      GROUP BY time/20 as tb, srcIP, destIP, srcPort, destPort, proto
      HAVING ssfinal_clean(sum(UMAX(len, ssthreshold())),
                           count_distinct$(*)) = TRUE
      CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
      CLEANING BY ssclean_with(sum(UMAX(len, ssthreshold()))) = TRUE
  )",
                         TestCatalog(), {.seed = 15});
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  TwoLevelRuntime rt({*cq});
  auto run = rt.Run(trace);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const std::vector<Tuple> output = rt.high_node(0).DrainOutput();
  const std::vector<WindowStats>& windows = rt.high_node(0).window_stats();

  std::vector<double> est(truth.bytes_per_window.size(), 0.0);
  for (const Tuple& t : output) {
    uint64_t tb = t[0].AsUInt();
    ASSERT_LT(tb, est.size());
    est[tb] += t[6].AsDouble();
  }
  for (size_t w = 0; w < truth.bytes_per_window.size(); ++w) {
    double actual = static_cast<double>(truth.bytes_per_window[w]);
    if (actual == 0) continue;
    EXPECT_NEAR(est[w], actual, 0.15 * actual) << "window " << w;
  }
  // Bounded memory: the group table never grows far past beta*N even while
  // tens of thousands of flows pass by.
  for (const WindowStats& ws : windows) {
    EXPECT_LE(ws.peak_groups, 2u * 500u + 32u);
  }
}

TEST(SampledFlowsE2E, SsInitConfiguresWithoutFiltering) {
  // ssinit() latches the sampler config and admits everything.
  Trace trace = TraceGenerator::MakeResearchFeed(5.0, 56);
  auto cq = CompileQuery(R"(
      SELECT tb, count(*)
      FROM PKT
      WHERE ssinit(100) = TRUE
      GROUP BY time/20 as tb
  )",
                         TestCatalog());
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  TwoLevelRuntime rt({*cq});
  auto run = rt.Run(trace);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const std::vector<Tuple> output = rt.high_node(0).DrainOutput();
  uint64_t counted = 0;
  for (const Tuple& t : output) counted += t[1].AsUInt();
  EXPECT_EQ(counted, trace.size());
}

TEST(DistinctSamplingE2E, DistinctSourcesPerWindow) {
  // Gibbons' distinct sampling through the operator: the estimate
  // count_distinct$(*) * dsfactor() tracks the true number of distinct
  // sources, with the sample bounded by the capacity.
  Trace trace = TraceGenerator::MakeDataCenterFeed(8.0, 57);
  auto cq = CompileQuery(R"(
      SELECT tb, srcIP, count(*), count_distinct$(*) * dsfactor()
      FROM PKT
      WHERE dssample(H(srcIP), 512) = TRUE
      GROUP BY time/4 as tb, srcIP
      CLEANING WHEN dsdo_clean(count_distinct$(*)) = TRUE
      CLEANING BY dsclean_with(H(srcIP)) = TRUE
  )",
                         TestCatalog());
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  TwoLevelRuntime rt({*cq});
  auto run = rt.Run(trace);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const std::vector<Tuple> output = rt.high_node(0).DrainOutput();
  const std::vector<WindowStats>& windows = rt.high_node(0).window_stats();

  // True distinct sources per 4 s window.
  std::vector<std::set<uint32_t>> truth;
  for (const PacketRecord& p : trace.packets()) {
    uint64_t w = p.ts_sec() / 4;
    if (w >= truth.size()) truth.resize(w + 1);
    truth[w].insert(p.src_ip);
  }
  // Every output row of a window carries the same estimate; check one per
  // window, and check the sample stayed within capacity.
  std::map<uint64_t, double> est;
  std::map<uint64_t, uint64_t> rows;
  for (const Tuple& t : output) {
    est[t[0].AsUInt()] = t[3].AsDouble();
    ++rows[t[0].AsUInt()];
  }
  for (auto& [tb, e] : est) {
    ASSERT_LT(tb, truth.size());
    double actual = static_cast<double>(truth[tb].size());
    EXPECT_NEAR(e, actual, 0.30 * actual) << "window " << tb;
    EXPECT_LE(rows[tb], 512u);
  }
  // The pool is much larger than the capacity, so levels must have risen.
  ASSERT_FALSE(windows.empty());
  EXPECT_GT(windows[0].cleaning_phases, 0u);
}

TEST(QuantileAggregateE2E, MedianPacketLengthPerWindow) {
  Trace trace = TraceGenerator::MakeResearchFeed(39.0, 58);
  auto cq = CompileQuery(
      "SELECT tb, median(len), quantile(len, 0.9), count(*) "
      "FROM PKT GROUP BY time/20 as tb",
      TestCatalog());
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  TwoLevelRuntime rt({*cq});
  auto run = rt.Run(trace);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const std::vector<Tuple> output = rt.high_node(0).DrainOutput();
  ASSERT_GE(output.size(), 2u);

  // Exact per-window sorted lengths for rank checking.
  std::map<uint64_t, std::vector<double>> lens;
  for (const PacketRecord& p : trace.packets()) {
    lens[p.ts_sec() / 20].push_back(static_cast<double>(p.len));
  }
  for (const Tuple& t : output) {
    uint64_t tb = t[0].AsUInt();
    std::vector<double>& v = lens[tb];
    std::sort(v.begin(), v.end());
    double n = static_cast<double>(v.size());
    for (auto [col, phi] : {std::pair<int, double>{1, 0.5}, {2, 0.9}}) {
      double q = t[static_cast<size_t>(col)].AsDouble();
      // Duplicated lengths occupy a rank interval; measure distance to it.
      double lo = static_cast<double>(
          std::lower_bound(v.begin(), v.end(), q) - v.begin());
      double hi = static_cast<double>(
          std::upper_bound(v.begin(), v.end(), q) - v.begin());
      double target = phi * n;
      double err = target < lo ? lo - target : (target > hi ? target - hi : 0);
      EXPECT_LE(err, 0.02 * n + 2.0) << "window " << tb << " phi " << phi;
    }
  }
}

TEST(QuantileAggregateE2E, QuantileErrors) {
  EXPECT_EQ(CompileQuery("SELECT quantile(len) FROM PKT GROUP BY srcIP",
                         TestCatalog())
                .status()
                .code(),
            StatusCode::kAnalysisError);
  EXPECT_EQ(CompileQuery("SELECT quantile(len, 1.5) FROM PKT GROUP BY srcIP",
                         TestCatalog())
                .status()
                .code(),
            StatusCode::kAnalysisError);
  EXPECT_EQ(CompileQuery("SELECT quantile(len, srcIP) FROM PKT GROUP BY srcIP",
                         TestCatalog())
                .status()
                .code(),
            StatusCode::kAnalysisError);
  EXPECT_EQ(
      CompileQuery("SELECT median(*) FROM PKT GROUP BY srcIP", TestCatalog())
          .status()
          .code(),
      StatusCode::kAnalysisError);
}

TEST(CascadeE2E, HeavyHittersThenReservoir) {
  // §8 ongoing work: one sampling operator feeding another. Stage 0 finds
  // per-minute heavy sources (lossy counting); stage 1 draws a uniform
  // reservoir sample of 5 of them per window.
  Trace trace = TraceGenerator::MakeResearchFeed(59.0, 60);
  std::vector<std::string> sqls = {
      R"(SELECT tb, srcIP, count(*)
         FROM TCP
         GROUP BY time/60 as tb, srcIP
         CLEANING WHEN local_count(1000) = TRUE
         CLEANING BY count(*) >= current_bucket() - first(current_bucket()))",
      R"(SELECT tb2, srcIP
         FROM S0
         WHERE rsample(5, 2, 1) = TRUE
         GROUP BY tb as tb2, srcIP
         HAVING rsfinal_clean(count_distinct$(*)) = TRUE
         CLEANING WHEN rsdo_clean(count_distinct$(*)) = TRUE
         CLEANING BY rsclean_with() = TRUE)",
  };
  auto chain = CompileChain(sqls, TestCatalog(), {.seed = 3});
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  TwoLevelRuntime rt(*chain);
  auto run = rt.Run(trace);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  // Stage 0 is read by stage 1, so it keeps no output of its own.
  EXPECT_TRUE(rt.high_node(0).DrainOutput().empty());
  std::vector<Tuple> out = rt.high_node(1).DrainOutput();
  ASSERT_EQ(out.size(), 5u);  // one 60 s window, 5 uniform picks
  // Recorded from the row-at-a-time cascade, before the stages ran as
  // chained runtime nodes.
  EXPECT_EQ(RowsDigest(out), "cc26ee6a2a72b6b0");

  // Every sampled source must be one the heavy-hitter stage emitted
  // (lossy counting admits false positives below the support, so compare
  // against the stage-0 query re-run standalone, not against raw counts).
  auto hh_q = CompileQuery(sqls[0], TestCatalog());
  ASSERT_TRUE(hh_q.ok());
  TwoLevelRuntime hh_rt({*hh_q});
  ASSERT_TRUE(hh_rt.Run(trace).ok());
  std::set<uint64_t> emitted;
  for (const Tuple& t : hh_rt.high_node(0).DrainOutput()) {
    emitted.insert(t[1].AsUInt());
  }
  for (const Tuple& t : out) {
    EXPECT_TRUE(emitted.count(t[1].AsUInt()) > 0) << t.ToString();
  }
  // And the reservoir picks are distinct sources.
  std::set<uint64_t> picked;
  for (const Tuple& t : out) picked.insert(t[1].AsUInt());
  EXPECT_EQ(picked.size(), out.size());
}

TEST(CascadeE2E, OrderingPropagatesThroughStages) {
  // The stage-0 output schema marks tb ordered, so stage 1 windows on it.
  std::vector<std::string> sqls = {
      "SELECT tb, srcIP, sum(len) FROM PKT GROUP BY time/20 as tb, srcIP",
      "SELECT tb2, count(*) FROM S0 GROUP BY tb as tb2",
  };
  auto chain = CompileChain(sqls, TestCatalog());
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  ASSERT_EQ((*chain)[1].input_schema()->name(), StageStreamName(0));
  Trace trace = TraceGenerator::MakeResearchFeed(45.0, 61);
  TwoLevelRuntime rt(*chain);
  auto run = rt.Run(trace);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  std::vector<Tuple> out = rt.high_node(1).DrainOutput();
  // Three 20 s windows -> three stage-1 rows, each counting stage-0 groups.
  ASSERT_EQ(out.size(), 3u);
  for (const Tuple& t : out) EXPECT_GT(t[1].AsUInt(), 0u);
  // Recorded from the row-at-a-time cascade, before the stages ran as
  // chained runtime nodes.
  EXPECT_EQ(RowsDigest(out), "3d17ce910c0c91ce");
}

TEST(CascadeE2E, CreateErrors) {
  EXPECT_FALSE(CompileChain({}, TestCatalog()).ok());
  EXPECT_FALSE(CompileChain({"SELECT x FROM NOPE"}, TestCatalog()).ok());
  // Stage 1 referencing a stream that is not S0 or a base stream fails.
  EXPECT_FALSE(
      CompileChain({"SELECT len FROM PKT", "SELECT y FROM S7"}, TestCatalog())
          .ok());
}

TEST(CascadeE2E, StageStreamNamesRoundTrip) {
  for (size_t i : {0, 1, 7, 12}) {
    EXPECT_EQ(StageOfStream(StageStreamName(i)), i);
  }
  for (const char* other : {"PKT", "S", "S-1", "S01", "S1x", "s1", "TCP"}) {
    EXPECT_FALSE(StageOfStream(other).has_value()) << other;
  }
}

TEST(PrioritySamplingE2E, ExactTopKByPriorityWithAccurateSums) {
  // Priority sampling [DLT 2004] modeled in the operator (the paper urges
  // readers to express further algorithms this way): each packet gets a
  // deterministic pseudo-priority PRIO(len, ts_ns) = len/u; cleaning keeps
  // the top N+1 priorities per window via kth_largest$; HAVING emits the
  // top N; the HT weight is max(len, tau) with tau the (N+1)th priority.
  Trace trace = TraceGenerator::MakeResearchFeed(41.0, 62);
  auto cq = CompileQuery(R"(
      SELECT tb, srcIP, destIP, DMAX(FLOAT(len), kth_largest_value$(prio, 101))
      FROM PKT
      WHERE prio >= kth_largest_value$(prio, 101)
      GROUP BY time/20 as tb, srcIP, destIP, len, ts_ns,
               PRIO(len, ts_ns) as prio
      SUPERGROUP BY tb
      HAVING prio > kth_largest_value$(prio, 101)
      CLEANING WHEN count_distinct$(*) > 220
      CLEANING BY prio >= kth_largest_value$(prio, 101)
  )",
                         TestCatalog());
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  TwoLevelRuntime rt({*cq});
  auto run = rt.Run(trace);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const std::vector<Tuple> output = rt.high_node(0).DrainOutput();

  auto truth = trace.BytesPerWindow(20);
  std::map<uint64_t, uint64_t> rows;
  std::vector<double> est(truth.size(), 0.0);
  for (const Tuple& t : output) {
    uint64_t tb = t[0].AsUInt();
    ++rows[tb];
    ASSERT_LT(tb, truth.size());
    est[tb] += t[3].AsDouble();
  }
  double est_total = 0.0, truth_total = 0.0;
  for (size_t w = 0; w + 1 < truth.size(); ++w) {
    EXPECT_EQ(rows[w], 100u) << "window " << w;  // exactly the top N
    // Per-window priority-sampling error ~ 1/sqrt(N-1) ~ 10%; allow 4 sigma.
    EXPECT_NEAR(est[w], static_cast<double>(truth[w]),
                0.40 * static_cast<double>(truth[w]))
        << "window " << w;
    est_total += est[w];
    truth_total += static_cast<double>(truth[w]);
  }
  // Errors average out across windows (unbiasedness).
  EXPECT_NEAR(est_total, truth_total, 0.15 * truth_total);
}

TEST(SupergroupE2E, PerSourceThresholdsAdaptIndependently) {
  // SUPERGROUP BY srcIP gives every source its own sampler state: a light
  // source and a 10x heavier source must both hit the per-supergroup
  // sample target, with accurate per-source byte estimates.
  std::vector<PacketRecord> packets;
  Pcg64 rng(63);
  for (int w = 0; w < 2; ++w) {
    uint64_t base = static_cast<uint64_t>(w) * 20'000'000'000ULL;
    for (int i = 0; i < 5000; ++i) {  // heavy source A
      PacketRecord p{};
      p.ts_ns = base + static_cast<uint64_t>(i) * 3'000'000ULL;
      p.src_ip = 0x0a000001;
      p.dst_ip = 0xc0a80000 + static_cast<uint32_t>(rng.NextBounded(500));
      p.len = static_cast<uint16_t>(40 + rng.NextBounded(1460));
      packets.push_back(p);
    }
    for (int i = 0; i < 500; ++i) {  // light source B
      PacketRecord p{};
      p.ts_ns = base + static_cast<uint64_t>(i) * 30'000'000ULL + 1;
      p.src_ip = 0x0a000002;
      p.dst_ip = 0xc0a80000 + static_cast<uint32_t>(rng.NextBounded(500));
      p.len = static_cast<uint16_t>(40 + rng.NextBounded(1460));
      packets.push_back(p);
    }
  }
  std::sort(packets.begin(), packets.end(),
            [](const PacketRecord& a, const PacketRecord& b) {
              return a.ts_ns < b.ts_ns;
            });
  Trace trace(std::move(packets));

  auto cq = CompileQuery(R"(
      SELECT tb, srcIP, destIP, UMAX(sum(len), ssthreshold())
      FROM PKT
      WHERE ssample(len, 50, 2, 10) = TRUE
      GROUP BY time/20 as tb, srcIP, destIP, ts_ns
      SUPERGROUP BY tb, srcIP
      HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
      CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
      CLEANING BY ssclean_with(sum(len)) = TRUE
  )",
                         TestCatalog(), {.seed = 19});
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  TwoLevelRuntime rt({*cq});
  auto run = rt.Run(trace);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const std::vector<Tuple> output = rt.high_node(0).DrainOutput();

  // Per (window, source) sample counts and estimates.
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> samples;
  std::map<std::pair<uint64_t, uint64_t>, double> est;
  for (const Tuple& t : output) {
    auto key = std::make_pair(t[0].AsUInt(), t[1].AsUInt());
    ++samples[key];
    est[key] += t[3].AsDouble();
  }
  std::map<std::pair<uint64_t, uint64_t>, double> truth;
  for (const PacketRecord& p : trace.packets()) {
    truth[{p.ts_sec() / 20, p.src_ip}] += p.len;
  }
  for (auto& [key, n] : samples) {
    EXPECT_LE(n, 50u) << key.second;
    EXPECT_GE(n, 35u) << "source " << key.second
                      << " under-sampled in window " << key.first;
    EXPECT_NEAR(est[key], truth[key], 0.15 * truth[key]);
  }
  // Both sources present in both windows.
  EXPECT_EQ(samples.size(), 4u);
}

TEST(SuperaggE2E, SumAndFirstSuperaggregates) {
  // sum$(len) must track all admitted bytes of the supergroup and shrink
  // when cleaning removes groups (shadow subtraction); first$(len) holds
  // the first admitted value of the window.
  std::vector<Tuple> rows;
  SchemaPtr schema = MakePacketSchema();
  auto pkt = [](uint64_t sec, uint32_t src, uint16_t len) {
    PacketRecord p{};
    p.ts_ns = sec * 1'000'000'000ULL;
    p.src_ip = src;
    p.len = len;
    return PacketToTuple(p);
  };
  auto cq = CompileQuery(R"(
      SELECT tb, srcIP, count(*), sum$(len), first$(len)
      FROM PKT
      GROUP BY time/60 as tb, srcIP
      CLEANING WHEN count_distinct$(*) > 2
      CLEANING BY count(*) >= 2
  )",
                         TestCatalog());
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  SamplingOperator op(cq->sampling);
  ASSERT_TRUE(op.Process(pkt(1, 1, 100)).ok());
  ASSERT_TRUE(op.Process(pkt(1, 1, 100)).ok());  // src 1: count 2
  ASSERT_TRUE(op.Process(pkt(2, 2, 50)).ok());   // src 2: count 1
  ASSERT_TRUE(op.Process(pkt(3, 3, 70)).ok());   // 3 groups -> clean
  ASSERT_TRUE(op.FinishStream().ok());
  std::vector<Tuple> out = op.DrainOutput();
  ASSERT_EQ(out.size(), 1u);  // only src 1 survives (count >= 2)
  EXPECT_EQ(out[0][1].AsUInt(), 1u);
  // sum$ = 100+100+50+70 minus removed shadows (50 + 70) = 200.
  EXPECT_EQ(out[0][3].AsUInt(), 200u);
  EXPECT_EQ(out[0][4].AsUInt(), 100u);  // first admitted len
  (void)rows;
  (void)schema;
}

TEST(ReservoirE2E, BernoulliBackoffModeUniformCount) {
  Trace trace = TraceGenerator::MakeResearchFeed(59.0, 64);
  auto cq = CompileQuery(R"(
      SELECT tb, srcIP, destIP
      FROM TCP
      WHERE rsample(100, 4, 1) = TRUE
      GROUP BY time/60 as tb, srcIP, destIP, ts_ns
      HAVING rsfinal_clean(count_distinct$(*)) = TRUE
      CLEANING WHEN rsdo_clean(count_distinct$(*)) = TRUE
      CLEANING BY rsclean_with() = TRUE
  )",
                         TestCatalog(), {.seed = 23});
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  TwoLevelRuntime rt({*cq});
  auto run = rt.Run(trace);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const std::vector<Tuple> output = rt.high_node(0).DrainOutput();
  const std::vector<WindowStats>& windows = rt.high_node(0).window_stats();
  EXPECT_EQ(output.size(), 100u);
  ASSERT_FALSE(windows.empty());
  EXPECT_GT(windows[0].cleaning_phases, 0u);
}

// ---------- two-level runtime ----------

constexpr char kPassThroughLow[] =
    "SELECT time, ts_ns, srcIP, destIP, srcPort, destPort, proto, len "
    "FROM PKT";

TEST(TwoLevelE2E, PassThroughLowLevelPreservesResults) {
  Trace trace = TraceGenerator::MakeResearchFeed(31.0, 50);
  auto low = CompileQuery(kPassThroughLow, TestCatalog());
  auto high = CompileQuery(
      "SELECT tb, sum(len) FROM PKT GROUP BY time/20 as tb", TestCatalog());
  ASSERT_TRUE(low.ok());
  ASSERT_TRUE(high.ok());
  TwoLevelRuntime rt(*low, {*high});
  auto report = rt.Run(trace);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->low.tuples_in, trace.size());
  EXPECT_EQ(report->low.tuples_out, trace.size());

  auto truth = trace.BytesPerWindow(20);
  std::vector<Tuple> out = rt.high_node(0).DrainOutput();
  ASSERT_EQ(out.size(), truth.size());
  for (const Tuple& t : out) {
    EXPECT_EQ(t[1].AsUInt(), truth[t[0].AsUInt()]);
  }
}

TEST(TwoLevelE2E, PreSamplingLowLevelReducesHighLoad) {
  // Fig. 6's mechanism: a basic-subset-sum low-level query (threshold z/10)
  // slashes the tuple volume reaching the high-level sampler while keeping
  // the estimate intact (weights adjusted via UMAX at the low level).
  Trace trace = TraceGenerator::MakeDataCenterFeed(10.0, 51);
  const double z_low = 800.0;
  char low_sql[512];
  std::snprintf(low_sql, sizeof(low_sql),
                "SELECT time, ts_ns, srcIP, destIP, srcPort, destPort, proto, "
                "UMAX(len, %g) as len FROM PKT "
                "WHERE ssample(len, 0, 2, 1, %g) = TRUE",
                z_low, z_low);
  auto low = CompileQuery(low_sql, TestCatalog(), {.seed = 21});
  auto high =
      CompileQuery(SubsetSumSql(1000, 10.0), TestCatalog(), {.seed = 22});
  ASSERT_TRUE(low.ok()) << low.status().ToString();
  ASSERT_TRUE(high.ok());
  TwoLevelRuntime rt(*low, {*high});
  auto report = rt.Run(trace);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Data reduction at the low level.
  EXPECT_LT(report->low.tuples_out, report->low.tuples_in / 2);

  // The end-to-end estimate still tracks the trace.
  auto truth = trace.BytesPerWindow(20);
  std::vector<double> est(truth.size(), 0.0);
  for (const Tuple& t : rt.high_node(0).DrainOutput()) {
    uint64_t tb = t[0].AsUInt();
    ASSERT_LT(tb, est.size());
    est[tb] += t[3].AsDouble();
  }
  for (size_t w = 0; w < truth.size(); ++w) {
    EXPECT_NEAR(est[w], static_cast<double>(truth[w]),
                0.10 * static_cast<double>(truth[w]))
        << "window " << w;
  }
}

TEST(TwoLevelE2E, MultipleHighLevelQueriesShareOneLowLevel) {
  Trace trace = TraceGenerator::MakeResearchFeed(21.0, 52);
  auto low = CompileQuery(kPassThroughLow, TestCatalog());
  auto agg = CompileQuery(
      "SELECT tb, sum(len) FROM PKT GROUP BY time/20 as tb", TestCatalog());
  auto cnt = CompileQuery(
      "SELECT tb, count(*) FROM PKT GROUP BY time/20 as tb", TestCatalog());
  ASSERT_TRUE(low.ok());
  ASSERT_TRUE(agg.ok());
  ASSERT_TRUE(cnt.ok());
  TwoLevelRuntime rt(*low, {*agg, *cnt});
  auto report = rt.Run(trace);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->high.size(), 2u);
  EXPECT_EQ(report->high[0].tuples_in, trace.size());
  EXPECT_EQ(report->high[1].tuples_in, trace.size());

  auto counts = trace.PacketsPerWindow(20);
  for (const Tuple& t : rt.high_node(1).DrainOutput()) {
    EXPECT_EQ(t[1].AsUInt(), counts[t[0].AsUInt()]);
  }
}

TEST(TwoLevelE2E, ThreadedRunMatchesSequentialRun) {
  // Pipeline parallelism must not change results: same queries, same trace,
  // Run() vs RunThreaded() produce identical output rows.
  Trace trace = TraceGenerator::MakeResearchFeed(31.0, 65);
  auto low = CompileQuery(kPassThroughLow, TestCatalog());
  auto high = CompileQuery(SubsetSumSql(500, 10.0), TestCatalog(), {.seed = 5});
  ASSERT_TRUE(low.ok());
  ASSERT_TRUE(high.ok());

  TwoLevelRuntime seq(*low, {*high});
  auto seq_report = seq.Run(trace);
  ASSERT_TRUE(seq_report.ok()) << seq_report.status().ToString();
  std::vector<Tuple> seq_out = seq.high_node(0).DrainOutput();

  // Fresh runtime (operators are stateful).
  auto low2 = CompileQuery(kPassThroughLow, TestCatalog());
  auto high2 =
      CompileQuery(SubsetSumSql(500, 10.0), TestCatalog(), {.seed = 5});
  TwoLevelRuntime par(*low2, {*high2});
  auto par_report = par.RunThreaded(trace);
  ASSERT_TRUE(par_report.ok()) << par_report.status().ToString();
  std::vector<Tuple> par_out = par.high_node(0).DrainOutput();

  ASSERT_EQ(seq_out.size(), par_out.size());
  for (size_t i = 0; i < seq_out.size(); ++i) {
    EXPECT_EQ(seq_out[i], par_out[i]) << "row " << i;
  }
  EXPECT_GT(par_report->pipeline_seconds, 0.0);
  EXPECT_EQ(par_report->low.tuples_in, trace.size());
}

// A pass-through low node feeding a two-stage chain beside a third node
// that reads the low node. The chain's first stage keeps no output: its
// chunks go to the second. RunThreaded and Run agree, with or without the
// low node.
TEST(ThreadedRunChainTest, FanOutBesideAChainMatchesRunWithAndWithoutLowNode) {
  const Trace trace = TraceGenerator::MakeResearchFeed(61.0, 67);
  const std::vector<std::string> sqls = {
      "SELECT tb, srcIP, count(*) FROM PKT GROUP BY time/20 as tb, srcIP",
      "SELECT tb2, count(*) FROM S0 GROUP BY tb as tb2",
      "SELECT tb, sum(len) FROM PKT GROUP BY time/20 as tb",
  };
  // Each run gets fresh queries (the operators are stateful).
  auto run = [&](bool with_low, bool threaded) {
    auto low = CompileQuery(kPassThroughLow, TestCatalog());
    auto chain = CompileChain(sqls, TestCatalog(), {.seed = 9});
    EXPECT_TRUE(low.ok() && chain.ok());
    auto rt = with_low ? std::make_unique<TwoLevelRuntime>(*low, *chain)
                       : std::make_unique<TwoLevelRuntime>(*chain);
    auto report = threaded ? rt->RunThreaded(trace) : rt->Run(trace);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(rt->high_node(0).DrainOutput().empty());
    return std::vector<std::vector<Tuple>>{rt->high_node(1).DrainOutput(),
                                           rt->high_node(2).DrainOutput()};
  };
  const auto reference = run(/*with_low=*/true, /*threaded=*/false);
  const auto truth = trace.BytesPerWindow(20);
  ASSERT_EQ(reference[0].size(), truth.size());
  ASSERT_EQ(reference[1].size(), truth.size());
  for (const Tuple& t : reference[1]) {
    EXPECT_EQ(t[1].AsUInt(), truth[t[0].AsUInt()]);
  }
  EXPECT_EQ(run(true, true), reference);
  EXPECT_EQ(run(false, false), reference);
  EXPECT_EQ(run(false, true), reference);
}

// A TraceSource that counts what the runtime asks of it.
class CountingTraceSource : public TraceSource {
 public:
  using TraceSource::TraceSource;
  Status Open() override {
    ++opens;
    return TraceSource::Open();
  }
  ReadResult Read(PacketRecord* buf, size_t max, size_t* n_out) override {
    ++reads;
    return TraceSource::Read(buf, max, n_out);
  }
  int opens = 0;
  int reads = 0;
};

// A sampling low node, and a high node reading a stage stream that no
// earlier high node provides: every entry point refuses the shape before
// it opens its source.
TEST(ThreadedRunChainTest, RefusedShapesReadNothing) {
  const Trace trace = TraceGenerator::MakeResearchFeed(11.0, 68);
  auto sampling_low = CompileQuery(
      "SELECT tb, count(*) FROM PKT GROUP BY time/5 as tb", TestCatalog());
  auto chain = CompileChain(
      {"SELECT tb, count(*) FROM PKT GROUP BY time/5 as tb",
       "SELECT tb2, count(*) FROM S0 GROUP BY tb as tb2"},
      TestCatalog());
  ASSERT_TRUE(sampling_low.ok() && chain.ok());
  std::vector<std::unique_ptr<TwoLevelRuntime>> refused;
  refused.push_back(std::make_unique<TwoLevelRuntime>(
      *sampling_low, std::vector<CompiledQuery>{(*chain)[0]}));
  refused.push_back(std::make_unique<TwoLevelRuntime>(
      std::vector<CompiledQuery>{(*chain)[1], (*chain)[0]}));
  for (auto& rt : refused) {
    EXPECT_EQ(rt->Run(trace).status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(rt->RunThreaded(trace).status().code(),
              StatusCode::kInvalidArgument);
    CountingTraceSource source(&trace);
    EXPECT_EQ(rt->RunSource(source).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(source.opens, 0);
    EXPECT_EQ(source.reads, 0);
    EXPECT_EQ(rt->last_report().packets, 0u);
    EXPECT_TRUE(rt->last_report().sources.empty());
  }
}

// RunThreaded's ring carries slices of the trace: min(batch_size,
// ring_capacity) records each, in ring_capacity / slice slots. Each run
// gets fresh queries (the operators are stateful).
struct SliceRun {
  RunReport report;
  std::vector<Tuple> out;
};
SliceRun RunSliced(const Trace& trace, const RuntimeOptions& options,
                   bool threaded) {
  auto low = CompileQuery(kPassThroughLow, TestCatalog());
  auto high = CompileQuery(SubsetSumSql(500, 10.0), TestCatalog(), {.seed = 5});
  EXPECT_TRUE(low.ok() && high.ok());
  TwoLevelRuntime rt(*low, {*high}, options);
  auto report = threaded ? rt.RunThreaded(trace) : rt.Run(trace);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  SliceRun run;
  if (report.ok()) run.report = *report;
  run.out = rt.high_node(0).DrainOutput();
  return run;
}

// A ring smaller than a batch, and one that is not a multiple of a batch:
// the slices shrink to the ring, or the ring holds fewer records than its
// capacity, and neither changes a row.
TEST(ThreadedRunSliceTest, RingSmallerThanOrNotAMultipleOfABatchMatchesRun) {
  const Trace trace = TraceGenerator::MakeResearchFeed(31.0, 65);
  for (const size_t ring : {size_t{100}, size_t{1000}}) {
    SCOPED_TRACE(ring);
    RuntimeOptions options;
    options.ring_capacity = ring;
    options.batch_size = 512;
    const SliceRun seq = RunSliced(trace, options, false);
    const SliceRun par = RunSliced(trace, options, true);
    ASSERT_FALSE(seq.out.empty());
    EXPECT_EQ(par.out, seq.out);
    EXPECT_EQ(par.report.low.tuples_in, trace.size());
    EXPECT_GT(par.report.ring_occupancy_hwm, 0u);
    EXPECT_LE(par.report.ring_occupancy_hwm, ring);
  }
}

// A full ring drops the whole slice, and its records count as dropped.
TEST(ThreadedRunSliceTest, DropOnOverloadDropsWholeSlices) {
  const Trace trace = TraceGenerator::MakeResearchFeed(31.0, 66);
  RuntimeOptions options;
  options.batch_size = 64;
  options.ring_capacity = 128;
  options.drop_on_overload = true;
  ConsumerStallSpec stall;
  stall.per_batch_ms = 1;
  options.consumer_stall_hook = MakeConsumerStallHook(stall);
  const SliceRun run = RunSliced(trace, options, true);
  EXPECT_GT(run.report.packets_dropped, 0u);
  EXPECT_EQ(run.report.low.tuples_in + run.report.packets_dropped,
            trace.size());
  EXPECT_LE(run.report.ring_occupancy_hwm, options.ring_capacity);
}

// The ring's exported metrics count records, not slices.
TEST(ThreadedRunSliceTest, RingMetricsCountRecords) {
  obs::MetricRegistry reg;
  const Trace trace = TraceGenerator::MakeResearchFeed(31.0, 67);
  RuntimeOptions options;
  options.registry = &reg;
  const SliceRun run = RunSliced(trace, options, true);
  EXPECT_EQ(run.report.packets, trace.size());
  EXPECT_LE(run.report.ring_occupancy_hwm, options.ring_capacity);
  if (!obs::kStatsEnabled) return;  // stats compiled out
  EXPECT_EQ(reg.GetCounter("streamop_ring_pushes_total")->value(),
            run.report.packets);
  EXPECT_EQ(reg.GetCounter("streamop_ring_pops_total")->value(),
            run.report.packets);
  EXPECT_EQ(reg.GetGauge("streamop_ring_occupancy_hwm")->value(),
            static_cast<double>(run.report.ring_occupancy_hwm));
  // Push failures count slice pushes, as the report does.
  EXPECT_EQ(reg.GetCounter("streamop_ring_push_failures_total")->value(),
            run.report.ring_push_failures);
}

TEST(DistinctSamplingE2E, QueryPathMatchesLibraryPath) {
  // The ds* stateful functions and the DistinctSampler library class must
  // retain the same distinct-element sample when driven by the same hash
  // stream (H(srcIP) with seed 0 == DistinctSampler's internal hash of
  // Value(srcIP).Hash() with seed 0).
  std::vector<PacketRecord> packets;
  Pcg64 rng(66);
  for (int i = 0; i < 30000; ++i) {
    PacketRecord p{};
    p.ts_ns = static_cast<uint64_t>(i) * 500000ULL;  // one 60 s window
    p.src_ip = 0x0a000000 + static_cast<uint32_t>(rng.NextBounded(5000));
    p.len = 100;
    packets.push_back(p);
  }
  Trace trace(std::move(packets));

  const uint64_t kCap = 256;
  char sql[512];
  std::snprintf(sql, sizeof(sql), R"(
      SELECT tb, srcIP, count(*)
      FROM PKT
      WHERE dssample(H(srcIP), %llu) = TRUE
      GROUP BY time/60 as tb, srcIP
      CLEANING WHEN dsdo_clean(count_distinct$(*)) = TRUE
      CLEANING BY dsclean_with(H(srcIP)) = TRUE
  )",
                static_cast<unsigned long long>(kCap));
  auto cq = CompileQuery(sql, TestCatalog());
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  TwoLevelRuntime rt({*cq});
  auto run = rt.Run(trace);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const std::vector<Tuple> output = rt.high_node(0).DrainOutput();

  DistinctSampler lib(kCap, /*hash_seed=*/0);
  for (const PacketRecord& p : trace.packets()) {
    lib.Offer(Value::UInt(p.src_ip).Hash());
  }
  std::set<uint64_t> lib_elems;
  for (const auto& [e, c] : lib.sample()) lib_elems.insert(e);
  std::set<uint64_t> query_elems;
  std::map<uint64_t, uint64_t> query_counts;
  for (const Tuple& t : output) {
    uint64_t e = Value::UInt(static_cast<uint32_t>(t[1].AsUInt())).Hash();
    query_elems.insert(e);
    query_counts[e] = t[2].AsUInt();
  }
  EXPECT_EQ(query_elems, lib_elems);
  // Occurrence counts agree too.
  for (const auto& [e, c] : lib.sample()) {
    auto it = query_counts.find(e);
    if (it != query_counts.end()) {
      EXPECT_EQ(it->second, c);
    }
  }
}

TEST(SupergroupE2E, TwoNonOrderedSupergroupVariables) {
  // SUPERGROUP BY (srcIP, proto): four independent sampler states.
  std::vector<PacketRecord> packets;
  Pcg64 rng(67);
  for (int i = 0; i < 8000; ++i) {
    PacketRecord p{};
    p.ts_ns = static_cast<uint64_t>(i) * 2'000'000ULL;
    p.src_ip = 0x0a000001 + static_cast<uint32_t>(i % 2);
    p.proto = (i % 4 < 2) ? kProtoTcp : kProtoUdp;
    p.dst_ip = static_cast<uint32_t>(rng.NextBounded(1u << 30));
    p.len = static_cast<uint16_t>(40 + rng.NextBounded(1460));
    packets.push_back(p);
  }
  Trace trace(std::move(packets));
  auto cq = CompileQuery(R"(
      SELECT tb, srcIP, proto, destIP
      FROM PKT
      WHERE rsample(10, 2, 1) = TRUE
      GROUP BY time/60 as tb, srcIP, proto, destIP, ts_ns
      SUPERGROUP BY tb, srcIP, proto
      HAVING rsfinal_clean(count_distinct$(*)) = TRUE
      CLEANING WHEN rsdo_clean(count_distinct$(*)) = TRUE
      CLEANING BY rsclean_with() = TRUE
  )",
                         TestCatalog(), {.seed = 29});
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  TwoLevelRuntime rt({*cq});
  auto run = rt.Run(trace);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const std::vector<Tuple> output = rt.high_node(0).DrainOutput();
  // Exactly 10 samples per (srcIP, proto) supergroup, 4 supergroups.
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> per_sg;
  for (const Tuple& t : output) {
    ++per_sg[{t[1].AsUInt(), t[2].AsUInt()}];
  }
  ASSERT_EQ(per_sg.size(), 4u);
  for (auto& [key, n] : per_sg) EXPECT_EQ(n, 10u);
}

// ---------- runtime report ----------

TEST(RuntimeReportTest, CpuAccountingPlausible) {
  Trace trace = TraceGenerator::MakeResearchFeed(11.0, 53);
  auto cq = CompileQuery(
      "SELECT tb, sum(len) FROM PKT GROUP BY time/20 as tb", TestCatalog());
  ASSERT_TRUE(cq.ok());
  TwoLevelRuntime rt({*cq});
  auto run = rt.Run(trace);
  ASSERT_TRUE(run.ok());
  const NodeReport& node = run->high[0];
  EXPECT_GT(node.cpu_seconds, 0.0);
  EXPECT_GT(node.cpu_percent, 0.0);
  // %CPU is relative to the records' timestamp span.
  EXPECT_NEAR(node.cpu_percent,
              100.0 * node.cpu_seconds / run->stream_seconds, 1e-6);
}

}  // namespace
}  // namespace streamop
