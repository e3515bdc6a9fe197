// Chaos tests: seeded fault injection (bursts, malformed packets, timestamp
// regressions, consumer stalls) driven through the two-level runtime,
// asserting the overload paths shed load without bias (Horvitz–Thompson
// reweighting), terminate instead of deadlocking (watchdog + ring poison),
// and account for every anomaly (late_tuples, packets_malformed).

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/sampling_operator.h"
#include "engine/load_shed.h"
#include "engine/runtime.h"
#include "net/trace_generator.h"
#include "query/query.h"
#include "stream/fault_injection.h"
#include "stream/ring_buffer.h"
#include "tuple/tuple_batch.h"

namespace streamop {
namespace {

Catalog TestCatalog() { return Catalog::Default(); }

constexpr char kPassThroughLow[] =
    "SELECT time, ts_ns, srcIP, destIP, srcPort, destPort, proto, len "
    "FROM PKT";

constexpr char kWindowAggHigh[] =
    "SELECT tb, sum(len), count(*) FROM PKT GROUP BY time/20 as tb";

// ---------- AIMD controller ----------

TEST(LoadShedControllerTest, HoldsAtFullAdmissionWhileRingIsCool) {
  LoadShedConfig cfg;
  cfg.enabled = true;
  LoadShedController c(cfg);
  for (int i = 0; i < 100; ++i) c.Tick(10, 1024, 0);
  EXPECT_DOUBLE_EQ(c.probability(), 1.0);
  EXPECT_DOUBLE_EQ(c.min_probability_seen(), 1.0);
}

TEST(LoadShedControllerTest, MultiplicativeDecreaseAboveHighWatermark) {
  LoadShedConfig cfg;
  cfg.enabled = true;
  cfg.high_watermark = 0.75;
  cfg.decrease_factor = 0.5;
  cfg.min_probability = 0.1;
  LoadShedController c(cfg);
  c.Tick(800, 1024, 0);  // 78% occupancy
  EXPECT_DOUBLE_EQ(c.probability(), 0.5);
  c.Tick(800, 1024, 0);
  EXPECT_DOUBLE_EQ(c.probability(), 0.25);
  // Push failures alone trigger a decrease even at low occupancy.
  c.Tick(10, 1024, 5);
  EXPECT_DOUBLE_EQ(c.probability(), 0.125);
  // The floor bounds the worst-case weight.
  for (int i = 0; i < 20; ++i) c.Tick(1000, 1024, 0);
  EXPECT_DOUBLE_EQ(c.probability(), 0.1);
  EXPECT_DOUBLE_EQ(c.min_probability_seen(), 0.1);
}

TEST(LoadShedControllerTest, AdditiveRecoveryBelowLowWatermarkWithHysteresis) {
  LoadShedConfig cfg;
  cfg.enabled = true;
  cfg.high_watermark = 0.75;
  cfg.low_watermark = 0.40;
  cfg.decrease_factor = 0.5;
  cfg.increase_step = 0.05;
  LoadShedController c(cfg);
  c.Tick(900, 1024, 0);
  c.Tick(900, 1024, 0);
  EXPECT_DOUBLE_EQ(c.probability(), 0.25);
  // In the hysteresis band: hold.
  c.Tick(512, 1024, 0);  // 50%
  EXPECT_DOUBLE_EQ(c.probability(), 0.25);
  // Below the low watermark: additive recovery.
  c.Tick(100, 1024, 0);
  EXPECT_DOUBLE_EQ(c.probability(), 0.30);
  for (int i = 0; i < 20; ++i) c.Tick(100, 1024, 0);
  EXPECT_DOUBLE_EQ(c.probability(), 1.0);
  // History recorded every tick.
  EXPECT_EQ(c.history().size(), c.ticks());
}

TEST(LoadShedControllerTest, AdmitMatchesProbabilityStatistically) {
  LoadShedConfig cfg;
  cfg.enabled = true;
  cfg.seed = 99;
  cfg.decrease_factor = 0.25;
  cfg.min_probability = 0.25;
  LoadShedController c(cfg);
  // At p == 1.0 everything is admitted, no RNG involved.
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(c.Admit());
  c.Tick(1024, 1024, 0);  // drop to 0.25
  ASSERT_DOUBLE_EQ(c.probability(), 0.25);
  uint64_t before = c.admitted();
  const int kDraws = 40000;
  for (int i = 0; i < kDraws; ++i) c.Admit();
  double rate = static_cast<double>(c.admitted() - before) / kDraws;
  EXPECT_NEAR(rate, 0.25, 0.02);  // ~9 sigma
  EXPECT_EQ(c.offered(), 1000u + kDraws);
  EXPECT_EQ(c.shed(), c.offered() - c.admitted());
}

// ---------- ring close / poison ----------

TEST(RingBufferCloseTest, CloseRejectsPushesButDrainsBufferedItems) {
  RingBuffer<int> ring(8);
  EXPECT_TRUE(ring.TryPush(1));
  EXPECT_TRUE(ring.TryPush(2));
  ring.Close();
  EXPECT_TRUE(ring.closed());
  EXPECT_FALSE(ring.TryPush(3));  // EOS: rejected, not an overload failure
  int v = 0;
  EXPECT_TRUE(ring.TryPop(&v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(ring.TryPop(&v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(ring.TryPop(&v));
  EXPECT_TRUE(ring.closed() && ring.empty());  // the consumer's EOS test
}

TEST(RingBufferCloseTest, PoisonAbandonsBufferedItems) {
  RingBuffer<int> ring(8);
  EXPECT_TRUE(ring.TryPush(1));
  ring.Poison();
  EXPECT_TRUE(ring.poisoned());
  EXPECT_TRUE(ring.closed());  // poison implies close
  int v = 0;
  EXPECT_FALSE(ring.TryPop(&v));   // buffered item abandoned
  EXPECT_FALSE(ring.TryPush(2));
}

// ---------- fault injection ----------

TEST(FaultInjectionTest, DeterministicGivenSeed) {
  Trace trace = TraceGenerator::MakeResearchFeed(5.0, 70);
  FaultInjectionConfig cfg;
  cfg.seed = 7;
  cfg.p_duplicate = 0.05;
  cfg.p_reorder = 0.05;
  cfg.p_truncate = 0.01;
  cfg.p_corrupt = 0.01;
  cfg.p_ts_backwards = 0.02;
  Trace a = InjectFaults(trace, cfg);
  Trace b = InjectFaults(trace, cfg);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.at(i).ts_ns, b.at(i).ts_ns) << i;
    EXPECT_EQ(a.at(i).src_ip, b.at(i).src_ip) << i;
    EXPECT_EQ(a.at(i).len, b.at(i).len) << i;
  }
  cfg.seed = 8;
  Trace c = InjectFaults(trace, cfg);
  bool differs = c.size() != a.size();
  for (size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a.at(i).ts_ns != c.at(i).ts_ns || a.at(i).len != c.at(i).len;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultInjectionTest, InjectsEachConfiguredFaultKind) {
  Trace trace = TraceGenerator::MakeResearchFeed(5.0, 71);
  FaultInjectionConfig cfg;
  cfg.seed = 3;
  cfg.p_duplicate = 0.10;
  cfg.p_truncate = 0.05;
  cfg.p_ts_backwards = 0.05;
  cfg.ts_backwards_max_sec = 1.0;
  Trace faulty = InjectFaults(trace, cfg);
  EXPECT_GT(faulty.size(), trace.size());  // duplicates grow the trace
  size_t truncated = 0, regressions = 0;
  for (size_t i = 0; i < faulty.size(); ++i) {
    if (faulty.at(i).len < 20) ++truncated;
    if (i > 0 && faulty.at(i).ts_ns < faulty.at(i - 1).ts_ns) ++regressions;
  }
  EXPECT_GT(truncated, 0u);
  EXPECT_GT(regressions, 0u);
}

TEST(FaultInjectionTest, BurstCompressionSqueezesArrivals) {
  Trace trace = TraceGenerator::MakeResearchFeed(10.0, 72);
  FaultInjectionConfig cfg;
  cfg.seed = 5;
  cfg.p_burst_start = 0.001;
  cfg.burst_packets = 1000;
  cfg.burst_compression = 100.0;
  Trace faulty = InjectFaults(trace, cfg);
  ASSERT_EQ(faulty.size(), trace.size());
  // Compressed gaps: the faulty trace must contain many more packets that
  // arrive < 10 us after their predecessor than the original.
  auto tight_gaps = [](const Trace& t) {
    size_t n = 0;
    for (size_t i = 1; i < t.size(); ++i) {
      if (t.at(i).ts_ns >= t.at(i - 1).ts_ns &&
          t.at(i).ts_ns - t.at(i - 1).ts_ns < 10000) {
        ++n;
      }
    }
    return n;
  };
  EXPECT_GT(tight_gaps(faulty), tight_gaps(trace) + 100);
}

// ---------- end-to-end chaos ----------

// Malformed packets, duplicates, reordering and timestamp regressions all at
// once: both run modes must survive, agree with each other, and account for
// anomalies in the report.
TEST(ChaosTest, MalformedAndLatePacketsSurviveBothRunModes) {
  Trace clean = TraceGenerator::MakeResearchFeed(31.0, 73);
  FaultInjectionConfig fcfg;
  fcfg.seed = 11;
  fcfg.p_duplicate = 0.02;
  fcfg.p_reorder = 0.02;
  fcfg.p_truncate = 0.01;
  fcfg.p_ts_backwards = 0.005;
  fcfg.ts_backwards_max_sec = 25.0;  // far enough to cross a 20 s window
  Trace faulty = InjectFaults(clean, fcfg);

  auto make_rt = [&]() {
    auto low = CompileQuery(kPassThroughLow, TestCatalog());
    auto high = CompileQuery(kWindowAggHigh, TestCatalog());
    EXPECT_TRUE(low.ok() && high.ok());
    return std::make_unique<TwoLevelRuntime>(*low,
                                             std::vector<CompiledQuery>{*high});
  };

  auto seq = make_rt();
  auto seq_report = seq->Run(faulty);
  ASSERT_TRUE(seq_report.ok()) << seq_report.status().ToString();
  EXPECT_GT(seq_report->packets_malformed, 0u);
  EXPECT_GT(seq_report->late_tuples, 0u);

  auto par = make_rt();
  auto par_report = par->RunThreaded(faulty);
  ASSERT_TRUE(par_report.ok()) << par_report.status().ToString();
  EXPECT_EQ(par_report->packets_malformed, seq_report->packets_malformed);
  EXPECT_EQ(par_report->late_tuples, seq_report->late_tuples);

  // Unshedded runs stay deterministic even on a faulty feed.
  std::vector<Tuple> seq_out = seq->high_node(0).DrainOutput();
  std::vector<Tuple> par_out = par->high_node(0).DrainOutput();
  ASSERT_EQ(seq_out.size(), par_out.size());
  for (size_t i = 0; i < seq_out.size(); ++i) {
    EXPECT_EQ(seq_out[i], par_out[i]) << "row " << i;
  }
}

// A runtime without a low node rejects the records a pass-through low node
// sees rejected: a record truncated below the 20-byte IP header never
// reaches the query, so count(*) is the record count minus the truncated
// ones, and both shapes give one answer.
TEST(ChaosTest, SingleNodeRunRejectsTruncatedRecords) {
  FaultInjectionConfig fcfg;
  fcfg.seed = 9;
  fcfg.p_truncate = 0.01;
  const Trace faulty =
      InjectFaults(TraceGenerator::MakeResearchFeed(41.0, 7), fcfg);
  uint64_t truncated = 0;
  for (const PacketRecord& p : faulty.packets()) truncated += p.len < 20;
  ASSERT_GT(truncated, 0u);

  auto high = CompileQuery(kWindowAggHigh, TestCatalog());
  ASSERT_TRUE(high.ok()) << high.status().ToString();
  TwoLevelRuntime single({*high});
  auto run = single.Run(faulty);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const std::vector<Tuple> output = single.high_node(0).DrainOutput();
  uint64_t counted = 0;
  for (const Tuple& row : output) counted += row[2].AsUInt();
  EXPECT_EQ(counted, faulty.size() - truncated);
  EXPECT_EQ(run->packets_malformed, truncated);

  auto low = CompileQuery(kPassThroughLow, TestCatalog());
  ASSERT_TRUE(low.ok()) << low.status().ToString();
  TwoLevelRuntime rt(*low, {*high});
  auto report = rt.Run(faulty);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->packets_malformed, truncated);
  EXPECT_EQ(rt.high_node(0).DrainOutput(), output);
}

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

// Three low queries over a trace with truncated and duplicated records,
// each through Run and RunThreaded: the pass-through (an identity), a
// filtering projection, and the pass-through with srcIP and destIP
// swapped. Only the first is an identity, which hands its input batch on
// as its output. The digests and the malformed count were recorded before
// any low node handed its batch on.
TEST(ChaosTest, LowQueriesOverTruncatedRecordsKeepTheirDigests) {
  FaultInjectionConfig fcfg;
  fcfg.seed = 21;
  fcfg.p_truncate = 0.01;
  fcfg.p_duplicate = 0.01;
  const Trace faulty =
      InjectFaults(TraceGenerator::MakeResearchFeed(41.0, 23), fcfg);
  uint64_t truncated = 0;
  for (const PacketRecord& p : faulty.packets()) truncated += p.len < 20;
  EXPECT_EQ(truncated, 3799u);

  Catalog catalog = TestCatalog();
  ASSERT_TRUE(catalog
                  .RegisterStream(std::make_shared<Schema>(
                      "PKT_FILT",
                      std::vector<Field>{
                          {"time", FieldType::kUInt, Ordering::kIncreasing},
                          {"srcIP", FieldType::kUInt, Ordering::kNone},
                          {"destIP", FieldType::kUInt, Ordering::kNone},
                          {"len", FieldType::kUInt, Ordering::kNone}}))
                  .ok());
  struct Case {
    const char* low;
    const char* high_stream;
    const char* digest;
    bool identity;
  };
  const Case cases[] = {
      {kPassThroughLow, "PKT", "6a87d2dea9ff32e9", true},
      {"SELECT time, srcIP, destIP, len FROM PKT WHERE len > 100",
       "PKT_FILT", "04b2fced29e33a67", false},
      {"SELECT time, ts_ns, destIP, srcIP, srcPort, destPort, proto, len "
       "FROM PKT",
       "PKT", "a84172a895f47371", false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.low);
    auto low = CompileQuery(c.low, catalog);
    auto high = CompileQuery(std::string("SELECT tb, srcIP, sum(len), "
                                         "count(*) FROM ") +
                                 c.high_stream +
                                 " GROUP BY time/20 as tb, srcIP",
                             catalog);
    ASSERT_TRUE(low.ok()) << low.status().ToString();
    ASSERT_TRUE(high.ok()) << high.status().ToString();
    for (const bool threaded : {false, true}) {
      SCOPED_TRACE(threaded ? "RunThreaded" : "Run");
      TwoLevelRuntime rt(*low, {*high});
      EXPECT_EQ(rt.low_node().is_identity(), c.identity);
      auto report = threaded ? rt.RunThreaded(faulty) : rt.Run(faulty);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_EQ(report->packets_malformed, truncated);
      EXPECT_EQ(report->low.tuples_in, faulty.size() - truncated);
      EXPECT_EQ(report->high[0].tuples_in, report->low.tuples_out);
      EXPECT_EQ(RowsDigest(rt.high_node(0).DrainOutput()), c.digest);
    }
  }
}

TEST(ChaosTest, LateTuplesClampIntoCurrentWindowWithExactCounts) {
  // Hand-built stream: window 0 gets 2 packets, window 1 gets 2 packets
  // plus one late straggler (timestamp from window 0), window 2 gets 1.
  auto pkt = [](uint64_t sec) {
    PacketRecord p{};
    p.ts_ns = sec * 1'000'000'000ULL;
    p.len = 100;
    return p;
  };
  Trace trace(std::vector<PacketRecord>{pkt(1), pkt(2), pkt(21), pkt(22),
                                        pkt(5), pkt(41)});
  auto cq = CompileQuery("SELECT tb, count(*) FROM PKT GROUP BY time/20 as tb",
                         TestCatalog());
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  TwoLevelRuntime rt({*cq});
  auto run = rt.Run(trace);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  const std::vector<Tuple> output = rt.high_node(0).DrainOutput();
  const std::vector<WindowStats>& windows = rt.high_node(0).window_stats();
  ASSERT_EQ(output.size(), 3u);
  EXPECT_EQ(output[0][1].AsUInt(), 2u);  // window 0
  EXPECT_EQ(output[1][1].AsUInt(), 3u);  // window 1 absorbs the late one
  EXPECT_EQ(output[2][1].AsUInt(), 1u);  // window 2
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0].late_tuples, 0u);
  EXPECT_EQ(windows[1].late_tuples, 1u);
  EXPECT_EQ(windows[2].late_tuples, 0u);
  EXPECT_EQ(run->late_tuples, 1u);
}

// The acceptance scenario: a feed that overflows the ring. With shedding
// off and drop_on_overload on, packets are silently dropped and the sums
// biased low. With shedding on, occupancy is controlled via the Bernoulli
// gate and the reweighted estimates land within 5% of ground truth.
TEST(ChaosTest, SheddingRestoresAccuracyUnderOverload) {
  Trace trace = TraceGenerator::MakeResearchFeed(41.0, 74);
  auto truth_bytes = trace.BytesPerWindow(20);
  auto truth_counts = trace.PacketsPerWindow(20);

  // A deliberately slow consumer: ~1 ms stall per 256-packet batch caps
  // drain rate at ~256k pkt/s nominal, while the producer replays the trace
  // at memory speed into a 1k-slot ring — guaranteed sustained overload.
  auto make_options = [&]() {
    RuntimeOptions opt;
    opt.ring_capacity = 1024;
    opt.batch_size = 256;
    opt.stall_timeout_ms = 0;  // watchdog off: a loaded CI box + sanitizer
                               // slowdown must not abort this slow consumer
    ConsumerStallSpec stall;
    stall.stall_at_batch = 0;
    stall.per_batch_ms = 1;
    opt.consumer_stall_hook = MakeConsumerStallHook(stall);
    return opt;
  };

  // Baseline: overload with shedding off and Gigascope-style dropping.
  {
    auto low = CompileQuery(kPassThroughLow, TestCatalog());
    auto high = CompileQuery(kWindowAggHigh, TestCatalog());
    ASSERT_TRUE(low.ok() && high.ok());
    RuntimeOptions opt = make_options();
    opt.drop_on_overload = true;
    TwoLevelRuntime rt(*low, {*high}, opt);
    auto report = rt.RunThreaded(trace);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_GT(report->packets_dropped, trace.size() / 10)
        << "overload too mild to demonstrate drop bias";
    uint64_t est_total = 0;
    for (const Tuple& t : rt.high_node(0).DrainOutput()) {
      est_total += t[1].AsUInt();
    }
    uint64_t truth_total = 0;
    for (uint64_t b : truth_bytes) truth_total += b;
    // Unweighted sums over a dropped feed are biased low.
    EXPECT_LT(static_cast<double>(est_total), 0.95 * truth_total);
  }

  // Shedding on: same overload, estimates reweighted by 1/p.
  {
    auto low = CompileQuery(kPassThroughLow, TestCatalog());
    auto high = CompileQuery(kWindowAggHigh, TestCatalog());
    ASSERT_TRUE(low.ok() && high.ok());
    RuntimeOptions opt = make_options();
    opt.shed.enabled = true;
    opt.shed.seed = 13;
    opt.shed.min_probability = 0.1;
    opt.shed.decrease_factor = 0.7;
    TwoLevelRuntime rt(*low, {*high}, opt);
    auto report = rt.RunThreaded(trace);
    ASSERT_TRUE(report.ok()) << report.status().ToString();

    // Shedding actually engaged and is reported.
    EXPECT_TRUE(report->shedding_enabled);
    EXPECT_GT(report->tuples_shed, 0u);
    EXPECT_LT(report->shed_p_min, 1.0);
    EXPECT_GE(report->shed_p_min, opt.shed.min_probability - 1e-12);
    EXPECT_GT(report->shed_fraction, 0.0);
    EXPECT_EQ(report->packets_dropped, 0u);  // no silent drops
    EXPECT_EQ(report->tuples_offered, trace.size());

    std::map<uint64_t, double> est_bytes, est_counts;
    for (const Tuple& t : rt.high_node(0).DrainOutput()) {
      est_bytes[t[0].AsUInt()] += t[1].AsDouble();
      est_counts[t[0].AsUInt()] += t[2].AsDouble();
    }
    // Full windows only (the tail window is partial).
    for (size_t w = 0; w + 1 < truth_bytes.size(); ++w) {
      double tb = static_cast<double>(truth_bytes[w]);
      double tc = static_cast<double>(truth_counts[w]);
      EXPECT_NEAR(est_bytes[w], tb, 0.05 * tb) << "sum(len), window " << w;
      EXPECT_NEAR(est_counts[w], tc, 0.05 * tc) << "count(*), window " << w;
    }
  }
}

// A consumer that hangs forever mid-run: the watchdog must terminate the
// run with an error Status within its timeout — never a hang or deadlock —
// and the degradation summary must survive in last_report().
TEST(ChaosTest, ConsumerHangTriggersWatchdogWithinTimeout) {
  Trace trace = TraceGenerator::MakeResearchFeed(31.0, 75);
  auto low = CompileQuery(kPassThroughLow, TestCatalog());
  auto high = CompileQuery(kWindowAggHigh, TestCatalog());
  ASSERT_TRUE(low.ok() && high.ok());
  RuntimeOptions opt;
  opt.ring_capacity = 512;
  opt.batch_size = 128;
  opt.stall_timeout_ms = 200;
  ConsumerStallSpec stall;
  stall.stall_at_batch = 10;
  stall.stall_ms = UINT64_MAX;  // hang until aborted
  opt.consumer_stall_hook = MakeConsumerStallHook(stall);
  TwoLevelRuntime rt(*low, {*high}, opt);

  auto t0 = std::chrono::steady_clock::now();
  auto report = rt.RunThreaded(trace);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kResourceExhausted)
      << report.status().ToString();
  // Terminates promptly: timeout + watchdog poll + thread-join slack.
  EXPECT_LT(elapsed, 5000);
  EXPECT_TRUE(rt.last_report().watchdog_fired);
  EXPECT_GT(rt.last_report().packets, 0u);
}

TEST(ChaosTest, ProducerBackoffSurfacesInReport) {
  Trace trace = TraceGenerator::MakeResearchFeed(11.0, 76);
  auto low = CompileQuery(kPassThroughLow, TestCatalog());
  auto high = CompileQuery(kWindowAggHigh, TestCatalog());
  ASSERT_TRUE(low.ok() && high.ok());
  RuntimeOptions opt;
  opt.ring_capacity = 256;
  opt.batch_size = 64;
  opt.stall_timeout_ms = 0;  // watchdog off (see above)
  // One long stall rather than a per-batch drip: the producer fails pushes
  // continuously for the full 2 s, so it must climb past the yield rungs
  // of the ladder into the sleep rungs even if the scheduler (a loaded CI
  // box, sanitizer slowdown) runs it only sporadically.
  ConsumerStallSpec stall;
  stall.stall_at_batch = 1;
  stall.stall_ms = 2000;
  opt.consumer_stall_hook = MakeConsumerStallHook(stall);
  TwoLevelRuntime rt(*low, {*high}, opt);
  auto report = rt.RunThreaded(trace);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // The producer outran the consumer: it must have slept, not busy-spun.
  EXPECT_GT(report->producer_backoff_sleeps, 0u);
  EXPECT_GT(report->producer_backoff_seconds, 0.0);
  // And no data was lost: every packet reached the low node.
  EXPECT_EQ(report->low.tuples_in, trace.size());
}

// Weighted aggregation invariants, independent of threading: weight w makes
// count/sum scale exactly by w for a deterministic stream.
TEST(WeightedAggregationTest, WeightScalesSumAndCountExactly) {
  auto cq = CompileQuery(kWindowAggHigh, TestCatalog());
  ASSERT_TRUE(cq.ok());
  SamplingOperator op(cq->sampling);
  auto pkt = [](uint64_t sec, uint16_t len) {
    PacketRecord p{};
    p.ts_ns = sec * 1'000'000'000ULL;
    p.len = len;
    return PacketToTuple(p);
  };
  // Every tuple admitted with p = 0.25 -> weight 4.
  ASSERT_TRUE(op.Process(pkt(1, 100), 4.0).ok());
  ASSERT_TRUE(op.Process(pkt(2, 50), 4.0).ok());
  ASSERT_TRUE(op.FinishStream().ok());
  std::vector<Tuple> out = op.DrainOutput();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0][1].AsDouble(), 600.0);  // (100+50) * 4
  EXPECT_DOUBLE_EQ(out[0][2].AsDouble(), 8.0);    // 2 * 4
}

TEST(WeightedAggregationTest, UnitWeightKeepsIntegerResults) {
  auto cq = CompileQuery(kWindowAggHigh, TestCatalog());
  ASSERT_TRUE(cq.ok());
  SamplingOperator op(cq->sampling);
  PacketRecord p{};
  p.ts_ns = 1'000'000'000ULL;
  p.len = 100;
  ASSERT_TRUE(op.Process(PacketToTuple(p), 1.0).ok());
  ASSERT_TRUE(op.FinishStream().ok());
  std::vector<Tuple> out = op.DrainOutput();
  ASSERT_EQ(out.size(), 1u);
  // Exactly the unweighted integer path: results stay UInt.
  EXPECT_EQ(out[0][1].type(), FieldType::kUInt);
  EXPECT_EQ(out[0][1].AsUInt(), 100u);
  EXPECT_EQ(out[0][2].type(), FieldType::kUInt);
  EXPECT_EQ(out[0][2].AsUInt(), 1u);
}

TEST(WeightedAggregationTest, SumSuperaggIsReweighted) {
  auto cq = CompileQuery(R"(
      SELECT tb, srcIP, count(*), sum$(len), count$(*)
      FROM PKT
      GROUP BY time/60 as tb, srcIP
  )",
                         TestCatalog());
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  SamplingOperator op(cq->sampling);
  auto pkt = [](uint32_t src, uint16_t len) {
    PacketRecord p{};
    p.ts_ns = 1'000'000'000ULL;
    p.src_ip = src;
    p.len = len;
    return PacketToTuple(p);
  };
  ASSERT_TRUE(op.Process(pkt(1, 100), 2.0).ok());
  ASSERT_TRUE(op.Process(pkt(2, 50), 2.0).ok());
  ASSERT_TRUE(op.FinishStream().ok());
  std::vector<Tuple> out = op.DrainOutput();
  ASSERT_EQ(out.size(), 2u);
  // sum$(len) = (100 + 50) * 2; count$(*) = 2 * 2 — same for both rows.
  for (const Tuple& t : out) {
    EXPECT_DOUBLE_EQ(t[3].AsDouble(), 300.0);
    EXPECT_DOUBLE_EQ(t[4].AsDouble(), 4.0);
  }
}

}  // namespace
}  // namespace streamop
