// Differential testing of the batched hot path (DESIGN.md §9): for the
// same query and the same input stream, ProcessBatch/PushBatch must be
// equivalent tuple-for-tuple to Process/Push — identical output rows,
// identical per-window statistics, identical group tables — across window
// boundaries mid-batch, late tuples, stateful (ssample) admission, load
// shedding weights, cleaning phases and evaluation errors. The bytecode
// interpreter routes operator application through the same evaluator
// kernels as the tree walk, so equality here is exact, not approximate.
//
// Every row-vs-batch case also pins its result to a frozen digest
// (kDigest* below). The digests were recorded from the row side
// (Process/Push) of each case at commit 7e84c24, when Process still ran the
// tree-walk interpreter, so they hold today's single bytecode path to the
// old tree-walk results. The three LateLanes* cases over
// StreamWithLateLanes() were recorded at 18bf2c8, when a window close still
// built one heap Tuple per output row.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/sampling_operator.h"
#include "engine/query_node.h"
#include "net/trace_generator.h"
#include "obs/exemplar.h"
#include "obs/metrics.h"
#include "query/query.h"
#include "query/selection_operator.h"
#include "tuple/tuple_batch.h"

namespace streamop {
namespace {

Tuple PacketTuple(uint64_t time, uint64_t src, uint64_t dst, uint64_t len) {
  return Tuple({Value::UInt(time), Value::UInt(time * 1000),
                Value::UInt(src), Value::UInt(dst), Value::UInt(1234),
                Value::UInt(80), Value::UInt(6), Value::UInt(len)});
}

// Canonical serialization of a run, in determinism_test's format: every
// output row in emission order, then every window's statistics, then the
// late-tuple and live-group counts.
std::string Canonicalize(const std::vector<Tuple>& rows,
                         const std::vector<WindowStats>& windows,
                         uint64_t late, uint64_t groups) {
  std::string out;
  for (const Tuple& t : rows) {
    out += t.ToString();
    out += '\n';
  }
  for (const WindowStats& w : windows) {
    out += "window";
    for (const Value& v : w.window_id) {
      out += ' ';
      out += v.ToString();
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  " in=%llu adm=%llu created=%llu removed=%llu peak=%llu "
                  "cleanings=%llu out=%llu\n",
                  static_cast<unsigned long long>(w.tuples_in),
                  static_cast<unsigned long long>(w.tuples_admitted),
                  static_cast<unsigned long long>(w.groups_created),
                  static_cast<unsigned long long>(w.groups_removed),
                  static_cast<unsigned long long>(w.peak_groups),
                  static_cast<unsigned long long>(w.cleaning_phases),
                  static_cast<unsigned long long>(w.groups_output));
    out += buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "late=%llu groups=%llu\n",
                static_cast<unsigned long long>(late),
                static_cast<unsigned long long>(groups));
  out += buf;
  return out;
}

// FNV-1a 64 of a canonical serialization, as hex (readable on mismatch).
std::string Digest(const std::string& canonical) {
  uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : canonical) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// Frozen digests, one per case (see the header comment).
constexpr const char* kDigestGroupedAggregation = "f227924e45810b6d";
constexpr const char* kDigestOddBatchSizes = "4243b36538d84879";
constexpr const char* kDigestStringGroupKey = "800f08b65264ea4b";
constexpr const char* kDigestSubsetSum = "a3ea35ff596bf309";
constexpr const char* kDigestHorvitzThompson = "c85c36e473e3e9e9";
constexpr const char* kDigestFuzzSeeds[] = {
    "fb53daaafa42a7b7", "96451e69fe74307c", "cb673a80e91f2364",
    "47d6174e702ee2c2"};
constexpr const char* kDigestPassThroughNumeric = "90d743a95e53510f";
constexpr const char* kDigestPassThroughDeselected = "613d11c5d32b64e5";
constexpr const char* kDigestPassThroughString = "df85daadf6e84f97";
constexpr const char* kDigestChainedSelection = "1f872262d3b4325a";
constexpr const char* kDigestGroupKeyError = "4bd95b78f7ae1ff2";
constexpr const char* kDigestWhereRejectsFailingLane = "c6371d72f4e82ce6";
constexpr const char* kDigestSelectionWhereError = "430d0e7c9fb00b2c";
constexpr const char* kDigestDeepNesting = "143752db1bccad95";
constexpr const char* kDigestLateLanesClampedKey = "e6ba2969ef3fab60";
constexpr const char* kDigestLateLanesGroupedAggregation = "93130bec2c7b470c";
constexpr const char* kDigestLateLanesSubsetSum = "289888ce881fc9a1";
constexpr const char* kDigestLateLanesHorvitzThompson = "37fd82aa319d533a";

// Both sides of a case must reproduce the frozen digest.
void ExpectDigest(const char* frozen, const std::string& row_canonical,
                  const std::string& batch_canonical) {
  EXPECT_EQ(Digest(row_canonical), frozen) << "row side";
  EXPECT_EQ(Digest(batch_canonical), frozen) << "batch side";
}

// A stream that crosses several window boundaries and carries
// non-monotonic tuples, over a small key grid so groups repeat.
std::vector<Tuple> WindowedStream() {
  std::vector<Tuple> tuples;
  uint64_t time = 100;
  for (int w = 0; w < 5; ++w) {
    for (int i = 0; i < 300; ++i) {
      uint64_t src = 0x0a000000ULL + (i % 7);
      uint64_t dst = 0xc0a80000ULL + (i % 3);
      uint64_t len = 40 + (i * 97) % 1460;
      tuples.push_back(PacketTuple(time, src, dst, len));
      if (i % 10 == 9) ++time;  // advance inside the window
    }
    time += 20;  // force a window boundary (time/20 buckets)
    // An older straggler before the next window's first tuple. It still
    // falls in the open window, so it is not late; StreamWithLateLanes()
    // below carries late lanes.
    tuples.push_back(PacketTuple(time - 25, 0x0a000001ULL, 0xc0a80001ULL, 99));
  }
  return tuples;
}

void ExpectSameWindowStats(const std::vector<WindowStats>& row,
                           const std::vector<WindowStats>& batch) {
  ASSERT_EQ(row.size(), batch.size());
  for (size_t i = 0; i < row.size(); ++i) {
    SCOPED_TRACE("window " + std::to_string(i));
    EXPECT_EQ(row[i].window_id, batch[i].window_id);
    EXPECT_EQ(row[i].tuples_in, batch[i].tuples_in);
    EXPECT_EQ(row[i].tuples_admitted, batch[i].tuples_admitted);
    EXPECT_EQ(row[i].groups_created, batch[i].groups_created);
    EXPECT_EQ(row[i].groups_removed, batch[i].groups_removed);
    EXPECT_EQ(row[i].peak_groups, batch[i].peak_groups);
    EXPECT_EQ(row[i].cleaning_phases, batch[i].cleaning_phases);
    EXPECT_EQ(row[i].groups_output, batch[i].groups_output);
    EXPECT_EQ(row[i].tuples_output, batch[i].tuples_output);
    EXPECT_EQ(row[i].late_tuples, batch[i].late_tuples);
  }
}

// Drives the same compiled query twice over the same tuples — once
// tuple-at-a-time, once in batches of `batch_size` — and asserts every
// observable is identical.
// `batch_rows`, when given, receives the batch side's output rows.
void ExpectBatchEquivalent(const std::string& sql,
                           const std::vector<Tuple>& tuples,
                           size_t batch_size, const char* digest,
                           double weight = 1.0,
                           std::vector<Tuple>* batch_rows = nullptr) {
  Catalog catalog = Catalog::Default();
  Result<CompiledQuery> row_cq = CompileQuery(sql, catalog, {.seed = 3});
  Result<CompiledQuery> batch_cq = CompileQuery(sql, catalog, {.seed = 3});
  ASSERT_TRUE(row_cq.ok()) << row_cq.status().ToString();
  ASSERT_EQ(row_cq->kind, CompiledQueryKind::kSampling);

  SamplingOperator row_op(row_cq->sampling);
  SamplingOperator batch_op(batch_cq->sampling);

  for (const Tuple& t : tuples) {
    ASSERT_TRUE(row_op.Process(t, weight).ok());
  }
  const size_t width = tuples.empty() ? 0 : tuples.front().size();
  TupleBatch batch(width, batch_size);
  for (size_t i = 0; i < tuples.size();) {
    batch.Clear();
    while (i < tuples.size() && !batch.full()) batch.AppendTuple(tuples[i++]);
    ASSERT_TRUE(batch_op.ProcessBatch(batch, weight).ok());
  }

  ASSERT_TRUE(row_op.FinishStream().ok());
  ASSERT_TRUE(batch_op.FinishStream().ok());

  const std::vector<Tuple> row_out = row_op.DrainOutput();
  const std::vector<Tuple> batch_out = batch_op.DrainOutput();
  EXPECT_EQ(row_out, batch_out);
  EXPECT_EQ(row_op.num_groups(), batch_op.num_groups());
  EXPECT_EQ(row_op.num_supergroups(), batch_op.num_supergroups());
  EXPECT_EQ(row_op.late_tuples(), batch_op.late_tuples());
  ExpectSameWindowStats(row_op.window_stats(), batch_op.window_stats());
  ExpectDigest(digest,
               Canonicalize(row_out, row_op.window_stats(),
                            row_op.late_tuples(), row_op.num_groups()),
               Canonicalize(batch_out, batch_op.window_stats(),
                            batch_op.late_tuples(), batch_op.num_groups()));
  if (batch_rows != nullptr) *batch_rows = batch_out;
}

TEST(BatchEquivalenceTest, GroupedAggregationAcrossWindowsAndLateTuples) {
  ExpectBatchEquivalent(
      "SELECT tb, srcIP, destIP, sum(len), count(*), max(len) FROM PKTS "
      "GROUP BY time/20 as tb, srcIP, destIP",
      WindowedStream(), 256, kDigestGroupedAggregation);
}

TEST(BatchEquivalenceTest, OddBatchSizesHitBoundariesMidBatch) {
  // 37 never divides the window length, so boundaries and late tuples land
  // at arbitrary lane positions inside batches.
  ExpectBatchEquivalent(
      "SELECT tb, srcIP, sum(len), count(*) FROM PKTS "
      "GROUP BY time/20 as tb, srcIP",
      WindowedStream(), 37, kDigestOddBatchSizes);
}

TEST(BatchEquivalenceTest, StringGroupKeyAndStringMinMax) {
  // IPSTR() is the dialect's only source of strings: a string group key and
  // string min/max carry Value's out-of-line payload through key building,
  // accumulator updates and output rows on both paths.
  ExpectBatchEquivalent(
      "SELECT tb, sip, count(*), min(IPSTR(destIP)), max(IPSTR(destIP)) "
      "FROM PKTS GROUP BY time/20 as tb, IPSTR(srcIP) as sip",
      WindowedStream(), 37, kDigestStringGroupKey);
}

TEST(BatchEquivalenceTest, SubsetSumSamplingWithCleaningPhases) {
  // The paper's stateful shape: ssample admission (per-supergroup RNG
  // state → compiled row mode in lane order), superaggregate maintenance,
  // cleaning phases actually firing (small target). The RNG consumption
  // order is part of the contract — any divergence shows up as different
  // admitted sets.
  ExpectBatchEquivalent(R"(
      SELECT tb, srcIP, destIP, UMAX(sum(len), ssthreshold())
      FROM PKTS
      WHERE ssample(len, 100, 2, 100, 10.0) = TRUE
      GROUP BY time/20 as tb, srcIP, destIP
      HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
      CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
      CLEANING BY ssclean_with(sum(len)) = TRUE
  )",
                        WindowedStream(), 256, kDigestSubsetSum);
}

TEST(BatchEquivalenceTest, HorvitzThompsonWeightsFlowThroughBatches) {
  ExpectBatchEquivalent(
      "SELECT tb, srcIP, sum(len), count(*), sum$(len) FROM PKTS "
      "GROUP BY time/20 as tb, srcIP SUPERGROUP BY tb",
      WindowedStream(), 256, kDigestHorvitzThompson, /*weight=*/2.5);
}

// ---------------------------------------------------------------------------
// Query-level differential fuzzing: the valid seed queries from
// query_fuzz_test driven over a generated packet trace through both engine
// entry points — Push (tree-walk-compatible row path) and PushBatch (the
// columnar path with bytecode programs). Outputs must be identical.
// ---------------------------------------------------------------------------

const std::vector<std::string>& FuzzSeedQueries() {
  // The query_fuzz seeds, compilable form: the second seed's CLEANING WHEN
  // uses an aggregate (legal only as a mutation starting point), so the
  // trigger here is the sfun the analyzer accepts in that clause.
  static const std::vector<std::string>* seeds = new std::vector<std::string>{
      "SELECT time, srcIP, destIP, len FROM PKT WHERE len > 100",
      "SELECT tb, srcIP, count(*), sum$(len), count$(*) FROM PKT "
      "GROUP BY time/60 as tb, srcIP "
      "CLEANING WHEN local_count(100) = TRUE CLEANING BY count(*) >= 2",
      "SELECT tb, quantile(len, 0.5), median(len) FROM PKT "
      "GROUP BY time/20 as tb HAVING count(*) > 1",
      "SELECT tb, sum(len) FROM PKT WHERE proto = 6 AND NOT (srcPort = 80 "
      "OR destPort = 80) GROUP BY time/20 as tb SUPERGROUP BY tb",
  };
  return *seeds;
}

// Canonical form of a QueryNode's run (rows drained by the caller).
std::string CanonicalizeNode(QueryNode& node, const std::vector<Tuple>& rows) {
  const uint64_t groups = node.is_sampling()
                              ? node.sampling_operator()->num_groups()
                              : 0;
  return Canonicalize(rows, node.window_stats(), node.late_tuples(), groups);
}

TEST(BatchEquivalenceTest, QueryFuzzSeedsIdenticalThroughBothEnginePaths) {
  const Trace trace = TraceGenerator::MakeDataCenterFeed(2.0, 7);
  Catalog catalog = Catalog::Default();
  for (size_t q = 0; q < FuzzSeedQueries().size(); ++q) {
    const std::string& sql = FuzzSeedQueries()[q];
    SCOPED_TRACE(sql);
    Result<CompiledQuery> row_cq = CompileQuery(sql, catalog, {.seed = 11});
    Result<CompiledQuery> batch_cq = CompileQuery(sql, catalog, {.seed = 11});
    ASSERT_TRUE(row_cq.ok()) << row_cq.status().ToString();

    QueryNode row_node("equiv_row", *row_cq);
    QueryNode batch_node("equiv_batch", *batch_cq);

    for (const PacketRecord& p : trace.packets()) {
      ASSERT_TRUE(row_node.Push(PacketToTuple(p)).ok());
    }
    TupleBatch batch(8, 512);
    size_t i = 0;
    const std::vector<PacketRecord>& pkts = trace.packets();
    while (i < pkts.size()) {
      batch.Clear();
      while (i < pkts.size() && !batch.full()) batch.AppendPacket(pkts[i++]);
      ASSERT_TRUE(batch_node.PushBatch(batch).ok());
    }

    ASSERT_TRUE(row_node.Finish().ok());
    ASSERT_TRUE(batch_node.Finish().ok());

    EXPECT_EQ(row_node.tuples_in(), batch_node.tuples_in());
    EXPECT_EQ(row_node.tuples_out(), batch_node.tuples_out());
    EXPECT_EQ(row_node.late_tuples(), batch_node.late_tuples());
    const std::vector<Tuple> row_out = row_node.DrainOutput();
    const std::vector<Tuple> batch_out = batch_node.DrainOutput();
    EXPECT_EQ(row_out, batch_out);
    ExpectDigest(kDigestFuzzSeeds[q], CanonicalizeNode(row_node, row_out),
                 CanonicalizeNode(batch_node, batch_out));
  }
}

// A selection query through both QueryNode paths. With `deselect_one`,
// the middle lane of every batch is switched off (as a shedding stage
// would), and the row path never sees that tuple.
void ExpectSelectionBatchEquivalent(const std::string& sql,
                                    bool deselect_one, const char* digest) {
  SCOPED_TRACE(sql);
  const Trace trace = TraceGenerator::MakeDataCenterFeed(2.0, 7);
  Catalog catalog = Catalog::Default();
  Result<CompiledQuery> row_cq = CompileQuery(sql, catalog, {.seed = 13});
  Result<CompiledQuery> batch_cq = CompileQuery(sql, catalog, {.seed = 13});
  ASSERT_TRUE(row_cq.ok()) << row_cq.status().ToString();
  ASSERT_EQ(row_cq->kind, CompiledQueryKind::kSelection);

  QueryNode row_node("sel_row", *row_cq);
  QueryNode batch_node("sel_batch", *batch_cq);
  TupleBatch batch(8, 512);
  const std::vector<PacketRecord>& pkts = trace.packets();
  size_t i = 0;
  while (i < pkts.size()) {
    batch.Clear();
    const size_t first = i;
    while (i < pkts.size() && !batch.full()) batch.AppendPacket(pkts[i++]);
    const size_t off = batch.num_rows() / 2;
    if (deselect_one) batch.set_selected(off, false);
    for (size_t lane = 0; lane < batch.num_rows(); ++lane) {
      if (deselect_one && lane == off) continue;
      ASSERT_TRUE(row_node.Push(PacketToTuple(pkts[first + lane])).ok());
    }
    ASSERT_TRUE(batch_node.PushBatch(batch).ok());
  }

  EXPECT_GT(row_node.tuples_out(), 0u);
  EXPECT_EQ(row_node.tuples_in(), batch_node.tuples_in());
  EXPECT_EQ(row_node.tuples_out(), batch_node.tuples_out());
  const std::vector<Tuple> row_out = row_node.DrainOutput();
  const std::vector<Tuple> batch_out = batch_node.DrainOutput();
  EXPECT_EQ(row_out, batch_out);
  ExpectDigest(digest, CanonicalizeNode(row_node, row_out),
               CanonicalizeNode(batch_node, batch_out));
}

// Pass-through projections: with no WHERE, every lane selected and only
// numeric projections, ProcessBatch copies whole columns; a deselected
// lane or a string projection keeps it on the per-lane append.
TEST(BatchEquivalenceTest, PassThroughProjectionAllLanesNumeric) {
  ExpectSelectionBatchEquivalent(
      "SELECT time, srcIP, destIP, len, len / 4 FROM PKT", false,
      kDigestPassThroughNumeric);
}

TEST(BatchEquivalenceTest, PassThroughProjectionWithDeselectedLane) {
  ExpectSelectionBatchEquivalent(
      "SELECT time, srcIP, destIP, len, len / 4 FROM PKT", true,
      kDigestPassThroughDeselected);
}

TEST(BatchEquivalenceTest, PassThroughProjectionWithStringColumn) {
  ExpectSelectionBatchEquivalent("SELECT time, IPSTR(srcIP), len FROM PKT",
                                 false, kDigestPassThroughString);
}

// Selection nodes chained columnar (low feeds high through an `out` batch,
// the runtime topology) must equal the row path end to end.
TEST(BatchEquivalenceTest, ChainedSelectionIntoSamplingMatchesRowPath) {
  const Trace trace = TraceGenerator::MakeDataCenterFeed(2.0, 7);
  Catalog catalog = Catalog::Default();
  const std::string low_sql =
      "SELECT time, srcIP, destIP, len FROM PKT WHERE len > 200";
  const std::string high_sql =
      "SELECT tb, srcIP, sum(len), count(*) FROM PKT_FILT "
      "GROUP BY time/20 as tb, srcIP";
  Catalog high_catalog = catalog;
  // The high query reads the low node's output schema; `time` keeps its
  // ordering so time/20 still defines windows downstream.
  ASSERT_TRUE(high_catalog
                  .RegisterStream(std::make_shared<Schema>(
                      "PKT_FILT",
                      std::vector<Field>{
                          {"time", FieldType::kUInt, Ordering::kIncreasing},
                          {"srcIP", FieldType::kUInt, Ordering::kNone},
                          {"destIP", FieldType::kUInt, Ordering::kNone},
                          {"len", FieldType::kUInt, Ordering::kNone}}))
                  .ok());

  Result<CompiledQuery> low_row = CompileQuery(low_sql, catalog, {.seed = 5});
  Result<CompiledQuery> low_bat = CompileQuery(low_sql, catalog, {.seed = 5});
  Result<CompiledQuery> high_row =
      CompileQuery(high_sql, high_catalog, {.seed = 5});
  Result<CompiledQuery> high_bat =
      CompileQuery(high_sql, high_catalog, {.seed = 5});
  ASSERT_TRUE(low_row.ok()) << low_row.status().ToString();
  ASSERT_TRUE(high_row.ok()) << high_row.status().ToString();

  QueryNode low_row_node("chain_low_row", *low_row);
  QueryNode high_row_node("chain_high_row", *high_row);
  QueryNode low_bat_node("chain_low_bat", *low_bat);
  QueryNode high_bat_node("chain_high_bat", *high_bat);

  for (const PacketRecord& p : trace.packets()) {
    ASSERT_TRUE(low_row_node.Push(PacketToTuple(p)).ok());
    for (const Tuple& t : low_row_node.DrainOutput()) {
      ASSERT_TRUE(high_row_node.Push(t).ok());
    }
  }
  TupleBatch batch(8, 512);
  TupleBatch low_out;
  size_t i = 0;
  const std::vector<PacketRecord>& pkts = trace.packets();
  while (i < pkts.size()) {
    batch.Clear();
    while (i < pkts.size() && !batch.full()) batch.AppendPacket(pkts[i++]);
    ASSERT_TRUE(low_bat_node.PushBatch(batch, 1.0, &low_out).ok());
    ASSERT_TRUE(high_bat_node.PushBatch(low_out).ok());
  }

  ASSERT_TRUE(high_row_node.Finish().ok());
  ASSERT_TRUE(high_bat_node.Finish().ok());

  EXPECT_EQ(low_row_node.tuples_out(), low_bat_node.tuples_out());
  EXPECT_EQ(high_row_node.tuples_in(), high_bat_node.tuples_in());
  const std::vector<Tuple> row_out = high_row_node.DrainOutput();
  const std::vector<Tuple> batch_out = high_bat_node.DrainOutput();
  EXPECT_EQ(row_out, batch_out);
  ExpectDigest(kDigestChainedSelection,
               CanonicalizeNode(high_row_node, row_out),
               CanonicalizeNode(high_bat_node, batch_out));
}

// ---------------------------------------------------------------------------
// Evaluation errors and late lanes inside one batch: each case gives the
// same result as tuple-at-a-time processing, including where the error
// surfaces and how much state the lanes before it left behind.
// ---------------------------------------------------------------------------

// Ten lanes in one window with distinct sources; len = 41 everywhere except
// lane 6, where len - 40 is zero.
std::vector<Tuple> TenLanesZeroDivisorAtLane6() {
  std::vector<Tuple> tuples;
  for (uint64_t i = 0; i < 10; ++i) {
    tuples.push_back(PacketTuple(100, 1 + i, 7, i == 6 ? 40 : 41));
  }
  return tuples;
}

TEST(BatchEquivalenceTest, GroupKeyErrorProcessesEarlierLanesThenFails) {
  // The key k divides by zero on lane 6: lanes 0-5 create their groups,
  // then lane 6's error is returned and lanes 7-9 are not processed.
  const std::string sql =
      "SELECT tb, k, count(*) FROM PKTS "
      "GROUP BY time/20 as tb, srcIP * 100 / (len - 40) as k";
  Catalog catalog = Catalog::Default();
  Result<CompiledQuery> row_cq = CompileQuery(sql, catalog, {.seed = 3});
  Result<CompiledQuery> batch_cq = CompileQuery(sql, catalog, {.seed = 3});
  ASSERT_TRUE(row_cq.ok()) << row_cq.status().ToString();
  SamplingOperator row_op(row_cq->sampling);
  SamplingOperator batch_op(batch_cq->sampling);

  const std::vector<Tuple> tuples = TenLanesZeroDivisorAtLane6();
  Status row_status;
  for (const Tuple& t : tuples) {
    row_status = row_op.Process(t);
    if (!row_status.ok()) break;
  }
  TupleBatch batch(8, 16);
  for (const Tuple& t : tuples) batch.AppendTuple(t);
  const Status batch_status = batch_op.ProcessBatch(batch);

  ASSERT_FALSE(row_status.ok());
  ASSERT_FALSE(batch_status.ok());
  EXPECT_NE(row_status.message().find("division by zero"), std::string::npos);
  EXPECT_EQ(batch_status.message(), row_status.message());
  EXPECT_EQ(row_op.num_groups(), 6u);
  EXPECT_EQ(batch_op.num_groups(), 6u);

  // The six groups are live: closing the window emits them.
  ASSERT_TRUE(row_op.FinishStream().ok());
  ASSERT_TRUE(batch_op.FinishStream().ok());
  const std::vector<Tuple> row_out = row_op.DrainOutput();
  const std::vector<Tuple> batch_out = batch_op.DrainOutput();
  EXPECT_EQ(batch_out.size(), 6u);
  EXPECT_EQ(row_out, batch_out);
  ExpectSameWindowStats(row_op.window_stats(), batch_op.window_stats());
  ExpectDigest(kDigestGroupKeyError,
               Canonicalize(row_out, row_op.window_stats(),
                            row_op.late_tuples(), row_op.num_groups()),
               Canonicalize(batch_out, batch_op.window_stats(),
                            batch_op.late_tuples(), batch_op.num_groups()));
}

TEST(BatchEquivalenceTest, RowModeWhereSkipsArgumentOfRejectedLane) {
  // count$(*) makes this WHERE read a superaggregate, so it runs lane by
  // lane in row mode. It rejects lane 6, whose aggregate argument would
  // divide by zero: the argument is never evaluated there.
  std::vector<Tuple> rows;
  ExpectBatchEquivalent(
      "SELECT tb, srcIP, sum(100 / (len - 40)) FROM PKTS "
      "WHERE count$(*) < 1000000 AND len > 40 "
      "GROUP BY time/20 as tb, srcIP",
      TenLanesZeroDivisorAtLane6(), 16, kDigestWhereRejectsFailingLane, 1.0,
      &rows);
  EXPECT_EQ(rows.size(), 9u);
}

TEST(BatchEquivalenceTest, SelectionWhereErrorKeepsEarlierRows) {
  const std::string sql =
      "SELECT time, srcIP, len FROM PKT WHERE 100 / (len - 40) > 0";
  Catalog catalog = Catalog::Default();
  Result<CompiledQuery> row_cq = CompileQuery(sql, catalog, {.seed = 3});
  Result<CompiledQuery> batch_cq = CompileQuery(sql, catalog, {.seed = 3});
  ASSERT_TRUE(row_cq.ok()) << row_cq.status().ToString();
  ASSERT_EQ(row_cq->kind, CompiledQueryKind::kSelection);
  SelectionOperator row_op(row_cq->selection);
  SelectionOperator batch_op(batch_cq->selection);

  const std::vector<Tuple> tuples = TenLanesZeroDivisorAtLane6();
  std::vector<Tuple> row_out;
  Status row_status;
  for (const Tuple& t : tuples) {
    Tuple projected;
    Result<bool> pass = row_op.Process(t, &projected);
    if (!pass.ok()) {
      row_status = pass.status();
      break;
    }
    if (*pass) row_out.push_back(projected);
  }
  TupleBatch in(8, 16);
  for (const Tuple& t : tuples) in.AppendTuple(t);
  TupleBatch out;
  const Status batch_status = batch_op.ProcessBatch(in, &out);

  ASSERT_FALSE(row_status.ok());
  ASSERT_FALSE(batch_status.ok());
  EXPECT_NE(row_status.message().find("division by zero"), std::string::npos);
  EXPECT_EQ(batch_status.message(), row_status.message());
  EXPECT_EQ(row_op.tuples_in(), 7u);
  EXPECT_EQ(batch_op.tuples_in(), 7u);
  ASSERT_EQ(out.num_rows(), 6u);
  std::vector<Tuple> batch_out(out.num_rows());
  for (size_t i = 0; i < out.num_rows(); ++i) {
    out.MaterializeRow(i, &batch_out[i]);
  }
  EXPECT_EQ(row_out, batch_out);
  ExpectDigest(kDigestSelectionWhereError, Canonicalize(row_out, {}, 0, 0),
               Canonicalize(batch_out, {}, 0, 0));
}

TEST(BatchEquivalenceTest, DeeplyNestedAggregateArgument) {
  // 1 + (1 + (... len ...)), 40 levels: deeper than any fixed-size
  // evaluation stack would allow.
  std::string arg = "len";
  for (int i = 0; i < 40; ++i) arg = "1 + (" + arg + ")";
  ExpectBatchEquivalent("SELECT tb, srcIP, sum(" + arg + ") FROM PKTS " +
                            "GROUP BY time/20 as tb, srcIP",
                        WindowedStream(), 256, kDigestDeepNesting);
}

// Five time/20 windows; a few lanes into each window after the first, a
// straggler from the previous window arrives, so it is late.
std::vector<Tuple> StreamWithLateLanes() {
  std::vector<Tuple> tuples;
  for (uint64_t w = 0; w < 5; ++w) {
    const uint64_t start = 100 + 20 * w;
    for (uint64_t i = 0; i < 200; ++i) {
      tuples.push_back(PacketTuple(start + i / 10, 0x0a000000ULL + i % 7,
                                   0xc0a80000ULL + i % 3,
                                   40 + (i * 97) % 1460));
      if (w > 0 && i % 50 == 3) {
        tuples.push_back(PacketTuple(start - 5, 0x0a000001ULL, 0xc0a80001ULL,
                                     99));
      }
    }
  }
  return tuples;
}

TEST(BatchEquivalenceTest, LateLanesSeeTheClampedKeyInEveryClause) {
  // WHERE and an aggregate argument read the window variable tb. A late
  // lane is clamped into the open window, so both see the open window's
  // tb, not the one the lane's own timestamp gives: the stragglers (len 99)
  // pass this WHERE only through the open window's parity.
  ExpectBatchEquivalent(
      "SELECT tb, srcIP, sum(tb), count(*) FROM PKTS "
      "WHERE tb % 2 = 0 OR len > 500 GROUP BY time/20 as tb, srcIP",
      StreamWithLateLanes(), 37, kDigestLateLanesClampedKey);
}

// The grouped-aggregation, subset-sum and Horvitz–Thompson cases above, over
// the stream with late lanes: clamped stragglers join the open window's
// groups, feed its samplers and carry the shedding weight.
TEST(BatchEquivalenceTest, LateLanesGroupedAggregation) {
  ExpectBatchEquivalent(
      "SELECT tb, srcIP, destIP, sum(len), count(*), max(len) FROM PKTS "
      "GROUP BY time/20 as tb, srcIP, destIP",
      StreamWithLateLanes(), 37, kDigestLateLanesGroupedAggregation);
}

TEST(BatchEquivalenceTest, LateLanesSubsetSumSampling) {
  ExpectBatchEquivalent(R"(
      SELECT tb, srcIP, destIP, UMAX(sum(len), ssthreshold())
      FROM PKTS
      WHERE ssample(len, 100, 2, 100, 10.0) = TRUE
      GROUP BY time/20 as tb, srcIP, destIP
      HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
      CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
      CLEANING BY ssclean_with(sum(len)) = TRUE
  )",
                        StreamWithLateLanes(), 37, kDigestLateLanesSubsetSum);
}

TEST(BatchEquivalenceTest, LateLanesHorvitzThompsonWeights) {
  ExpectBatchEquivalent(
      "SELECT tb, srcIP, sum(len), count(*), sum$(len) FROM PKTS "
      "GROUP BY time/20 as tb, srcIP SUPERGROUP BY tb",
      StreamWithLateLanes(), 37, kDigestLateLanesHorvitzThompson,
      /*weight=*/2.5);
}

TEST(BatchEquivalenceTest, LateLanesInsideOneBatchAreClampedInPlace) {
  // Three lanes of one batch belong to a window that is already closed:
  // each is clamped into the open window (tb = 2), counted, and offered
  // as a late-tuple exemplar.
  Catalog catalog = Catalog::Default();
  Result<CompiledQuery> cq = CompileQuery(
      "SELECT tb, srcIP, count(*) FROM PKTS GROUP BY time/20 as tb, srcIP",
      catalog, {.seed = 3});
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  SamplingOperator op(cq->sampling);
  obs::MetricRegistry reg;
  op.set_metrics(obs::OperatorMetrics::Create(reg, "late"));
  obs::ExemplarStore exemplars;
  exemplars.set_enabled(true);
  op.set_exemplars(&exemplars);

  TupleBatch batch(8, 8);
  const uint64_t lanes[][2] = {{40, 1}, {5, 9}, {41, 2},
                               {6, 9},  {7, 9}, {42, 1}};
  for (const auto& lane : lanes) {
    batch.AppendTuple(PacketTuple(lane[0], lane[1], 7, 100));
  }
  ASSERT_TRUE(op.ProcessBatch(batch).ok());
  ASSERT_TRUE(op.FinishStream().ok());

  EXPECT_EQ(op.late_tuples(), 3u);
  if constexpr (obs::kStatsEnabled) {
    const std::string node = "node=\"late\"";
    EXPECT_EQ(
        reg.GetCounter("streamop_operator_late_tuples_total", node)->value(),
        3u);
    EXPECT_EQ(reg.GetCounter("streamop_operator_tuples_total", node)->value(),
              6u);
    EXPECT_EQ(exemplars.offered(obs::ExemplarStore::kLateTuple), 3u);
  }
  const std::vector<Tuple> want = {
      Tuple({Value::UInt(2), Value::UInt(1), Value::UInt(2)}),
      Tuple({Value::UInt(2), Value::UInt(9), Value::UInt(3)}),
      Tuple({Value::UInt(2), Value::UInt(2), Value::UInt(1)})};
  EXPECT_EQ(op.DrainOutput(), want);
}

}  // namespace
}  // namespace streamop
