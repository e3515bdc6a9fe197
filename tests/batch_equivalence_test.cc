// Differential testing of the batched hot path (DESIGN.md §9): for the
// same query and the same input stream, ProcessBatch/PushBatch must be
// equivalent tuple-for-tuple to Process/Push — identical output rows,
// identical per-window statistics, identical group tables — across window
// boundaries mid-batch, late tuples, stateful (ssample) admission, load
// shedding weights and cleaning phases. The bytecode interpreter routes
// operator application through the same evaluator kernels as the tree
// walk, so equality here is exact, not approximate.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/sampling_operator.h"
#include "engine/query_node.h"
#include "net/trace_generator.h"
#include "query/query.h"
#include "tuple/tuple_batch.h"

namespace streamop {
namespace {

Tuple PacketTuple(uint64_t time, uint64_t src, uint64_t dst, uint64_t len) {
  return Tuple({Value::UInt(time), Value::UInt(time * 1000),
                Value::UInt(src), Value::UInt(dst), Value::UInt(1234),
                Value::UInt(80), Value::UInt(6), Value::UInt(len)});
}

// A stream that crosses several window boundaries and carries late
// (non-monotonic) tuples, over a small key grid so groups repeat.
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
    // A late straggler right after each boundary: clamped, counted.
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
void ExpectBatchEquivalent(const std::string& sql,
                           const std::vector<Tuple>& tuples,
                           size_t batch_size, double weight = 1.0) {
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

  EXPECT_EQ(row_op.DrainOutput(), batch_op.DrainOutput());
  EXPECT_EQ(row_op.num_groups(), batch_op.num_groups());
  EXPECT_EQ(row_op.num_supergroups(), batch_op.num_supergroups());
  EXPECT_EQ(row_op.late_tuples(), batch_op.late_tuples());
  ExpectSameWindowStats(row_op.window_stats(), batch_op.window_stats());
}

TEST(BatchEquivalenceTest, GroupedAggregationAcrossWindowsAndLateTuples) {
  ExpectBatchEquivalent(
      "SELECT tb, srcIP, destIP, sum(len), count(*), max(len) FROM PKTS "
      "GROUP BY time/20 as tb, srcIP, destIP",
      WindowedStream(), 256);
}

TEST(BatchEquivalenceTest, OddBatchSizesHitBoundariesMidBatch) {
  // 37 never divides the window length, so boundaries and late tuples land
  // at arbitrary lane positions inside batches.
  ExpectBatchEquivalent(
      "SELECT tb, srcIP, sum(len), count(*) FROM PKTS "
      "GROUP BY time/20 as tb, srcIP",
      WindowedStream(), 37);
}

TEST(BatchEquivalenceTest, StringGroupKeyAndStringMinMax) {
  // IPSTR() is the dialect's only source of strings: a string group key and
  // string min/max carry Value's out-of-line payload through key building,
  // accumulator updates and output rows on both paths.
  ExpectBatchEquivalent(
      "SELECT tb, sip, count(*), min(IPSTR(destIP)), max(IPSTR(destIP)) "
      "FROM PKTS GROUP BY time/20 as tb, IPSTR(srcIP) as sip",
      WindowedStream(), 37);
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
                        WindowedStream(), 256);
}

TEST(BatchEquivalenceTest, HorvitzThompsonWeightsFlowThroughBatches) {
  ExpectBatchEquivalent(
      "SELECT tb, srcIP, sum(len), count(*), sum$(len) FROM PKTS "
      "GROUP BY time/20 as tb, srcIP SUPERGROUP BY tb",
      WindowedStream(), 256, /*weight=*/2.5);
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

TEST(BatchEquivalenceTest, QueryFuzzSeedsIdenticalThroughBothEnginePaths) {
  const Trace trace = TraceGenerator::MakeDataCenterFeed(2.0, 7);
  Catalog catalog = Catalog::Default();
  for (const std::string& sql : FuzzSeedQueries()) {
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
    EXPECT_EQ(row_node.DrainOutput(), batch_node.DrainOutput());
  }
}

// A selection query through both QueryNode paths. With `deselect_one`,
// the middle lane of every batch is switched off (as a shedding stage
// would), and the row path never sees that tuple.
void ExpectSelectionBatchEquivalent(const std::string& sql,
                                    bool deselect_one) {
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
  EXPECT_EQ(row_node.DrainOutput(), batch_node.DrainOutput());
}

// Pass-through projections: with no WHERE, every lane selected and only
// numeric projections, ProcessBatch copies whole columns; a deselected
// lane or a string projection keeps it on the per-lane append.
TEST(BatchEquivalenceTest, PassThroughProjectionAllLanesNumeric) {
  ExpectSelectionBatchEquivalent(
      "SELECT time, srcIP, destIP, len, len / 4 FROM PKT", false);
}

TEST(BatchEquivalenceTest, PassThroughProjectionWithDeselectedLane) {
  ExpectSelectionBatchEquivalent(
      "SELECT time, srcIP, destIP, len, len / 4 FROM PKT", true);
}

TEST(BatchEquivalenceTest, PassThroughProjectionWithStringColumn) {
  ExpectSelectionBatchEquivalent("SELECT time, IPSTR(srcIP), len FROM PKT",
                                 false);
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
  EXPECT_EQ(high_row_node.DrainOutput(), high_bat_node.DrainOutput());
}

}  // namespace
}  // namespace streamop
