// Tests for src/core: the sampling operator's evaluation loop (§6.4) with
// hand-assembled plans — window semantics, grouping, aggregates,
// supergroups, superaggregates, cleaning phases, and SFUN state hand-off —
// plus the superaggregate state machine in isolation.

#include <gtest/gtest.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/sampling_operator.h"
#include "core/sfun_subset_sum.h"
#include "core/superagg.h"
#include "engine/query_node.h"
#include "expr/stateful.h"
#include "net/packet.h"
#include "query/query.h"
#include "rss_probe.h"
#include "tuple/tuple_batch.h"

namespace streamop {
namespace {

// Test schema: S(t increasing, k, v).
SchemaPtr TestSchema() {
  return std::make_shared<Schema>(
      "S", std::vector<Field>{{"t", FieldType::kUInt, Ordering::kIncreasing},
                              {"k", FieldType::kUInt, Ordering::kNone},
                              {"v", FieldType::kUInt, Ordering::kNone}});
}

Tuple Row(uint64_t t, uint64_t k, uint64_t v) {
  return Tuple({Value::UInt(t), Value::UInt(k), Value::UInt(v)});
}

// Base plan: SELECT tb, k, sum(v), count(*) FROM S GROUP BY t/10 as tb, k.
std::shared_ptr<SamplingQueryPlan> MakeAggregationPlan() {
  auto plan = std::make_shared<SamplingQueryPlan>();
  plan->input_schema = TestSchema();
  plan->group_by_exprs = {
      Expr::Binary(BinaryOp::kDiv, Expr::InputRef("t", 0),
                   Expr::Literal(Value::UInt(10))),
      Expr::InputRef("k", 1)};
  plan->group_by_names = {"tb", "k"};
  plan->group_by_ordered = {true, false};

  AggregateSpec sum_spec;
  sum_spec.kind = AggregateKind::kSum;
  sum_spec.arg = Expr::InputRef("v", 2);
  sum_spec.display = "sum(v)";
  AggregateSpec cnt_spec;
  cnt_spec.kind = AggregateKind::kCount;
  cnt_spec.star = true;
  cnt_spec.display = "count(*)";
  plan->aggregates = {sum_spec, cnt_spec};

  plan->select_exprs = {Expr::GroupByRef("tb", 0), Expr::GroupByRef("k", 1),
                        Expr::AggregateRef(0), Expr::AggregateRef(1)};
  plan->output_names = {"tb", "k", "sum_v", "cnt"};
  return plan;
}

TEST(SamplingOperatorTest, PlainAggregationPerWindow) {
  SamplingOperator op(MakeAggregationPlan());
  // Window 0 (t in [0,10)): k=1 gets 5+7, k=2 gets 3.
  ASSERT_TRUE(op.Process(Row(1, 1, 5)).ok());
  ASSERT_TRUE(op.Process(Row(2, 2, 3)).ok());
  ASSERT_TRUE(op.Process(Row(9, 1, 7)).ok());
  // Window 1: k=1 gets 100.
  ASSERT_TRUE(op.Process(Row(12, 1, 100)).ok());
  ASSERT_TRUE(op.FinishStream().ok());

  std::vector<Tuple> out = op.DrainOutput();
  ASSERT_EQ(out.size(), 3u);
  std::map<std::pair<uint64_t, uint64_t>, std::pair<uint64_t, uint64_t>> got;
  for (const Tuple& t : out) {
    got[{t[0].AsUInt(), t[1].AsUInt()}] = {t[2].AsUInt(), t[3].AsUInt()};
  }
  using UPair = std::pair<uint64_t, uint64_t>;
  UPair key01{0, 1}, key02{0, 2}, key11{1, 1};
  EXPECT_EQ(got[key01], UPair(12, 2));
  EXPECT_EQ(got[key02], UPair(3, 1));
  EXPECT_EQ(got[key11], UPair(100, 1));
}

TEST(SamplingOperatorTest, WindowBoundaryOnOrderedChange) {
  SamplingOperator op(MakeAggregationPlan());
  ASSERT_TRUE(op.Process(Row(0, 1, 1)).ok());
  EXPECT_TRUE(op.DrainOutput().empty());  // window still open
  ASSERT_TRUE(op.Process(Row(10, 1, 1)).ok());  // t/10 changes 0 -> 1
  EXPECT_EQ(op.DrainOutput().size(), 1u);  // window 0 flushed
  EXPECT_EQ(op.window_stats().size(), 1u);
  ASSERT_TRUE(op.FinishStream().ok());
  EXPECT_EQ(op.DrainOutput().size(), 1u);
}

TEST(SamplingOperatorTest, WhereFiltersTuples) {
  auto plan = MakeAggregationPlan();
  // WHERE v >= 10
  plan->where = Expr::Binary(BinaryOp::kGe, Expr::InputRef("v", 2),
                             Expr::Literal(Value::UInt(10)));
  SamplingOperator op(plan);
  ASSERT_TRUE(op.Process(Row(1, 1, 5)).ok());   // filtered
  ASSERT_TRUE(op.Process(Row(2, 1, 50)).ok());  // kept
  ASSERT_TRUE(op.FinishStream().ok());
  std::vector<Tuple> out = op.DrainOutput();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][2].AsUInt(), 50u);
  ASSERT_EQ(op.window_stats().size(), 1u);
  EXPECT_EQ(op.window_stats()[0].tuples_in, 2u);
  EXPECT_EQ(op.window_stats()[0].tuples_admitted, 1u);
}

TEST(SamplingOperatorTest, HavingPrunesGroups) {
  auto plan = MakeAggregationPlan();
  // HAVING sum(v) > 10
  plan->having = Expr::Binary(BinaryOp::kGt, Expr::AggregateRef(0),
                              Expr::Literal(Value::UInt(10)));
  SamplingOperator op(plan);
  ASSERT_TRUE(op.Process(Row(1, 1, 5)).ok());
  ASSERT_TRUE(op.Process(Row(1, 2, 50)).ok());
  ASSERT_TRUE(op.FinishStream().ok());
  std::vector<Tuple> out = op.DrainOutput();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][1].AsUInt(), 2u);
  EXPECT_EQ(op.window_stats()[0].groups_output, 1u);
  EXPECT_EQ(op.window_stats()[0].tuples_output, 1u);  // HAVING pruned k=1
}

TEST(SamplingOperatorTest, WindowStatsCountTuplesOutput) {
  SamplingOperator op(MakeAggregationPlan());
  // Window 0: three groups -> three output rows; window 1: one group.
  ASSERT_TRUE(op.Process(Row(1, 1, 1)).ok());
  ASSERT_TRUE(op.Process(Row(2, 2, 1)).ok());
  ASSERT_TRUE(op.Process(Row(3, 3, 1)).ok());
  ASSERT_TRUE(op.Process(Row(11, 1, 1)).ok());  // flushes window 0
  ASSERT_TRUE(op.FinishStream().ok());
  ASSERT_EQ(op.window_stats().size(), 2u);
  EXPECT_EQ(op.window_stats()[0].tuples_output, 3u);
  EXPECT_EQ(op.window_stats()[1].tuples_output, 1u);
  // Without HAVING, every surviving group emits exactly one row.
  EXPECT_EQ(op.window_stats()[0].tuples_output,
            op.window_stats()[0].groups_output);
  EXPECT_EQ(op.DrainOutput().size(), 4u);
}

// Adds count_distinct$ over the default (ALL) supergroup plus a cleaning
// pair: trigger when more than `limit` groups are live, keep groups with
// count(*) >= 2.
void AddCleaning(std::shared_ptr<SamplingQueryPlan>& plan, uint64_t limit) {
  SuperAggSpec cd;
  cd.kind = SuperAggKind::kCountDistinct;
  cd.display = "count_distinct$(*)";
  plan->superaggs = {cd};
  plan->cleaning_when = Expr::Binary(BinaryOp::kGt, Expr::SuperAggRef(0),
                                     Expr::Literal(Value::UInt(limit)));
  plan->cleaning_by = Expr::Binary(BinaryOp::kGe, Expr::AggregateRef(1),
                                   Expr::Literal(Value::UInt(2)));
}

TEST(SamplingOperatorTest, CleaningPhaseRemovesGroups) {
  auto plan = MakeAggregationPlan();
  AddCleaning(plan, 3);
  SamplingOperator op(plan);
  // Create groups k=1..3 (one tuple each), then repeat k=1 (count 2), then
  // k=4 pushes the live count to 4 > 3 -> cleaning keeps only count>=2.
  ASSERT_TRUE(op.Process(Row(1, 1, 1)).ok());
  ASSERT_TRUE(op.Process(Row(1, 2, 1)).ok());
  ASSERT_TRUE(op.Process(Row(1, 3, 1)).ok());
  ASSERT_TRUE(op.Process(Row(1, 1, 1)).ok());
  EXPECT_EQ(op.num_groups(), 3u);
  ASSERT_TRUE(op.Process(Row(1, 4, 1)).ok());  // trigger
  // Survivors: k=1 (count 2). k=2,3 removed; k=4 arrived with count 1 and
  // is removed by the same pass (it was inserted before the trigger check).
  EXPECT_EQ(op.num_groups(), 1u);
  ASSERT_TRUE(op.FinishStream().ok());
  ASSERT_EQ(op.window_stats().size(), 1u);
  EXPECT_EQ(op.window_stats()[0].cleaning_phases, 1u);
  EXPECT_EQ(op.window_stats()[0].groups_removed, 3u);
  std::vector<Tuple> out = op.DrainOutput();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][1].AsUInt(), 1u);
}

TEST(SamplingOperatorTest, CountDistinctTracksRemovals) {
  auto plan = MakeAggregationPlan();
  AddCleaning(plan, 2);
  // SELECT also exposes count_distinct$ to observe it at flush.
  plan->select_exprs.push_back(Expr::SuperAggRef(0));
  plan->output_names.push_back("cd");
  SamplingOperator op(plan);
  ASSERT_TRUE(op.Process(Row(1, 1, 1)).ok());
  ASSERT_TRUE(op.Process(Row(1, 1, 1)).ok());
  ASSERT_TRUE(op.Process(Row(1, 2, 1)).ok());
  ASSERT_TRUE(op.Process(Row(1, 3, 1)).ok());  // 3 > 2: clean, keep k=1 only
  ASSERT_TRUE(op.FinishStream().ok());
  std::vector<Tuple> out = op.DrainOutput();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][4].AsUInt(), 1u);  // count_distinct$ after removals
}

TEST(SamplingOperatorTest, SupergroupPartitionsCleaning) {
  // Supergroup on k's parity: cleaning in one supergroup must not touch
  // groups of the other.
  auto plan = std::make_shared<SamplingQueryPlan>();
  plan->input_schema = TestSchema();
  plan->group_by_exprs = {
      Expr::Binary(BinaryOp::kDiv, Expr::InputRef("t", 0),
                   Expr::Literal(Value::UInt(100))),
      Expr::Binary(BinaryOp::kMod, Expr::InputRef("k", 1),
                   Expr::Literal(Value::UInt(2))),
      Expr::InputRef("k", 1)};
  plan->group_by_names = {"tb", "parity", "k"};
  plan->group_by_ordered = {true, false, false};
  plan->supergroup_slots = {1};  // parity

  AggregateSpec cnt;
  cnt.kind = AggregateKind::kCount;
  cnt.star = true;
  cnt.display = "count(*)";
  plan->aggregates = {cnt};

  SuperAggSpec cd;
  cd.kind = SuperAggKind::kCountDistinct;
  cd.display = "count_distinct$(*)";
  plan->superaggs = {cd};

  plan->select_exprs = {Expr::GroupByRef("parity", 1), Expr::GroupByRef("k", 2),
                        Expr::AggregateRef(0)};
  plan->output_names = {"parity", "k", "cnt"};
  // Trigger cleaning when a supergroup holds > 2 groups; remove everything
  // (CLEANING BY FALSE).
  plan->cleaning_when = Expr::Binary(BinaryOp::kGt, Expr::SuperAggRef(0),
                                     Expr::Literal(Value::UInt(2)));
  plan->cleaning_by = Expr::Literal(Value::Bool(false));

  SamplingOperator op(plan);
  // Even supergroup: k=0,2,4 (third insert trips the cleaner, wiping evens).
  // Odd supergroup: k=1,3 stays at 2 groups — untouched.
  for (uint64_t k : {0, 1, 2, 3, 4}) {
    ASSERT_TRUE(op.Process(Row(1, k, 1)).ok());
  }
  ASSERT_TRUE(op.FinishStream().ok());
  std::vector<Tuple> out = op.DrainOutput();
  ASSERT_EQ(out.size(), 2u);
  for (const Tuple& t : out) {
    EXPECT_EQ(t[0].AsUInt(), 1u) << "only odd supergroup should survive";
  }
}

TEST(SamplingOperatorTest, KthSmallestSuperaggregate) {
  // SELECT tb, k FROM S GROUP BY t/10 tb, k WHERE k <= kth_smallest$(k, 2):
  // admits groups while their k is within the 2 smallest seen.
  auto plan = std::make_shared<SamplingQueryPlan>();
  plan->input_schema = TestSchema();
  plan->group_by_exprs = {
      Expr::Binary(BinaryOp::kDiv, Expr::InputRef("t", 0),
                   Expr::Literal(Value::UInt(10))),
      Expr::InputRef("k", 1)};
  plan->group_by_names = {"tb", "k"};
  plan->group_by_ordered = {true, false};
  AggregateSpec cnt;
  cnt.kind = AggregateKind::kCount;
  cnt.star = true;
  cnt.display = "count(*)";
  plan->aggregates = {cnt};

  SuperAggSpec kth;
  kth.kind = SuperAggKind::kKthSmallest;
  kth.group_by_slot = 1;
  kth.k = 2;
  kth.display = "kth_smallest$(k, 2)";
  plan->superaggs = {kth};

  plan->where = Expr::Binary(BinaryOp::kLe, Expr::GroupByRef("k", 1),
                             Expr::SuperAggRef(0));
  plan->having = Expr::Binary(BinaryOp::kLe, Expr::GroupByRef("k", 1),
                              Expr::SuperAggRef(0));
  plan->cleaning_when = Expr::Binary(BinaryOp::kGt, Expr::SuperAggRef(0),
                                     Expr::Literal(Value::UInt(1000)));
  plan->cleaning_by = Expr::Literal(Value::Bool(true));
  plan->select_exprs = {Expr::GroupByRef("k", 1)};
  plan->output_names = {"k"};

  SamplingOperator op(plan);
  // ks arrive in decreasing order; the final 2-smallest are 2 and 4.
  for (uint64_t k : {20, 10, 8, 6, 4, 2}) {
    ASSERT_TRUE(op.Process(Row(1, k, 1)).ok());
  }
  ASSERT_TRUE(op.FinishStream().ok());
  std::vector<Tuple> out = op.DrainOutput();
  std::set<uint64_t> ks;
  for (const Tuple& t : out) ks.insert(t[0].AsUInt());
  EXPECT_TRUE(ks.count(2) == 1);
  EXPECT_TRUE(ks.count(4) == 1);
  // Larger ks were admitted while the sketch was filling but must fail the
  // HAVING clause at window end.
  EXPECT_TRUE(ks.count(20) == 0);
}

TEST(SamplingOperatorTest, SumSuperaggregateWithShadowSubtraction) {
  auto plan = MakeAggregationPlan();
  // sum$(v) with shadow on aggregate slot 0 (sum(v)); cleaning removes
  // single-tuple groups when more than 2 groups are live.
  SuperAggSpec cd;
  cd.kind = SuperAggKind::kCountDistinct;
  cd.display = "count_distinct$(*)";
  SuperAggSpec ssum;
  ssum.kind = SuperAggKind::kSum;
  ssum.arg = Expr::InputRef("v", 2);
  ssum.shadow_agg_slot = 0;  // sum(v) already present in aggregates[0]
  ssum.display = "sum$(v)";
  plan->superaggs = {cd, ssum};
  plan->cleaning_when = Expr::Binary(BinaryOp::kGt, Expr::SuperAggRef(0),
                                     Expr::Literal(Value::UInt(2)));
  plan->cleaning_by = Expr::Binary(BinaryOp::kGe, Expr::AggregateRef(1),
                                   Expr::Literal(Value::UInt(2)));
  plan->select_exprs.push_back(Expr::SuperAggRef(1));
  plan->output_names.push_back("supersum");

  SamplingOperator op(plan);
  ASSERT_TRUE(op.Process(Row(1, 1, 10)).ok());
  ASSERT_TRUE(op.Process(Row(1, 1, 10)).ok());
  ASSERT_TRUE(op.Process(Row(1, 2, 7)).ok());
  ASSERT_TRUE(op.Process(Row(1, 3, 5)).ok());  // trigger: k=2, k=3 removed
  ASSERT_TRUE(op.FinishStream().ok());
  std::vector<Tuple> out = op.DrainOutput();
  ASSERT_EQ(out.size(), 1u);
  // sum$ saw 10+10+7+5 = 32, minus removed shadows 7 and 5 -> 20.
  EXPECT_EQ(out[0][4].AsUInt(), 20u);
}

TEST(SamplingOperatorTest, SfunStateCarriesAcrossWindows) {
  EnsureBuiltinSfunPackagesRegistered();
  const SfunStateDef* state =
      SfunRegistry::Global().FindState("subsetsum_sampling_state");
  ASSERT_NE(state, nullptr);
  const SfunDef* ssample = SfunRegistry::Global().FindFunction("ssample");
  const SfunDef* ssthreshold =
      SfunRegistry::Global().FindFunction("ssthreshold");
  const SfunDef* ssdo_clean = SfunRegistry::Global().FindFunction("ssdo_clean");
  const SfunDef* ssclean_with =
      SfunRegistry::Global().FindFunction("ssclean_with");

  auto plan = std::make_shared<SamplingQueryPlan>();
  plan->input_schema = TestSchema();
  plan->group_by_exprs = {
      Expr::Binary(BinaryOp::kDiv, Expr::InputRef("t", 0),
                   Expr::Literal(Value::UInt(10))),
      Expr::InputRef("k", 1)};
  plan->group_by_names = {"tb", "k"};
  plan->group_by_ordered = {true, false};
  plan->sfun_states = {state};

  AggregateSpec sum_spec;
  sum_spec.kind = AggregateKind::kSum;
  sum_spec.arg = Expr::InputRef("v", 2);
  sum_spec.display = "sum(v)";
  plan->aggregates = {sum_spec};

  SuperAggSpec cd;
  cd.kind = SuperAggKind::kCountDistinct;
  cd.display = "count_distinct$(*)";
  plan->superaggs = {cd};

  auto SfunCall = [&](const SfunDef* def, std::vector<ExprPtr> args) {
    ExprPtr e = Expr::Call(def->name, std::move(args));
    e->kind = ExprKind::kStatefulCall;
    e->sfun = def;
    e->sfun_state_slot = 0;
    return e;
  };

  // WHERE ssample(v, 4) = TRUE, with a tiny target to force cleaning.
  plan->where =
      Expr::Binary(BinaryOp::kEq,
                   SfunCall(ssample, {Expr::InputRef("v", 2),
                                      Expr::Literal(Value::UInt(4))}),
                   Expr::Literal(Value::Bool(true)));
  plan->cleaning_when =
      Expr::Binary(BinaryOp::kEq, SfunCall(ssdo_clean, {Expr::SuperAggRef(0)}),
                   Expr::Literal(Value::Bool(true)));
  plan->cleaning_by =
      Expr::Binary(BinaryOp::kEq, SfunCall(ssclean_with, {Expr::AggregateRef(0)}),
                   Expr::Literal(Value::Bool(true)));
  plan->select_exprs = {Expr::GroupByRef("tb", 0), SfunCall(ssthreshold, {})};
  plan->output_names = {"tb", "z"};

  SamplingOperator op(plan);
  // Window 0: many tuples -> z grows well above the initial 1.0.
  for (uint64_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(op.Process(Row(1, i, 100 + (i % 900))).ok());
  }
  // Window 1: one tuple; its state must inherit window 0's threshold, so
  // the first ssample call rejects a small tuple (v < carried z).
  ASSERT_TRUE(op.Process(Row(11, 0, 1)).ok());
  ASSERT_TRUE(op.FinishStream().ok());
  std::vector<Tuple> out = op.DrainOutput();
  ASSERT_GE(out.size(), 1u);
  double z_win0 = out[0][1].AsDouble();
  EXPECT_GT(z_win0, 100.0);  // threshold adapted upward
  ASSERT_EQ(op.window_stats().size(), 2u);
  EXPECT_GT(op.window_stats()[0].cleaning_phases, 0u);
  EXPECT_EQ(op.window_stats()[1].tuples_admitted, 0u);  // carried z rejects
}

TEST(SamplingOperatorTest, NoGroupByOrderedMeansSingleWindow) {
  auto plan = MakeAggregationPlan();
  plan->group_by_ordered = {false, false};  // nothing ordered
  SamplingOperator op(plan);
  ASSERT_TRUE(op.Process(Row(1, 1, 1)).ok());
  ASSERT_TRUE(op.Process(Row(500, 1, 1)).ok());  // still the same window
  EXPECT_TRUE(op.DrainOutput().empty());
  ASSERT_TRUE(op.FinishStream().ok());
  EXPECT_EQ(op.window_stats().size(), 1u);
}

// ---------- Window output ----------

// One time/5 window per entry of `sources`: that many sources, source s
// sending 1 + s % 3 packets of len 40 + s % 1000, as 512-row batches.
std::vector<TupleBatch> WindowedPacketBatches(
    uint64_t first_sec, const std::vector<uint32_t>& sources) {
  std::vector<PacketRecord> packets;
  for (size_t w = 0; w < sources.size(); ++w) {
    for (uint32_t rep = 0; rep < 3; ++rep) {
      for (uint32_t s = 0; s < sources[w]; ++s) {
        if (rep > s % 3) continue;
        PacketRecord p{};
        p.ts_ns = (first_sec + 5 * w) * 1000000000ULL + rep;
        p.src_ip = 0x0a000000U + s;
        p.dst_ip = 0xc0a80001U;
        p.proto = kProtoTcp;
        p.len = static_cast<uint16_t>(40 + s % 1000);
        packets.push_back(p);
      }
    }
  }
  std::vector<TupleBatch> batches;
  for (size_t i = 0; i < packets.size(); i += 512) {
    TupleBatch& b = batches.emplace_back(8, 512);
    for (size_t j = i; j < std::min(i + 512, packets.size()); ++j) {
      b.AppendPacket(packets[j]);
    }
  }
  return batches;
}

std::shared_ptr<const SamplingQueryPlan> OutputTestPlan(const char* having) {
  auto cq = CompileQuery(
      std::string("SELECT tb, srcIP, IPSTR(srcIP), count(*), sum(len) "
                  "FROM PKT GROUP BY time/5 as tb, srcIP ") +
          having,
      Catalog::Default(), {.seed = 1});
  EXPECT_TRUE(cq.ok()) << cq.status().ToString();
  return cq->sampling;
}

TEST(OperatorOutputTest, DrainBatchesEqualsDrainOutputRowForRow) {
  // Window 0 emits more rows than one chunk holds; HAVING drops a third of
  // every window's groups, so chunks are sized for more rows than they get
  // and the next window fills the room left.
  const std::vector<TupleBatch> batches =
      WindowedPacketBatches(100, {6000, 3, 700, 1});
  SamplingOperator a(OutputTestPlan("HAVING count(*) > 1"));
  SamplingOperator b(OutputTestPlan("HAVING count(*) > 1"));
  for (const TupleBatch& batch : batches) {
    ASSERT_TRUE(a.ProcessBatch(batch).ok());
    ASSERT_TRUE(b.ProcessBatch(batch).ok());
  }
  ASSERT_TRUE(a.FinishStream().ok());
  ASSERT_TRUE(b.FinishStream().ok());
  const size_t rows = a.output_size();
  EXPECT_EQ(rows, 4000u + 2 + 466 + 0);  // sources with s % 3 != 0

  std::vector<TupleBatch> chunks = a.DrainBatches();
  EXPECT_EQ(a.output_size(), 0u);
  EXPECT_TRUE(a.DrainBatches().empty());
  ASSERT_GE(chunks.size(), 2u);
  size_t chunk_rows = 0;
  for (const TupleBatch& c : chunks) {
    EXPECT_EQ(c.num_cols(), 5u);
    EXPECT_LE(c.num_rows(), SamplingOperator::kOutputChunkRows);
    chunk_rows += c.num_rows();
  }
  EXPECT_EQ(chunk_rows, rows);

  // Move every chunk, through a vector that reallocates as it grows: the
  // string lanes must still read their chunk's strings.
  std::vector<TupleBatch> moved;
  for (TupleBatch& c : chunks) moved.push_back(std::move(c));
  chunks.clear();
  std::vector<Tuple> from_batches;
  for (const TupleBatch& c : moved) {
    for (size_t i = 0; i < c.num_rows(); ++i) {
      c.MaterializeRow(i, &from_batches.emplace_back());
    }
  }
  const std::vector<Tuple> from_rows = b.DrainOutput();
  ASSERT_EQ(from_rows.size(), rows);
  EXPECT_EQ(from_batches, from_rows);
  EXPECT_EQ(from_rows.front()[2].type(), FieldType::kString);
  EXPECT_EQ(from_rows.front()[2].string_value(), "10.0.0.1");
}

TEST(OperatorOutputTest, SecondStreamAfterFinishStreamMatchesAFreshOperator) {
  // FinishStream gives the group arena back; the next stream regrows it
  // and must see nothing of the first (a stateless query carries nothing
  // across windows). The second stream starts before the first one's end.
  const std::vector<TupleBatch> first =
      WindowedPacketBatches(200, {5000, 40, 9000});
  const std::vector<TupleBatch> second =
      WindowedPacketBatches(100, {300, 7000, 2});
  SamplingOperator reused(OutputTestPlan(""));
  for (const TupleBatch& batch : first) {
    ASSERT_TRUE(reused.ProcessBatch(batch).ok());
  }
  ASSERT_TRUE(reused.FinishStream().ok());
  EXPECT_EQ(reused.num_groups(), 0u);
  EXPECT_EQ(reused.DrainOutput().size(), 5000u + 40 + 9000);

  SamplingOperator fresh(OutputTestPlan(""));
  for (SamplingOperator* op : {&reused, &fresh}) {
    for (const TupleBatch& batch : second) {
      ASSERT_TRUE(op->ProcessBatch(batch).ok());
    }
    ASSERT_TRUE(op->FinishStream().ok());
  }
  EXPECT_EQ(reused.late_tuples(), 0u);
  const std::vector<Tuple> want = fresh.DrainOutput();
  EXPECT_EQ(want.size(), 300u + 7000 + 2);
  EXPECT_EQ(reused.DrainOutput(), want);
  ASSERT_EQ(reused.window_stats().size(), 6u);
  for (size_t w = 0; w < 3; ++w) {
    const WindowStats& got = reused.window_stats()[3 + w];
    const WindowStats& exp = fresh.window_stats()[w];
    EXPECT_EQ(got.window_id, exp.window_id);
    EXPECT_EQ(got.groups_created, exp.groups_created);
    EXPECT_EQ(got.peak_groups, exp.peak_groups);
    EXPECT_EQ(got.tuples_output, exp.tuples_output);
  }
}

TEST(OperatorOutputTest, FinishStreamGivesBackTheGroupArena) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "the sanitizer's allocator does not report mallinfo2";
#endif
  // 65,536 groups in one window. Once their rows are drained, the heap
  // holds at least the 88-byte records fewer than before FinishStream:
  // the arena, the index and the membership list went back.
  const std::vector<TupleBatch> batches =
      WindowedPacketBatches(100, {65536});
  auto cq = CompileQuery(
      "SELECT tb, srcIP, count(*), sum(len) FROM PKT "
      "GROUP BY time/5 as tb, srcIP",
      Catalog::Default(), {.seed = 1});
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  SamplingOperator op(cq->sampling);
  for (const TupleBatch& batch : batches) {
    ASSERT_TRUE(op.ProcessBatch(batch).ok());
  }
  ASSERT_EQ(op.num_groups(), 65536u);
  const size_t before = mallinfo2().uordblks;
  ASSERT_TRUE(op.FinishStream().ok());
  EXPECT_EQ(op.DrainBatches().size(), 16u);  // freed at the end of the line
  const size_t after = mallinfo2().uordblks;
  ASSERT_GT(before, after);
  EXPECT_GE(before - after, 65536 * op.group_record_bytes())
      << before << " heap bytes in use before FinishStream, " << after
      << " after it";
}

TEST(OperatorOutputTest, SelectionNodeDrainBatchesPacksItsRows) {
  // A selection node keeps rows, not chunks: DrainBatches() hands them
  // over as one batch, strings included.
  auto cq = CompileQuery("SELECT time, IPSTR(srcIP), len FROM PKT "
                         "WHERE len > 500",
                         Catalog::Default(), {.seed = 1});
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  QueryNode as_batches("sel_batches", *cq);
  QueryNode as_rows("sel_rows", *cq);
  for (const TupleBatch& batch : WindowedPacketBatches(100, {900, 40})) {
    ASSERT_TRUE(as_batches.PushBatch(batch).ok());
    ASSERT_TRUE(as_rows.PushBatch(batch).ok());
  }
  const std::vector<Tuple> want = as_rows.DrainOutput();
  ASSERT_FALSE(want.empty());
  const std::vector<TupleBatch> got = as_batches.DrainBatches();
  ASSERT_EQ(got.size(), 1u);
  std::vector<Tuple> rows(got[0].num_rows());
  for (size_t i = 0; i < rows.size(); ++i) got[0].MaterializeRow(i, &rows[i]);
  EXPECT_EQ(rows, want);
  EXPECT_TRUE(as_batches.DrainBatches().empty());
}

// ---------- Group-state footprint ----------

// A group record is its key values, one per-kind accumulator state per
// aggregate and a last word holding the record's state byte and one flag
// byte per aggregate: 32 + 16 + 32 + 8 bytes for replay_agg's high query
// (two keys, count and sum), and 32 per extremum, 24 per quantile.
TEST(OperatorFootprintTest, GroupRecordHoldsPerKindStates) {
  auto stride = [](const char* sql) -> size_t {
    auto cq = CompileQuery(sql, Catalog::Default(), {.seed = 1});
    EXPECT_TRUE(cq.ok()) << cq.status().ToString();
    return cq.ok() ? SamplingOperator(cq->sampling).group_record_bytes() : 0;
  };
  EXPECT_EQ(stride("SELECT tb, srcIP, count(*), sum(len) FROM PKT "
                   "GROUP BY time/5 as tb, srcIP"),
            88u);
  EXPECT_EQ(stride("SELECT tb, proto, count(*), count(len), sum(len), "
                   "avg(len), min(srcPort), max(len), first(destPort), "
                   "last(srcIP), median(len) FROM PKT "
                   "GROUP BY time/5 as tb, proto"),
            32u + 2 * 16 + 2 * 32 + 4 * 32 + 24 + 16);
}

// What one live group costs in resident memory: an operator holding 65,536
// groups of replay_agg's high query (two key values, count and sum)
// commits at most 150 B for each, its 88-byte record, index slot and
// membership entry included. The input batches are built before the
// probe, so only the operator is measured.
TEST(OperatorFootprintTest, LiveGroupsCommitAtMost150BytesEach) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "the sanitizer's shadow memory, redzones and quarantine "
                  "add to every allocation; the bound is for the allocator "
                  "the operator ships with";
#endif
  auto cq = CompileQuery(
      "SELECT tb, srcIP, count(*), sum(len) FROM PKT "
      "GROUP BY time/5 as tb, srcIP",
      Catalog::Default(), {.seed = 1});
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  constexpr size_t kGroups = 65536;
  constexpr size_t kRows = 512;
  std::vector<TupleBatch> batches;
  for (size_t i = 0; i < kGroups; i += kRows) {
    TupleBatch& b = batches.emplace_back(8, kRows);
    for (size_t j = i; j < i + kRows; ++j) {
      PacketRecord p{};
      p.ts_ns = 100ULL * 1000000000ULL;
      p.src_ip = 0x0a000000U + static_cast<uint32_t>(j);
      p.dst_ip = 0xc0a80001U;
      p.proto = kProtoTcp;
      p.len = static_cast<uint16_t>(40 + j % 1460);
      b.AppendPacket(p);
    }
  }
  const int64_t growth = testing_rss::ChildRssGrowthBytes([&] {
    auto op = std::make_unique<SamplingOperator>(cq->sampling);
    for (const TupleBatch& b : batches) {
      if (!op->ProcessBatch(b).ok()) _exit(3);
    }
    if (op->num_groups() != kGroups) _exit(4);  // a probe of nothing
    return op;
  });
  ASSERT_GE(growth, 0) << "RSS probe child failed";
  const double per_group =
      static_cast<double>(growth) / static_cast<double>(kGroups);
  RecordProperty("bytes_per_group", std::to_string(per_group));
  EXPECT_LE(per_group, 150.0)
      << kGroups << " live groups committed " << growth << " bytes";
}

// ---------- SuperAggState in isolation ----------

TEST(SuperAggStateTest, CountDistinctAddRemove) {
  SuperAggSpec spec;
  spec.kind = SuperAggKind::kCountDistinct;
  SuperAggState st(&spec);
  const Value g1[] = {Value::UInt(1)};
  const Value g2[] = {Value::UInt(2)};
  st.OnGroupCreated(g1);
  st.OnGroupCreated(g2);
  EXPECT_EQ(st.Final(), Value::UInt(2));
  st.OnGroupRemoved(g1, Value::Null());
  EXPECT_EQ(st.Final(), Value::UInt(1));
  st.OnGroupRemoved(g2, Value::Null());
  st.OnGroupRemoved(g2, Value::Null());  // double-remove stays at 0
  EXPECT_EQ(st.Final(), Value::UInt(0));
}

TEST(SuperAggStateTest, KthSmallestWithDuplicatesAndRemoval) {
  SuperAggSpec spec;
  spec.kind = SuperAggKind::kKthSmallest;
  spec.group_by_slot = 0;
  spec.k = 2;
  SuperAggState st(&spec);
  EXPECT_EQ(st.Final(), Value::UInt(UINT64_MAX));  // below k: everything passes
  const Value k5[] = {Value::UInt(5)};
  const Value k3[] = {Value::UInt(3)};
  st.OnGroupCreated(k5);
  st.OnGroupCreated(k5);  // duplicate value
  EXPECT_EQ(st.Final(), Value::UInt(5));
  st.OnGroupCreated(k3);
  EXPECT_EQ(st.Final(), Value::UInt(5));  // 2nd smallest of {3,5,5}
  st.OnGroupRemoved(k5, Value::Null());
  EXPECT_EQ(st.Final(), Value::UInt(5));  // {3,5}
  st.OnGroupRemoved(k5, Value::Null());
  EXPECT_EQ(st.Final(), Value::UInt(UINT64_MAX));  // {3}: below k again
}

TEST(SuperAggStateTest, FirstIsInsensitiveToRemoval) {
  SuperAggSpec spec;
  spec.kind = SuperAggKind::kFirst;
  spec.arg = Expr::InputRef("v", 0);
  SuperAggState st(&spec);
  EXPECT_TRUE(st.Final().is_null());
  st.OnTuple(Value::UInt(9));
  st.OnTuple(Value::UInt(5));
  EXPECT_EQ(st.Final(), Value::UInt(9));
  st.OnGroupRemoved({}, Value::UInt(9));  // a group with an empty key
  EXPECT_EQ(st.Final(), Value::UInt(9));
}

TEST(SuperAggStateTest, KthLargestWithRemoval) {
  SuperAggSpec spec;
  spec.kind = SuperAggKind::kKthLargest;
  spec.group_by_slot = 0;
  spec.k = 2;
  SuperAggState st(&spec);
  EXPECT_EQ(st.Final(), Value::UInt(0));  // below k: nothing excluded
  const Value k5[] = {Value::Double(5.0)};
  const Value k9[] = {Value::Double(9.0)};
  const Value k7[] = {Value::Double(7.0)};
  st.OnGroupCreated(k5);
  st.OnGroupCreated(k9);
  st.OnGroupCreated(k7);
  EXPECT_EQ(st.Final(), Value::Double(7.0));  // 2nd largest of {5,7,9}
  st.OnGroupRemoved(k9, Value::Null());
  EXPECT_EQ(st.Final(), Value::Double(5.0));  // {5,7}
}

TEST(SuperAggStateTest, LookupNames) {
  SuperAggKind k;
  EXPECT_TRUE(LookupSuperAggKind("count_distinct", &k));
  EXPECT_EQ(k, SuperAggKind::kCountDistinct);
  EXPECT_TRUE(LookupSuperAggKind("Kth_smallest_value", &k));
  EXPECT_EQ(k, SuperAggKind::kKthSmallest);
  EXPECT_TRUE(LookupSuperAggKind("kth_largest_value", &k));
  EXPECT_EQ(k, SuperAggKind::kKthLargest);
  EXPECT_TRUE(LookupSuperAggKind("sum", &k));
  EXPECT_FALSE(LookupSuperAggKind("median", &k));
}

// ---------- Subset-sum SFUN state unit behaviour ----------

TEST(SubsetSumSfunTest, StateInitCarriesConfigAndRelaxesZ) {
  EnsureBuiltinSfunPackagesRegistered();
  const SfunStateDef* def =
      SfunRegistry::Global().FindState("subsetsum_sampling_state");
  ASSERT_NE(def, nullptr);

  alignas(std::max_align_t) unsigned char old_mem[sizeof(SubsetSumSfunState)];
  alignas(std::max_align_t) unsigned char new_mem[sizeof(SubsetSumSfunState)];
  def->init(old_mem, nullptr, 1);
  auto* old_state = reinterpret_cast<SubsetSumSfunState*>(old_mem);
  old_state->target = 500;
  old_state->beta = 3.0;
  old_state->relax_factor = 10.0;
  old_state->admit.set_z(400.0);

  def->init(new_mem, old_mem, 2);
  auto* new_state = reinterpret_cast<SubsetSumSfunState*>(new_mem);
  EXPECT_EQ(new_state->target, 500u);
  EXPECT_DOUBLE_EQ(new_state->beta, 3.0);
  EXPECT_DOUBLE_EQ(new_state->admit.z(), 40.0);  // 400 / relax_factor
  EXPECT_EQ(new_state->cleanings_this_window, 0u);

  def->destroy(old_mem);
  def->destroy(new_mem);
}

TEST(SubsetSumSfunTest, NonRelaxedCarriesZVerbatim) {
  EnsureBuiltinSfunPackagesRegistered();
  const SfunStateDef* def =
      SfunRegistry::Global().FindState("subsetsum_sampling_state");
  alignas(std::max_align_t) unsigned char old_mem[sizeof(SubsetSumSfunState)];
  alignas(std::max_align_t) unsigned char new_mem[sizeof(SubsetSumSfunState)];
  def->init(old_mem, nullptr, 1);
  auto* old_state = reinterpret_cast<SubsetSumSfunState*>(old_mem);
  old_state->target = 100;
  old_state->relax_factor = 1.0;
  old_state->admit.set_z(250.0);
  def->init(new_mem, old_mem, 2);
  auto* new_state = reinterpret_cast<SubsetSumSfunState*>(new_mem);
  EXPECT_DOUBLE_EQ(new_state->admit.z(), 250.0);
  def->destroy(old_mem);
  def->destroy(new_mem);
}

}  // namespace
}  // namespace streamop
