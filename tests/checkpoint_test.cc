// Durability tests (DESIGN.md §10): serialize/restore round-trips for every
// sampler and sketch, operator-level durable-state round-trips with
// continued-output byte-identity, and the checkpoint manager's corruption
// handling — every torn, bit-flipped or stale snapshot must be detected and
// skipped in favour of the next-oldest valid one, never silently restored.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/serde.h"
#include "core/sampling_operator.h"
#include "engine/checkpoint.h"
#include "engine/load_shed.h"
#include "engine/query_node.h"
#include "engine/runtime.h"
#include "net/packet.h"
#include "net/pcap_format.h"
#include "net/trace_generator.h"
#include "obs/exemplar.h"
#include "query/query.h"
#include "sampling/bernoulli.h"
#include "sampling/distinct.h"
#include "sampling/gk_quantile.h"
#include "sampling/kmv.h"
#include "sampling/lossy_counting.h"
#include "sampling/priority.h"
#include "sampling/reservoir.h"
#include "sampling/subset_sum.h"
#include "sampling/threshold_core.h"
#include "stream/fault_injection.h"
#include "stream/pcap_reader.h"
#include "stream/trace_source.h"
#include "tuple/tuple_batch.h"

namespace streamop {
namespace {

namespace fs = std::filesystem;

// Serialized bytes of any sampler with a SerializeTo hook — the canonical
// state-equality witness (covers RNG stream position, heaps, tables).
template <typename S>
std::string Bytes(const S& s) {
  ByteWriter w;
  s.SerializeTo(w);
  return w.Release();
}

// Round-trip discipline used below: (1) restoring into a differently
// configured instance reproduces the exact serialized state, and (2) both
// instances evolve byte-identically afterwards — the restored sampler
// continues the original's RNG stream, not a fresh one.
template <typename S, typename Evolve>
void ExpectRoundTrip(const S& original, S* target, Evolve evolve) {
  const std::string before = Bytes(original);
  ByteReader r(before);
  target->RestoreFrom(r);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(Bytes(*target), before);

  S continued = original;  // copy: evolve both from the same state
  evolve(&continued);
  evolve(target);
  EXPECT_EQ(Bytes(*target), Bytes(continued));
}

TEST(SamplerSerdeTest, Pcg64ResumesStream) {
  Pcg64 a(42, 7);
  for (int i = 0; i < 100; ++i) a.Next64();
  Pcg64 b(1, 1);
  const std::string state = Bytes(a);
  ByteReader r(state);
  b.RestoreFrom(r);
  ASSERT_TRUE(r.ok());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next64(), b.Next64());
}

TEST(SamplerSerdeTest, ReservoirControl) {
  ReservoirControl a(50, ReservoirControl::Mode::kSkip, 9);
  for (int i = 0; i < 5000; ++i) a.Offer();
  ReservoirControl b(1, ReservoirControl::Mode::kPerRecord, 1);
  ExpectRoundTrip(a, &b, [](ReservoirControl* c) {
    for (int i = 0; i < 3000; ++i) {
      if (c->Offer()) c->ReplaceIndex();
    }
  });
}

TEST(SamplerSerdeTest, ReservoirSampler) {
  ReservoirSampler<uint64_t> a(32, 5);
  for (uint64_t i = 0; i < 2000; ++i) a.Offer(i);
  ReservoirSampler<uint64_t> b(1, 1);
  ExpectRoundTrip(a, &b, [](ReservoirSampler<uint64_t>* s) {
    for (uint64_t i = 2000; i < 5000; ++i) s->Offer(i);
  });
}

TEST(SamplerSerdeTest, CandidateReservoir) {
  CandidateReservoir<uint64_t> a(100, 20.0, 3);
  for (uint64_t i = 0; i < 30000; ++i) a.Offer(i);
  CandidateReservoir<uint64_t> b(1, 2.0, 1);
  ExpectRoundTrip(a, &b, [](CandidateReservoir<uint64_t>* s) {
    for (uint64_t i = 30000; i < 60000; ++i) s->Offer(i);
  });
}

TEST(SamplerSerdeTest, BackoffReservoir) {
  BackoffReservoir<uint64_t> a(100, 20.0, 11);
  for (uint64_t i = 0; i < 30000; ++i) a.Offer(i);
  BackoffReservoir<uint64_t> b(1, 2.0, 1);
  ExpectRoundTrip(a, &b, [](BackoffReservoir<uint64_t>* s) {
    for (uint64_t i = 30000; i < 60000; ++i) s->Offer(i);
  });
}

TEST(SamplerSerdeTest, KMinHashSketch) {
  KMinHashSketch a(64, 17);
  for (uint64_t i = 0; i < 10000; ++i) a.Offer(i * 2654435761u);
  KMinHashSketch b(4, 1);
  {
    const std::string state = Bytes(a);
    ByteReader r(state);
    b.RestoreFrom(r);
    ASSERT_TRUE(r.ok());
    EXPECT_DOUBLE_EQ(a.EstimateDistinctCount(), b.EstimateDistinctCount());
  }
  ExpectRoundTrip(a, &b, [](KMinHashSketch* s) {
    for (uint64_t i = 10000; i < 20000; ++i) s->Offer(i * 2654435761u);
  });
}

TEST(SamplerSerdeTest, GkQuantileSketch) {
  GkQuantileSketch a(0.01);
  Pcg64 rng(1);
  for (int i = 0; i < 20000; ++i) a.Insert(rng.NextDouble() * 1e6);
  GkQuantileSketch b(0.5);
  ExpectRoundTrip(a, &b, [](GkQuantileSketch* s) {
    Pcg64 more(2);
    for (int i = 0; i < 5000; ++i) s->Insert(more.NextDouble() * 1e6);
  });
}

TEST(SamplerSerdeTest, LossyCounting) {
  LossyCounting<uint64_t> a(0.001);
  Pcg64 rng(3);
  for (int i = 0; i < 50000; ++i) a.Offer(rng.NextBounded(200));
  LossyCounting<uint64_t> b(0.5);
  ExpectRoundTrip(a, &b, [](LossyCounting<uint64_t>* s) {
    Pcg64 more(4);
    for (int i = 0; i < 20000; ++i) s->Offer(more.NextBounded(200));
  });
}

TEST(SamplerSerdeTest, BasicSubsetSum) {
  BasicSubsetSumSampler<uint64_t> a(50.0, ThresholdMode::kCounter, 21);
  Pcg64 rng(5);
  for (uint64_t i = 0; i < 20000; ++i) {
    a.Offer(i, static_cast<double>(1 + rng.NextBounded(1500)));
  }
  BasicSubsetSumSampler<uint64_t> b(1.0, ThresholdMode::kCounter, 1);
  ExpectRoundTrip(a, &b, [](BasicSubsetSumSampler<uint64_t>* s) {
    Pcg64 more(6);
    for (uint64_t i = 0; i < 5000; ++i) {
      s->Offer(i, static_cast<double>(1 + more.NextBounded(1500)));
    }
  });
}

TEST(SamplerSerdeTest, DynamicSubsetSum) {
  DynamicSubsetSumSampler<uint64_t>::Options opt;
  opt.target_samples = 200;
  opt.initial_z = 10.0;
  opt.relaxed = true;
  opt.seed = 13;
  DynamicSubsetSumSampler<uint64_t> a(opt);
  Pcg64 rng(7);
  for (uint64_t i = 0; i < 30000; ++i) {
    a.Offer(i, static_cast<double>(1 + rng.NextBounded(1500)));
  }
  DynamicSubsetSumSampler<uint64_t>::Options other;
  other.target_samples = 5;
  DynamicSubsetSumSampler<uint64_t> b(other);
  ExpectRoundTrip(a, &b, [](DynamicSubsetSumSampler<uint64_t>* s) {
    Pcg64 more(8);
    for (uint64_t i = 0; i < 10000; ++i) {
      s->Offer(i, static_cast<double>(1 + more.NextBounded(1500)));
    }
  });
}

TEST(SamplerSerdeTest, BernoulliSampler) {
  BernoulliSampler<uint64_t> a(0.25, 31);
  for (uint64_t i = 0; i < 5000; ++i) a.Offer(i);
  BernoulliSampler<uint64_t> b(0.9, 1);
  ExpectRoundTrip(a, &b, [](BernoulliSampler<uint64_t>* s) {
    for (uint64_t i = 5000; i < 10000; ++i) s->Offer(i);
  });
}

TEST(SamplerSerdeTest, SystematicSampler) {
  SystematicSampler<uint64_t> a(7, 33);
  for (uint64_t i = 0; i < 1000; ++i) a.Offer(i);
  SystematicSampler<uint64_t> b(2, 1);
  ExpectRoundTrip(a, &b, [](SystematicSampler<uint64_t>* s) {
    for (uint64_t i = 1000; i < 2000; ++i) s->Offer(i);
  });
}

TEST(SamplerSerdeTest, PrioritySampler) {
  PrioritySampler<uint64_t> a(64, 37);
  Pcg64 rng(9);
  for (uint64_t i = 0; i < 20000; ++i) {
    a.Offer(i, static_cast<double>(1 + rng.NextBounded(1500)));
  }
  PrioritySampler<uint64_t> b(2, 1);
  ExpectRoundTrip(a, &b, [](PrioritySampler<uint64_t>* s) {
    Pcg64 more(10);
    for (uint64_t i = 0; i < 5000; ++i) {
      s->Offer(i, static_cast<double>(1 + more.NextBounded(1500)));
    }
  });
}

TEST(SamplerSerdeTest, DistinctSampler) {
  DistinctSampler a(256, 41);
  for (uint64_t i = 0; i < 10000; ++i) a.Offer(i % 700);
  DistinctSampler b(4, 1);
  ExpectRoundTrip(a, &b, [](DistinctSampler* s) {
    for (uint64_t i = 0; i < 5000; ++i) s->Offer(i % 900);
  });
}

TEST(SamplerSerdeTest, ThresholdSamplerCore) {
  ThresholdSamplerCore a(25.0, ThresholdMode::kProbabilistic, 43);
  Pcg64 rng(11);
  for (int i = 0; i < 20000; ++i) {
    a.Offer(static_cast<double>(1 + rng.NextBounded(1500)));
  }
  ThresholdSamplerCore b(1.0, ThresholdMode::kCounter, 1);
  ExpectRoundTrip(a, &b, [](ThresholdSamplerCore* s) {
    Pcg64 more(12);
    for (int i = 0; i < 5000; ++i) {
      s->Offer(static_cast<double>(1 + more.NextBounded(1500)));
    }
  });
}

TEST(SamplerSerdeTest, LoadShedController) {
  LoadShedConfig cfg;
  cfg.enabled = true;
  cfg.seed = 47;
  LoadShedController a(cfg);
  for (int i = 0; i < 200; ++i) {
    a.Tick(900 + i % 100, 1000, i % 7);
    for (int j = 0; j < 50; ++j) a.Admit();
  }
  LoadShedConfig other;
  other.enabled = true;
  other.seed = 1;
  LoadShedController b(other);
  const std::string before = Bytes(a);
  ByteReader r(before);
  b.RestoreFrom(r);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Bytes(b), before);
  EXPECT_EQ(a.weight(), b.weight());
  // Continued evolution is identical: same ticks, same admission draws.
  for (int i = 0; i < 50; ++i) {
    a.Tick(500, 1000, 0);
    b.Tick(500, 1000, 0);
    for (int j = 0; j < 20; ++j) EXPECT_EQ(a.Admit(), b.Admit());
  }
  EXPECT_EQ(Bytes(a), Bytes(b));
}

TEST(SamplerSerdeTest, ExemplarStoreRoundTrip) {
  obs::ExemplarStore a(123);
  a.set_enabled(true);
  for (uint64_t i = 0; i < 500; ++i) {
    obs::Exemplar ex;
    ex.ts_ns = i;
    ex.value = static_cast<double>(i);
    ex.dims[0] = i;
    ex.ndims = 1;
    a.Offer(obs::ExemplarStore::kShedDrop, ex);
    a.OfferLatency(i % 8, ex);
  }
  obs::ExemplarStore b(1);
  b.set_enabled(true);
  const std::string before = Bytes(a);
  ByteReader r(before);
  b.RestoreFrom(r);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Bytes(b), before);
}

// --- Operator-level durable state ---------------------------------------

SchemaPtr TestSchema() {
  return std::make_shared<Schema>(
      "S", std::vector<Field>{{"t", FieldType::kUInt, Ordering::kIncreasing},
                              {"k", FieldType::kUInt, Ordering::kNone},
                              {"v", FieldType::kUInt, Ordering::kNone}});
}

Tuple Row(uint64_t t, uint64_t k, uint64_t v) {
  return Tuple({Value::UInt(t), Value::UInt(k), Value::UInt(v)});
}

// SELECT tb, k, sum(v), count(*) FROM S GROUP BY t/10 as tb, k.
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

std::vector<std::string> RowsAsStrings(const std::vector<Tuple>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Tuple& t : rows) {
    std::string s;
    for (size_t i = 0; i < t.size(); ++i) {
      s += t[i].ToString();
      s += '\t';
    }
    out.push_back(std::move(s));
  }
  return out;
}

TEST(OperatorCheckpointTest, MidWindowRoundTripContinuesByteIdentically) {
  auto plan = MakeAggregationPlan();
  SamplingOperator a(plan);
  std::vector<Tuple> prefix, suffix;
  Pcg64 rng(19);
  for (uint64_t i = 0; i < 57; ++i) {
    prefix.push_back(Row(i, rng.NextBounded(5), rng.NextBounded(100)));
  }
  for (uint64_t i = 57; i < 200; ++i) {
    suffix.push_back(Row(i, rng.NextBounded(5), rng.NextBounded(100)));
  }
  for (const Tuple& t : prefix) ASSERT_TRUE(a.Process(t).ok());
  const std::vector<Tuple> already = a.DrainOutput();  // pre-snapshot rows

  ByteWriter w;
  a.SerializeDurableState(w);
  SamplingOperator b(plan);
  ByteReader r(w.data());
  ASSERT_TRUE(b.RestoreDurableState(r));

  // The restored operator continues from the snapshot point: both process
  // the suffix from identical state.
  for (const Tuple& t : suffix) {
    ASSERT_TRUE(a.Process(t).ok());
    ASSERT_TRUE(b.Process(t).ok());
  }
  ASSERT_TRUE(a.FinishStream().ok());
  ASSERT_TRUE(b.FinishStream().ok());

  // b emits nothing for already-flushed windows; output after the snapshot
  // point must be byte-identical to the uninterrupted run's.
  std::vector<Tuple> a_rows = a.DrainOutput();
  std::vector<Tuple> b_rows = b.DrainOutput();
  EXPECT_EQ(RowsAsStrings(a_rows), RowsAsStrings(b_rows));

  // Durable state converges too (same groups, same counters).
  ByteWriter wa, wb;
  a.SerializeDurableState(wa);
  b.SerializeDurableState(wb);
  EXPECT_EQ(wa.data(), wb.data());
}

TEST(OperatorCheckpointTest, StringKeysAndExtremaRoundTripMidWindow) {
  // String group keys and string min/max live out of line in Value; the
  // snapshot must carry them through group keys, membership lists,
  // supergroup order and accumulator extrema, byte for byte.
  auto cq = CompileQuery(
      "SELECT tb, sip, count(*), min(IPSTR(destIP)), max(IPSTR(destIP)) "
      "FROM PKTS GROUP BY time/20 as tb, IPSTR(srcIP) as sip",
      Catalog::Default(), {.seed = 7});
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  auto packet = [](uint64_t time, uint64_t src, uint64_t dst) {
    return Tuple({Value::UInt(time), Value::UInt(time * 1000),
                  Value::UInt(0x0a000000ULL + src),
                  Value::UInt(0xc0a80000ULL + dst), Value::UInt(1234),
                  Value::UInt(80), Value::UInt(6), Value::UInt(40 + dst)});
  };
  std::vector<Tuple> prefix, suffix;
  Pcg64 rng(23);
  for (uint64_t i = 0; i < 600; ++i) {
    Tuple t = packet(100 + i / 10, rng.NextBounded(5), rng.NextBounded(300));
    (i < 257 ? prefix : suffix).push_back(std::move(t));
  }

  SamplingOperator a(cq->sampling);
  for (const Tuple& t : prefix) ASSERT_TRUE(a.Process(t).ok());
  ASSERT_FALSE(a.DrainOutput().empty());  // a window flushed pre-snapshot

  ByteWriter w;
  a.SerializeDurableState(w);
  SamplingOperator b(cq->sampling);
  ByteReader r(w.data());
  ASSERT_TRUE(b.RestoreDurableState(r));
  ByteWriter restored;
  b.SerializeDurableState(restored);
  EXPECT_EQ(restored.data(), w.data());

  for (const Tuple& t : suffix) {
    ASSERT_TRUE(a.Process(t).ok());
    ASSERT_TRUE(b.Process(t).ok());
  }
  ASSERT_TRUE(a.FinishStream().ok());
  ASSERT_TRUE(b.FinishStream().ok());

  std::vector<Tuple> a_rows = a.DrainOutput();
  std::vector<Tuple> b_rows = b.DrainOutput();
  ASSERT_FALSE(a_rows.empty());
  ASSERT_EQ(a_rows.front()[1].type(), FieldType::kString);
  ASSERT_EQ(a_rows.front()[3].type(), FieldType::kString);
  EXPECT_EQ(a_rows, b_rows);
  EXPECT_EQ(RowsAsStrings(a_rows), RowsAsStrings(b_rows));

  ByteWriter wa, wb;
  a.SerializeDurableState(wa);
  b.SerializeDurableState(wb);
  EXPECT_EQ(wa.data(), wb.data());
}

TEST(OperatorCheckpointTest, RestoreRejectsMismatchedPlan) {
  SamplingOperator a(MakeAggregationPlan());
  for (uint64_t i = 0; i < 20; ++i) ASSERT_TRUE(a.Process(Row(i, 1, 2)).ok());
  ByteWriter w;
  a.SerializeDurableState(w);

  // A plan with a different aggregate list must refuse the snapshot.
  auto other = MakeAggregationPlan();
  other->aggregates.pop_back();
  other->select_exprs.pop_back();
  other->output_names.pop_back();
  SamplingOperator b(other);
  ByteReader r(w.data());
  EXPECT_FALSE(b.RestoreDurableState(r));

  // The rejecting operator still works from scratch.
  ASSERT_TRUE(b.Process(Row(1, 1, 2)).ok());
  ASSERT_TRUE(b.FinishStream().ok());
  EXPECT_EQ(b.DrainOutput().size(), 1u);
}

// Every `stride`-th packet of `trace`, as PKTS tuples.
std::vector<Tuple> TraceSlice(const Trace& trace, size_t stride) {
  std::vector<Tuple> rows;
  for (size_t i = 0; i < trace.size(); i += stride) {
    rows.push_back(PacketToTuple(trace.at(i)));
  }
  return rows;
}

TEST(OperatorCheckpointTest, RestoreRejectsAnotherAggregateKind) {
  // Same arities, so the plan fingerprint matches; the accumulators'
  // encoded kind (and param) must not. The restoring operator comes back
  // empty, as after any rejected snapshot.
  auto compile = [](const char* aggs) {
    auto cq = CompileQuery(std::string("SELECT tb, srcIP, ") + aggs +
                               " FROM PKT GROUP BY time/5 as tb, srcIP",
                           Catalog::Default(), {.seed = 1});
    EXPECT_TRUE(cq.ok()) << cq.status().ToString();
    return cq->sampling;
  };
  const std::vector<Tuple> rows =
      TraceSlice(TraceGenerator::MakeDataCenterFeed(2.0, 1), 40);
  SamplingOperator a(compile("count(*), sum(len), quantile(len, 0.9)"));
  for (size_t i = 0; i < rows.size() / 2; ++i) {
    ASSERT_TRUE(a.Process(rows[i]).ok());
  }
  ASSERT_GT(a.num_groups(), 0u);
  ByteWriter w;
  a.SerializeDurableState(w);
  for (const char* other : {"count(*), max(len), quantile(len, 0.9)",
                            "count(*), avg(len), quantile(len, 0.9)",
                            "count(*), sum(len), quantile(len, 0.5)"}) {
    SCOPED_TRACE(other);
    SamplingOperator b(compile(other));
    ByteReader r(w.data());
    EXPECT_FALSE(b.RestoreDurableState(r));
    EXPECT_EQ(b.num_groups(), 0u);
  }
  SamplingOperator same(compile("count(*), sum(len), quantile(len, 0.9)"));
  ByteReader r(w.data());
  EXPECT_TRUE(same.RestoreDurableState(r));
  EXPECT_EQ(same.num_groups(), a.num_groups());
}

TEST(OperatorCheckpointTest, RestoreRejectsAnotherPlanOfTheSameShape) {
  // Every variant has the snapshot's clause arities, aggregate kinds and
  // seed; only the analyzed expressions differ. Restored, the first would
  // emit the snapshot's source addresses as destinations, the second
  // would add ports to byte sums.
  auto compile = [](const std::string& sql) {
    auto cq = CompileQuery(sql, Catalog::Default(), {.seed = 1});
    EXPECT_TRUE(cq.ok()) << sql << ": " << cq.status().ToString();
    return cq->sampling;
  };
  auto snapshot_of = [&](const std::string& sql, size_t* groups) {
    const std::vector<Tuple> rows =
        TraceSlice(TraceGenerator::MakeDataCenterFeed(7.0, 1), 40);
    SamplingOperator a(compile(sql));
    for (size_t i = 0; i < rows.size() * 7 / 10; ++i) {
      EXPECT_TRUE(a.Process(rows[i]).ok());
    }
    *groups = a.num_groups();
    ByteWriter w;
    a.SerializeDurableState(w);
    return w.Release();
  };
  auto expect_only_itself = [&](const std::string& sql,
                                const std::vector<std::string>& others) {
    SCOPED_TRACE(sql);
    size_t groups = 0;
    const std::string bytes = snapshot_of(sql, &groups);
    ASSERT_GT(groups, 0u);
    for (const std::string& other : others) {
      SCOPED_TRACE(other);
      SamplingOperator b(compile(other));
      ByteReader r(bytes);
      EXPECT_FALSE(b.RestoreDurableState(r));
      EXPECT_EQ(b.num_groups(), 0u);
    }
    SamplingOperator same(compile(sql));
    ByteReader r(bytes);
    EXPECT_TRUE(same.RestoreDurableState(r));
    EXPECT_EQ(same.num_groups(), groups);
  };

  // replay_agg's query, mid-window (the frozen case (a) snapshot below).
  const std::string select = "SELECT tb, srcIP, count(*), sum(len) FROM PKT ";
  const std::string group_by = "GROUP BY time/5 as tb, srcIP";
  expect_only_itself(
      select + group_by,
      {"SELECT tb, destIP, count(*), sum(len) FROM PKT "
       "GROUP BY time/5 as tb, destIP",
       "SELECT tb, srcIP, count(*), sum(srcPort) FROM PKT " + group_by,
       "SELECT tb, srcIP, count(*), sum(len) FROM PKT "
       "GROUP BY time/10 as tb, srcIP",
       select + "WHERE len > 100 " + group_by,
       select + group_by + " HAVING count(*) > 1",
       "SELECT tb, srcIP, count(*), sum(len) / 2 FROM PKT " + group_by});
  // Supergroup slots and the cleaning clauses.
  const std::string sg_select =
      "SELECT tb, srcIP, destIP, count(*), count$(*) FROM PKT "
      "GROUP BY time/5 as tb, srcIP, destIP ";
  const std::string cleaning =
      " CLEANING WHEN count_distinct$(*) >= 50 CLEANING BY count(*) > 1";
  expect_only_itself(
      sg_select + "SUPERGROUP BY tb, srcIP" + cleaning,
      {sg_select + "SUPERGROUP BY tb, destIP" + cleaning,
       sg_select + "SUPERGROUP BY tb, srcIP" +
           " CLEANING WHEN count_distinct$(*) >= 60 CLEANING BY count(*) > 1",
       sg_select + "SUPERGROUP BY tb, srcIP" +
           " CLEANING WHEN count_distinct$(*) >= 50 CLEANING BY count(*) > 2"});
}

TEST(OperatorCheckpointTest, RestoreRejectsCorruptPayloadWithoutCrashing) {
  SamplingOperator a(MakeAggregationPlan());
  Pcg64 rng(23);
  for (uint64_t i = 0; i < 95; ++i) {
    ASSERT_TRUE(
        a.Process(Row(i, rng.NextBounded(5), rng.NextBounded(100))).ok());
  }
  ByteWriter w;
  a.SerializeDurableState(w);
  std::string payload = w.Release();

  // Truncations at every prefix length and scattered bit flips must fail
  // the restore (sticky-failure reader + count guards), never crash, and
  // leave the operator in a clean, usable state.
  SamplingOperator b(MakeAggregationPlan());
  for (size_t cut = 0; cut < payload.size(); cut += 97) {
    ByteReader r(payload.data(), cut);
    EXPECT_FALSE(b.RestoreDurableState(r)) << "cut at " << cut;
  }
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    std::string bad = payload;
    Pcg64 flip(seed);
    const size_t bit = flip.NextBounded(bad.size() * 8);
    bad[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(bad[bit / 8]) ^ (1u << (bit % 8)));
    ByteReader r(bad);
    b.RestoreDurableState(r);  // may succeed only if the flip was benign
  }
  ByteReader good(payload);
  ASSERT_TRUE(b.RestoreDurableState(good));
  ASSERT_TRUE(b.Process(Row(200, 1, 2)).ok());
  ASSERT_TRUE(b.FinishStream().ok());
}

TEST(OperatorCheckpointTest, SfunQueryRoundTripMatchesUninterruptedRun) {
  // The full SFUN path: subset-sum sampling with threshold state, cleaning
  // phases and supergroup hand-off, from compiled SQL over a real trace.
  Trace trace = TraceGenerator::MakeResearchFeed(31.0, 42);
  auto cq = CompileQuery(R"(
      SELECT tb, srcIP, destIP, UMAX(sum(len), ssthreshold())
      FROM PKTS
      WHERE ssample(len, 500, 2, 10) = TRUE
      GROUP BY time/10 as tb, srcIP, destIP, ts_ns
      HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
      CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
      CLEANING BY ssclean_with(sum(len)) = TRUE
  )",
                         Catalog::Default(), {.seed = 7});
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();

  QueryNode node_a("a", *cq);
  QueryNode node_b("b", *cq);
  SamplingOperator* a = node_a.sampling_operator();
  SamplingOperator* b = node_b.sampling_operator();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  std::vector<Tuple> rows;
  for (const PacketRecord& p : trace.packets()) {
    rows.push_back(PacketToTuple(p));
  }
  const size_t half = rows.size() / 2;
  for (size_t i = 0; i < half; ++i) ASSERT_TRUE(a->Process(rows[i]).ok());
  ByteWriter w;
  a->SerializeDurableState(w);
  ByteReader r(w.data());
  ASSERT_TRUE(b->RestoreDurableState(r));
  EXPECT_EQ(b->restore_states_skipped(), 0u)
      << "every SFUN must have serialize/restore hooks";

  for (size_t i = half; i < rows.size(); ++i) {
    ASSERT_TRUE(a->Process(rows[i]).ok());
    ASSERT_TRUE(b->Process(rows[i]).ok());
  }
  ASSERT_TRUE(a->FinishStream().ok());
  ASSERT_TRUE(b->FinishStream().ok());

  std::vector<Tuple> a_all = a->DrainOutput();
  std::vector<Tuple> b_rows = b->DrainOutput();
  // a's output spans the whole stream; b's only the windows flushed after
  // the snapshot point. b's rows must be a byte-identical suffix of a's.
  ASSERT_LE(b_rows.size(), a_all.size());
  std::vector<Tuple> a_tail(a_all.end() - b_rows.size(), a_all.end());
  EXPECT_EQ(RowsAsStrings(a_tail), RowsAsStrings(b_rows));
}

TEST(OperatorCheckpointTest, DeadGroupsOfAFailedCleaningPhaseRoundTrip) {
  // CLEANING BY removes sources 1 and 2, then fails on source 3 (a
  // division by zero), so the phase ends before it compacts the
  // membership list: the list still names the two removed groups. Source
  // 1 then arrives again and is re-created. The snapshot must carry the
  // list as it is (keys 1, 2, 3, 1), the restored operator must write
  // the same bytes, and the window must emit each live group once.
  auto cq = CompileQuery(
      "SELECT tb, srcIP, count(*) FROM PKTS GROUP BY time/60 as tb, srcIP "
      "CLEANING WHEN count_distinct$(*) >= 3 "
      "CLEANING BY 100 / (srcIP - 3) > 10",
      Catalog::Default(), {.seed = 5});
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  auto packet = [](uint64_t time, uint64_t src) {
    return Tuple({Value::UInt(time), Value::UInt(time * 1000),
                  Value::UInt(src), Value::UInt(7), Value::UInt(1234),
                  Value::UInt(80), Value::UInt(6), Value::UInt(100)});
  };
  SamplingOperator a(cq->sampling);
  ASSERT_TRUE(a.Process(packet(100, 1)).ok());
  ASSERT_TRUE(a.Process(packet(100, 2)).ok());
  EXPECT_FALSE(a.Process(packet(100, 3)).ok());  // the phase fails on 3
  EXPECT_EQ(a.num_groups(), 1u);
  ASSERT_TRUE(a.Process(packet(101, 1)).ok());  // 1 is created again
  EXPECT_EQ(a.num_groups(), 2u);

  ByteWriter w;
  a.SerializeDurableState(w);
  SamplingOperator b(cq->sampling);
  ByteReader r(w.data());
  ASSERT_TRUE(b.RestoreDurableState(r));
  ByteWriter again;
  b.SerializeDurableState(again);
  EXPECT_EQ(again.data(), w.data());

  for (SamplingOperator* op : {&a, &b}) {
    ASSERT_TRUE(op->Process(packet(200, 9)).ok());  // closes the window
    ASSERT_TRUE(op->FinishStream().ok());
  }
  const std::vector<Tuple> a_rows = a.DrainOutput();
  EXPECT_EQ(RowsAsStrings(b.DrainOutput()), RowsAsStrings(a_rows));
  std::vector<uint64_t> first_window;
  for (const Tuple& t : a_rows) {
    if (t[0].AsUInt() == 1) first_window.push_back(t[1].AsUInt());
  }
  EXPECT_EQ(first_window, (std::vector<uint64_t>{3, 1}));
}

// --- Frozen snapshot bytes ------------------------------------------------
//
// The round trips above compare a snapshot with its own re-serialization,
// so they would still pass if the encoding drifted. The digests below pin
// the SerializeDurableState bytes themselves: cases (a)-(d) were recorded
// at commit 3d853c4, before the operator's group state moved into one arena,
// and case (e) at 3c09aaa, before the accumulators became per-kind state
// (see CHANGES.md), with
//   ctest --test-dir build -R SnapshotBytesMatchFrozenDigests
// and any change to them is a snapshot format change. One such change
// re-pinned them all: the plan fingerprint (CheckpointManager::kVersion 2)
// inserted 8 bytes after the seed, at offset 28, and the bytes with those
// 8 removed still gave the digests recorded before it.

// FNV-1a 64 of the bytes, as hex (batch_equivalence_test's Digest).
std::string SnapshotDigest(const std::string& bytes) {
  uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// A snapshot taken while feeding a stream one tuple at a time.
struct TakenSnapshot {
  std::string what;
  size_t next_row = 0;      // first row the restored operator must see
  size_t rows_emitted = 0;  // output rows of the run up to the snapshot
  std::string bytes;
};

// Feeds `rows` to a fresh operator and snapshots it right after its
// `cleaning_at`-th group-removing cleaning phase (0: none), right after its
// first window boundary, and right after row `mid_row` (0: none). Checks
// every snapshot against its frozen digest, restores it into a fresh
// operator, and requires byte-identical re-serialization and the run's
// remaining output. Row i is fed at weight `weight_of(i)` (1.0 if null).
void ExpectFrozenSnapshots(const CompiledQuery& cq,
                           const std::vector<Tuple>& rows, size_t cleaning_at,
                           size_t mid_row, const char* cleaning_digest,
                           const char* boundary_digest,
                           const char* mid_digest,
                           double (*weight_of)(size_t) = nullptr) {
  auto weight = [weight_of](size_t i) {
    return weight_of != nullptr ? weight_of(i) : 1.0;
  };
  SamplingOperator a(cq.sampling);
  std::vector<TakenSnapshot> taken;
  auto take = [&](const char* what, size_t next_row) {
    TakenSnapshot s;
    s.what = what;
    s.next_row = next_row;
    s.rows_emitted = a.output_size();
    ByteWriter w;
    a.SerializeDurableState(w);
    s.bytes = w.Release();
    taken.push_back(std::move(s));
  };
  size_t cleanings = 0;
  bool boundary_taken = false;
  for (size_t i = 0; i < rows.size(); ++i) {
    const size_t windows_before = a.window_stats().size();
    const size_t groups_before = a.num_groups();
    ASSERT_TRUE(a.Process(rows[i], weight(i)).ok()) << "row " << i;
    if (a.window_stats().size() != windows_before) {
      if (!boundary_taken) take("boundary", i + 1);
      boundary_taken = true;
    } else if (a.num_groups() < groups_before && ++cleanings == cleaning_at) {
      take("cleaning", i + 1);
    }
    if (mid_row != 0 && i + 1 == mid_row) take("mid-window", i + 1);
  }
  ASSERT_TRUE(a.FinishStream().ok());
  const std::vector<std::string> all_rows = RowsAsStrings(a.DrainOutput());

  std::vector<std::pair<std::string, const char*>> want;
  if (cleaning_at != 0) want.emplace_back("cleaning", cleaning_digest);
  want.emplace_back("boundary", boundary_digest);
  if (mid_row != 0) want.emplace_back("mid-window", mid_digest);
  for (const auto& [what, digest] : want) {
    auto it = std::find_if(taken.begin(), taken.end(),
                           [&](const TakenSnapshot& s) {
                             return s.what == what;
                           });
    ASSERT_NE(it, taken.end()) << "no " << what << " snapshot was taken";
    EXPECT_EQ(SnapshotDigest(it->bytes), digest) << what;

    SamplingOperator b(cq.sampling);
    ByteReader r(it->bytes);
    ASSERT_TRUE(b.RestoreDurableState(r)) << what;
    EXPECT_EQ(r.remaining(), 0u) << what;
    ByteWriter again;
    b.SerializeDurableState(again);
    EXPECT_EQ(again.data(), it->bytes) << what << ": re-serialization";
    for (size_t i = it->next_row; i < rows.size(); ++i) {
      ASSERT_TRUE(b.Process(rows[i], weight(i)).ok()) << what << " row " << i;
    }
    ASSERT_TRUE(b.FinishStream().ok());
    const std::vector<std::string> tail(
        all_rows.begin() + static_cast<ptrdiff_t>(it->rows_emitted),
        all_rows.end());
    EXPECT_EQ(RowsAsStrings(b.DrainOutput()), tail) << what;
  }
}

TEST(OperatorCheckpointTest, SnapshotBytesMatchFrozenDigests) {
  // Snapshots carry window_seq_, which a STREAMOP_NO_STATS build does not
  // count, so that build writes other (equally valid) bytes.
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  // (a) replay_agg's query over a data-center slice: no cleaning, so a
  // mid-window snapshot pins a full group table.
  {
    SCOPED_TRACE("replay_agg");
    auto cq = CompileQuery(
        "SELECT tb, srcIP, count(*), sum(len) FROM PKT "
        "GROUP BY time/5 as tb, srcIP",
        Catalog::Default(), {.seed = 1});
    ASSERT_TRUE(cq.ok()) << cq.status().ToString();
    const std::vector<Tuple> rows =
        TraceSlice(TraceGenerator::MakeDataCenterFeed(7.0, 1), 40);
    ExpectFrozenSnapshots(*cq, rows, 0, rows.size() * 7 / 10, nullptr,
                          "f64f38e88a1c6681", "9c07390f5e99265a");
  }
  // (b) the paper's subset-sum query with one sampler per source, at a
  // target of one sample: by its 40th group-removing cleaning phase the
  // open window has re-created a removed group and emptied the membership
  // lists of several supergroups.
  {
    SCOPED_TRACE("subset_sum");
    auto cq = CompileQuery(R"(
        SELECT tb, srcIP, destIP, UMAX(sum(len), ssthreshold())
        FROM PKTS
        WHERE ssample(len, 1, 2, 1) = TRUE
        GROUP BY time/2 as tb, srcIP, destIP
        SUPERGROUP BY tb, srcIP
        HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
        CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
        CLEANING BY ssclean_with(sum(len)) = TRUE
    )",
                           Catalog::Default(), {.seed = 5});
    ASSERT_TRUE(cq.ok()) << cq.status().ToString();
    const std::vector<Tuple> rows =
        TraceSlice(TraceGenerator::MakeResearchFeed(5.0, 11), 4);
    ExpectFrozenSnapshots(*cq, rows, 40, 0, "12ecc7ee40ee5a03",
                          "feee107c473f87fe", nullptr);
  }
  // (c) integration_test's min-hash query: kth_smallest$ per source, with
  // CLEANING, over three sources and two window boundaries.
  {
    SCOPED_TRACE("min_hash");
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
                           Catalog::Default(), {.seed = 3});
    ASSERT_TRUE(cq.ok()) << cq.status().ToString();
    std::vector<PacketRecord> packets;
    Pcg64 rng(47);
    for (int i = 0; i < 9000; ++i) {
      PacketRecord p{};
      p.ts_ns = static_cast<uint64_t>(i) * 14000000ULL;  // 126 s in all
      p.src_ip = 0x0a000001 + static_cast<uint32_t>(rng.NextBounded(3));
      p.dst_ip = 0xc0a80000 + static_cast<uint32_t>(rng.NextBounded(1000));
      p.len = 100;
      p.proto = kProtoTcp;
      packets.push_back(p);
    }
    const std::vector<Tuple> rows = TraceSlice(Trace(std::move(packets)), 1);
    ExpectFrozenSnapshots(*cq, rows, 5, 0, "ba4300caa1aad4bb",
                          "598e16d0bacf256f", nullptr);
  }
  // (d) string keys, string extrema and a GK quantile sketch.
  {
    SCOPED_TRACE("strings_and_quantile");
    auto cq = CompileQuery(
        "SELECT tb, sip, count(*), min(IPSTR(destIP)), max(IPSTR(destIP)), "
        "quantile(len, 0.9) FROM PKTS "
        "GROUP BY time/20 as tb, IPSTR(srcIP) as sip",
        Catalog::Default(), {.seed = 9});
    ASSERT_TRUE(cq.ok()) << cq.status().ToString();
    const std::vector<Tuple> rows =
        TraceSlice(TraceGenerator::MakeResearchFeed(33.0, 13), 40);
    ExpectFrozenSnapshots(*cq, rows, 0, rows.size() * 5 / 6, nullptr,
                          "62c2011a37ca3d86", "1cf5435474d21250");
  }
  // (e) every aggregate kind, fed in runs of 64 rows alternately at weight
  // 1.0 and 2.5, so `weighted` flips inside groups, weight_sum departs
  // from count and the sums leave UInt.
  {
    SCOPED_TRACE("all_kinds_weighted");
    auto cq = CompileQuery(
        "SELECT tb, proto, count(*), count(len), sum(len), avg(len), "
        "min(srcPort), max(len), first(destPort), last(srcIP), median(len) "
        "FROM PKT GROUP BY time/5 as tb, proto",
        Catalog::Default(), {.seed = 4});
    ASSERT_TRUE(cq.ok()) << cq.status().ToString();
    const std::vector<Tuple> rows =
        TraceSlice(TraceGenerator::MakeDataCenterFeed(7.0, 2), 40);
    ExpectFrozenSnapshots(
        *cq, rows, 0, rows.size() * 7 / 10, nullptr, "a7cf9f5b069fbe0b",
        "017b0bee9f20de2a",
        [](size_t i) { return (i / 64) % 2 == 0 ? 1.0 : 2.5; });
  }
}

// --- Checkpoint manager: framing, corruption, retention ------------------

class CheckpointDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("ckpt_" + std::string(::testing::UnitTest::GetInstance()
                                      ->current_test_info()
                                      ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  CheckpointConfig Config() {
    CheckpointConfig cfg;
    cfg.dir = dir_.string();
    cfg.node = "node";
    cfg.retry_backoff_ms = 0;
    return cfg;
  }

  size_t NumSnapshots() const {
    size_t n = 0;
    for (const auto& e : fs::directory_iterator(dir_)) {
      if (e.path().filename().string().find(".ckpt.") != std::string::npos) {
        ++n;
      }
    }
    return n;
  }

  std::string NewestSnapshotPath() const {
    std::string best;
    for (const auto& e : fs::directory_iterator(dir_)) {
      const std::string p = e.path().string();
      if (p.find(".ckpt.") == std::string::npos) continue;
      if (p > best) best = p;
    }
    return best;
  }

  fs::path dir_;
};

TEST_F(CheckpointDirTest, FrameVerifyRoundTrip) {
  const std::string payload = "the quick brown fox";
  const std::string framed = CheckpointManager::FrameSnapshot(42, payload);
  ASSERT_EQ(framed.size(), CheckpointManager::kHeaderSize + payload.size());
  LoadedCheckpoint out;
  std::string why;
  ASSERT_TRUE(CheckpointManager::VerifySnapshot(framed, &out, &why)) << why;
  EXPECT_EQ(out.payload, payload);
  EXPECT_EQ(out.windows_flushed, 42u);
}

TEST_F(CheckpointDirTest, CreatesMissingDirectory) {
  // A checkpoint dir that does not exist yet (fresh deploy, `--checkpoint-
  // dir` pointing at a new path) is created on first write, nested
  // components included — only an *unwritable* dir degrades.
  CheckpointConfig cfg = Config();
  cfg.dir = (dir_ / "auto" / "nested").string();
  CheckpointManager mgr(cfg);
  ASSERT_TRUE(mgr.Write(1, "state-at-1"));
  EXPECT_FALSE(mgr.degraded());
  auto loaded = mgr.LoadLatest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->payload, "state-at-1");
}

TEST_F(CheckpointDirTest, WriteThenLoadLatest) {
  CheckpointManager mgr(Config());
  ASSERT_TRUE(mgr.Write(1, "state-at-1"));
  ASSERT_TRUE(mgr.Write(2, "state-at-2"));
  EXPECT_EQ(mgr.writes(), 2u);
  EXPECT_GT(mgr.last_bytes(), 0u);
  auto loaded = mgr.LoadLatest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->windows_flushed, 2u);
  EXPECT_EQ(loaded->payload, "state-at-2");
  EXPECT_EQ(mgr.corrupt_skipped(), 0u);
}

TEST_F(CheckpointDirTest, EveryTruncationIsDetected) {
  CheckpointManager mgr(Config());
  ASSERT_TRUE(mgr.Write(1, std::string(2000, 'x')));
  const std::string path = NewestSnapshotPath();
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    fs::copy_file(path, path + ".orig",
                  fs::copy_options::overwrite_existing);
    ASSERT_TRUE(
        InjectCheckpointFault(path, CheckpointFault::kTruncate, seed));
    auto loaded = mgr.LoadLatest();
    EXPECT_FALSE(loaded.has_value()) << "seed " << seed;
    fs::copy_file(path + ".orig", path,
                  fs::copy_options::overwrite_existing);
  }
  EXPECT_EQ(mgr.corrupt_skipped(), 25u);
  EXPECT_TRUE(mgr.LoadLatest().has_value());  // pristine copy still loads
}

TEST_F(CheckpointDirTest, EveryBitFlipIsDetected) {
  CheckpointManager mgr(Config());
  ASSERT_TRUE(mgr.Write(1, std::string(2000, 'y')));
  const std::string path = NewestSnapshotPath();
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    fs::copy_file(path, path + ".orig",
                  fs::copy_options::overwrite_existing);
    ASSERT_TRUE(InjectCheckpointFault(path, CheckpointFault::kBitFlip, seed));
    EXPECT_FALSE(mgr.LoadLatest().has_value()) << "seed " << seed;
    fs::copy_file(path + ".orig", path,
                  fs::copy_options::overwrite_existing);
  }
  EXPECT_EQ(mgr.corrupt_skipped(), 50u);
}

TEST_F(CheckpointDirTest, StaleVersionIsSkippedNotRestored) {
  CheckpointManager mgr(Config());
  ASSERT_TRUE(mgr.Write(1, "future-format"));
  const std::string path = NewestSnapshotPath();
  ASSERT_TRUE(
      InjectCheckpointFault(path, CheckpointFault::kStaleVersion, 7));

  // Both CRCs still verify, so the only possible rejection is the version
  // check — assert the reason explicitly through VerifySnapshot.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    bytes = ss.str();
  }
  LoadedCheckpoint out;
  std::string why;
  EXPECT_FALSE(CheckpointManager::VerifySnapshot(bytes, &out, &why));
  EXPECT_EQ(why, "version mismatch");
  EXPECT_FALSE(mgr.LoadLatest().has_value());
  EXPECT_EQ(mgr.corrupt_skipped(), 1u);
}

TEST_F(CheckpointDirTest, CorruptNewestFallsBackToOlderValid) {
  CheckpointManager mgr(Config());
  ASSERT_TRUE(mgr.Write(1, "one"));
  ASSERT_TRUE(mgr.Write(2, "two"));
  ASSERT_TRUE(mgr.Write(3, "three"));
  ASSERT_TRUE(
      InjectCheckpointFault(NewestSnapshotPath(), CheckpointFault::kBitFlip,
                            3));
  auto loaded = mgr.LoadLatest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->windows_flushed, 2u);
  EXPECT_EQ(loaded->payload, "two");
  EXPECT_EQ(mgr.corrupt_skipped(), 1u);
}

TEST_F(CheckpointDirTest, AllSnapshotsCorruptMeansFreshStart) {
  CheckpointManager mgr(Config());
  ASSERT_TRUE(mgr.Write(1, "one"));
  ASSERT_TRUE(mgr.Write(2, "two"));
  for (const auto& e : fs::directory_iterator(dir_)) {
    ASSERT_TRUE(InjectCheckpointFault(e.path().string(),
                                      CheckpointFault::kTruncate, 5));
  }
  EXPECT_FALSE(mgr.LoadLatest().has_value());
  EXPECT_EQ(mgr.corrupt_skipped(), 2u);
}

TEST_F(CheckpointDirTest, RetentionKeepsNewestK) {
  CheckpointConfig cfg = Config();
  cfg.retain = 2;
  CheckpointManager mgr(cfg);
  for (uint64_t wdw = 1; wdw <= 6; ++wdw) {
    ASSERT_TRUE(mgr.Write(wdw, "w" + std::to_string(wdw)));
  }
  EXPECT_EQ(NumSnapshots(), 2u);
  auto loaded = mgr.LoadLatest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->windows_flushed, 6u);
}

TEST_F(CheckpointDirTest, CadenceEveryNWindows) {
  CheckpointConfig cfg = Config();
  cfg.every_n_windows = 3;
  CheckpointManager mgr(cfg);
  EXPECT_FALSE(mgr.ShouldWrite(1));
  EXPECT_FALSE(mgr.ShouldWrite(2));
  EXPECT_TRUE(mgr.ShouldWrite(3));
  EXPECT_FALSE(mgr.ShouldWrite(4));
  EXPECT_TRUE(mgr.ShouldWrite(6));
}

TEST_F(CheckpointDirTest, UnwritableDirDegradesWithoutAborting) {
  // A merely *missing* dir is auto-created; to make one genuinely
  // unwritable (even for root) put a regular file where a path component
  // must go — mkdir then fails with ENOTDIR.
  { std::ofstream blocker(dir_ / "blocker"); }
  CheckpointConfig cfg = Config();
  cfg.dir = (dir_ / "blocker" / "sub").string();
  cfg.max_retries = 2;
  CheckpointManager mgr(cfg);
  EXPECT_FALSE(mgr.Write(1, "doomed"));
  EXPECT_TRUE(mgr.degraded());
  EXPECT_EQ(mgr.failures(), 1u);
  EXPECT_EQ(mgr.writes(), 0u);
  // Repeated failures keep counting; the manager never throws or exits.
  EXPECT_FALSE(mgr.Write(2, "doomed"));
  EXPECT_EQ(mgr.failures(), 2u);
}

TEST_F(CheckpointDirTest, SuccessfulWriteClearsDegraded) {
  // Start degraded (a file blocks the checkpoint path), then clear the
  // blockage: the degraded flag is sticky only until the first good write.
  { std::ofstream blocker(dir_ / "blocker"); }
  CheckpointConfig bad = Config();
  bad.dir = (dir_ / "blocker" / "sub").string();
  bad.max_retries = 0;
  CheckpointManager mgr_bad(bad);
  EXPECT_FALSE(mgr_bad.Write(1, "x"));
  EXPECT_TRUE(mgr_bad.degraded());

  fs::remove(dir_ / "blocker");
  EXPECT_TRUE(mgr_bad.Write(2, "x"));
  EXPECT_FALSE(mgr_bad.degraded());
}

TEST_F(CheckpointDirTest, DisabledManagerIsInert) {
  CheckpointConfig cfg;  // empty dir: disabled
  CheckpointManager mgr(cfg);
  EXPECT_FALSE(mgr.enabled());
  EXPECT_FALSE(mgr.ShouldWrite(1));
  EXPECT_FALSE(mgr.Write(1, "x"));
  EXPECT_FALSE(mgr.LoadLatest().has_value());
}

// --- Runtime resume: every snapshot is bound to a source offset ----------

constexpr char kPassThroughLow[] =
    "SELECT time, ts_ns, srcIP, destIP, srcPort, destPort, proto, len "
    "FROM PKT";

constexpr char kAggQuery[] =
    "SELECT tb, srcIP, count(*), sum(len) FROM PKT GROUP BY time/5 as tb, "
    "srcIP";

// The same aggregate over windows four times as long.
constexpr char kSlowAggQuery[] =
    "SELECT tb, srcIP, count(*), sum(len) FROM PKT GROUP BY time/20 as tb, "
    "srcIP";

// The paper's dynamic subset-sum query: resuming it byte-identically needs
// the sampler's threshold and RNG state to line up with the source offset.
constexpr char kSubsetSumQuery[] = R"(
    SELECT tb, srcIP, destIP, UMAX(sum(len), ssthreshold())
    FROM PKTS
    WHERE ssample(len, 500, 2, 10) = TRUE
    GROUP BY time/5 as tb, srcIP, destIP, ts_ns
    HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
    CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
    CLEANING BY ssclean_with(sum(len)) = TRUE
)";

// A trace source that fails the way a real one can: Open() fails
// `failed_opens` times, and once `crash_at` records have been read the
// reads end in an error, as a crash there would: the run stops without
// flushing its open windows and leaves the snapshots written so far.
class FlakyTraceSource : public TraceSource {
 public:
  FlakyTraceSource(const Trace* trace, uint64_t crash_at, int failed_opens)
      : TraceSource(trace), crash_at_(crash_at), failed_opens_(failed_opens) {}

  Status Open() override {
    if (failed_opens_ > 0) {
      --failed_opens_;
      return Status::IOError("simulated open failure");
    }
    return TraceSource::Open();
  }
  ReadResult Read(PacketRecord* buf, size_t max, size_t* n_out) override {
    if (pos_ >= crash_at_) {
      *n_out = 0;
      return ReadResult::kEnd;
    }
    return TraceSource::Read(buf, std::min<uint64_t>(max, crash_at_ - pos_),
                             n_out);
  }
  Status last_status() const override {
    return pos_ >= crash_at_ ? Status::IOError("simulated crash")
                             : Status::OK();
  }

 private:
  uint64_t crash_at_;
  int failed_opens_;
};

class RuntimeResumeTest : public CheckpointDirTest {
 protected:
  RuntimeOptions Checkpointed() const {
    RuntimeOptions opt;
    opt.checkpoint.dir = dir_.string();
    opt.checkpoint.every_n_windows = 1;
    opt.checkpoint.retain = 100;  // keep every window's snapshot
    return opt;
  }

  // Runs the pipeline from the start of `trace` and crashes after 2/5 of
  // it, leaving the snapshots of the windows that closed before.
  static void CrashMidStream(const CompiledQuery& low,
                             const std::vector<CompiledQuery>& high,
                             const Trace& trace, const RuntimeOptions& opt) {
    TwoLevelRuntime rt(low, high, opt);
    FlakyTraceSource source(&trace, trace.size() * 2 / 5, 0);
    EXPECT_FALSE(rt.RunSource(source).ok());
    ASSERT_EQ(rt.last_report().sources.size(), 1u);
    EXPECT_FALSE(rt.last_report().sources[0].resumed_from_offset);
    EXPECT_GT(rt.last_report().checkpoints_written, 0u);
  }

  // `resumed` is a non-empty suffix of the uninterrupted `reference`.
  static void ExpectSuffix(const std::vector<std::string>& resumed,
                           const std::vector<std::string>& reference) {
    ASSERT_FALSE(resumed.empty());
    ASSERT_LE(resumed.size(), reference.size());
    const std::vector<std::string> tail(reference.end() - resumed.size(),
                                        reference.end());
    EXPECT_EQ(resumed, tail);
  }

  // Runs `rt` over `source`, which must resume from an offset and emit a
  // proper, byte-identical suffix of the uninterrupted output.
  static void ExpectResumedSuffix(TwoLevelRuntime& rt, ResumableSource& source,
                                  const CompiledQuery& low,
                                  const CompiledQuery& high,
                                  const Trace& trace) {
    auto report = rt.RunSource(source);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_EQ(report->sources.size(), 1u);
    EXPECT_TRUE(report->sources[0].resumed_from_offset);
    const std::vector<std::string> reference = ReferenceRows(low, high, trace);
    const std::vector<std::string> resumed =
        RowsAsStrings(rt.high_node(0).DrainOutput());
    EXPECT_LT(resumed.size(), reference.size());
    ExpectSuffix(resumed, reference);
  }

  // Leaves only the snapshot written at `windows`, as a crash right after
  // that window would.
  void KeepOnlySnapshot(uint64_t windows) const {
    char keep[32];
    std::snprintf(keep, sizeof(keep), "high0.ckpt.%012llu",
                  static_cast<unsigned long long>(windows));
    ASSERT_TRUE(fs::exists(dir_ / keep)) << keep;
    for (const auto& e : fs::directory_iterator(dir_)) {
      const std::string name = e.path().filename().string();
      if (name.find(".ckpt.") != std::string::npos && name != keep) {
        fs::remove(e.path());
      }
    }
  }

  static std::vector<std::string> ReferenceRows(const CompiledQuery& low,
                                                const CompiledQuery& high,
                                                const Trace& trace) {
    TwoLevelRuntime ref(low, {high});
    EXPECT_TRUE(ref.Run(trace).ok());
    return RowsAsStrings(ref.high_node(0).DrainOutput());
  }

  // A checkpointed run by one entry point, then a resume from its window-2
  // snapshot by the other: the resumed run seeks the trace and emits a
  // byte-identical suffix of the uninterrupted output.
  void ExpectResumeAcrossEntryPoints(bool written_threaded) {
    Trace trace = TraceGenerator::MakeResearchFeed(31.0, 42);
    auto low = CompileQuery(kPassThroughLow, Catalog::Default(), {.seed = 3});
    auto high = CompileQuery(kSubsetSumQuery, Catalog::Default(), {.seed = 3});
    ASSERT_TRUE(low.ok() && high.ok());
    const std::vector<std::string> reference =
        ReferenceRows(*low, *high, trace);
    {
      TwoLevelRuntime writer(*low, {*high}, Checkpointed());
      auto report =
          written_threaded ? writer.RunThreaded(trace) : writer.Run(trace);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      ASSERT_GE(report->checkpoints_written, 4u);
    }
    KeepOnlySnapshot(2);

    TwoLevelRuntime rt(*low, {*high}, Checkpointed());
    ASSERT_TRUE(rt.recovered());
    EXPECT_EQ(rt.recovered_windows(), 2u);
    auto report = written_threaded ? rt.Run(trace) : rt.RunThreaded(trace);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->recovered);
    ASSERT_EQ(report->sources.size(), 1u);
    EXPECT_TRUE(report->sources[0].resumed_from_offset);
    EXPECT_GT(report->sources[0].stats.resume_offset, 0u);
    EXPECT_EQ(report->sources[0].stats.resume_offset + report->packets,
              trace.size());

    const std::vector<std::string> resumed =
        RowsAsStrings(rt.high_node(0).DrainOutput());
    EXPECT_LT(resumed.size(), reference.size());
    ExpectSuffix(resumed, reference);
  }

  // Restores whatever the checkpoint dir holds into a trace run, which
  // must start fresh: no seek, and the full uninterrupted output.
  void ExpectTraceRunStartsFresh(const CompiledQuery& low,
                                 const CompiledQuery& high,
                                 const Trace& trace) {
    TwoLevelRuntime rt(low, {high}, Checkpointed());
    ASSERT_TRUE(rt.recovered());
    auto report = rt.Run(trace);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_FALSE(report->recovered);
    EXPECT_FALSE(rt.recovered());
    ASSERT_EQ(report->sources.size(), 1u);
    EXPECT_FALSE(report->sources[0].resumed_from_offset);
    EXPECT_EQ(report->packets, trace.size());
    EXPECT_EQ(RowsAsStrings(rt.high_node(0).DrainOutput()),
              ReferenceRows(low, high, trace));
  }
};

TEST_F(RuntimeResumeTest, ThreadedSnapshotResumesUnderRun) {
  ExpectResumeAcrossEntryPoints(/*written_threaded=*/true);
}

TEST_F(RuntimeResumeTest, RunSnapshotResumesUnderRunThreaded) {
  ExpectResumeAcrossEntryPoints(/*written_threaded=*/false);
}

TEST_F(RuntimeResumeTest, PcapSnapshotRestoredIntoTraceRunStartsFresh) {
  Trace trace = TraceGenerator::MakeResearchFeed(20.0, 42);
  auto low = CompileQuery(kPassThroughLow, Catalog::Default(), {.seed = 3});
  auto high = CompileQuery(kAggQuery, Catalog::Default(), {.seed = 3});
  ASSERT_TRUE(low.ok() && high.ok());
  const std::string pcap = (dir_ / "stream.pcap").string();
  ASSERT_TRUE(WritePcap(trace, pcap).ok());
  {
    TwoLevelRuntime writer(*low, {*high}, Checkpointed());
    PcapReader reader(PcapReaderConfig{pcap});
    auto report = writer.RunSource(reader);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
  }
  // A mid-stream pcap snapshot: its byte offset means nothing to a trace.
  KeepOnlySnapshot(2);
  ExpectTraceRunStartsFresh(*low, *high, trace);
}

TEST_F(RuntimeResumeTest, FreshStartDiscardsTheStaleSnapshots) {
  // A finished pcap run leaves its newest snapshots, which a trace run
  // cannot seek for. The trace run starts fresh and must discard them: at
  // the default retention their higher flush counts would outrank its own
  // snapshots, and a crash would restore the pcap state all over again.
  Trace trace = TraceGenerator::MakeResearchFeed(30.0, 42);
  auto low = CompileQuery(kPassThroughLow, Catalog::Default(), {.seed = 3});
  auto high = CompileQuery(kAggQuery, Catalog::Default(), {.seed = 3});
  ASSERT_TRUE(low.ok() && high.ok());
  RuntimeOptions opt = Checkpointed();
  opt.checkpoint.retain = 3;
  const std::string pcap = (dir_ / "stream.pcap").string();
  ASSERT_TRUE(WritePcap(trace, pcap).ok());
  {
    TwoLevelRuntime writer(*low, {*high}, opt);
    PcapReader reader(PcapReaderConfig{pcap});
    auto report = writer.RunSource(reader);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_GT(report->checkpoints_written, opt.checkpoint.retain);
  }
  CrashMidStream(*low, {*high}, trace, opt);

  // The restart resumes from the crashed fresh run's newest snapshot.
  TwoLevelRuntime rt(*low, {*high}, opt);
  ASSERT_TRUE(rt.recovered());
  TraceSource source(&trace);
  ExpectResumedSuffix(rt, source, *low, *high, trace);
}

TEST_F(RuntimeResumeTest, FreshStartDiscardsCorruptSnapshots) {
  // Snapshots that all fail validation restore nothing; the fresh run
  // deletes them too, so a crash resumes from its own snapshots.
  Trace trace = TraceGenerator::MakeResearchFeed(30.0, 42);
  auto low = CompileQuery(kPassThroughLow, Catalog::Default(), {.seed = 3});
  auto high = CompileQuery(kAggQuery, Catalog::Default(), {.seed = 3});
  ASSERT_TRUE(low.ok() && high.ok());
  RuntimeOptions opt = Checkpointed();
  opt.checkpoint.retain = 3;
  {
    TwoLevelRuntime writer(*low, {*high}, opt);
    ASSERT_TRUE(writer.Run(trace).ok());
  }
  for (const auto& e : fs::directory_iterator(dir_)) {
    ASSERT_TRUE(InjectCheckpointFault(e.path().string(),
                                      CheckpointFault::kBitFlip, 1));
  }
  CrashMidStream(*low, {*high}, trace, opt);

  TwoLevelRuntime rt(*low, {*high}, opt);
  ASSERT_TRUE(rt.recovered());
  EXPECT_EQ(rt.checkpoint_manager(0)->corrupt_skipped(), 0u);
  TraceSource source(&trace);
  ExpectResumedSuffix(rt, source, *low, *high, trace);
}

TEST_F(RuntimeResumeTest, NodesWithDifferentWindowsResumeAtOneOffset) {
  // Every snapshot boundary writes both sampling nodes, so their newest
  // snapshots name one offset even though their windows flush at
  // different times, and the restart seeks instead of starting fresh.
  Trace trace = TraceGenerator::MakeResearchFeed(31.0, 42);
  auto low = CompileQuery(kPassThroughLow, Catalog::Default(), {.seed = 3});
  auto fast = CompileQuery(kSubsetSumQuery, Catalog::Default(), {.seed = 3});
  auto slow = CompileQuery(kSlowAggQuery, Catalog::Default(), {.seed = 3});
  ASSERT_TRUE(low.ok() && fast.ok() && slow.ok());
  const std::vector<CompiledQuery> high = {*fast, *slow};
  std::vector<std::vector<std::string>> reference(2);
  {
    TwoLevelRuntime ref(*low, high);
    ASSERT_TRUE(ref.Run(trace).ok());
    for (size_t h = 0; h < 2; ++h) {
      reference[h] = RowsAsStrings(ref.high_node(h).DrainOutput());
    }
  }
  CrashMidStream(*low, high, trace, Checkpointed());

  TwoLevelRuntime rt(*low, high, Checkpointed());
  ASSERT_TRUE(rt.recovered());
  auto report = rt.Run(trace);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->sources.size(), 1u);
  EXPECT_TRUE(report->sources[0].resumed_from_offset);
  const std::vector<std::string> fast_rows =
      RowsAsStrings(rt.high_node(0).DrainOutput());
  EXPECT_LT(fast_rows.size(), reference[0].size());
  ExpectSuffix(fast_rows, reference[0]);
  // The slow node had closed no 20-second window at the snapshots' offset:
  // its restored partial window yields its whole uninterrupted output.
  EXPECT_EQ(RowsAsStrings(rt.high_node(1).DrainOutput()), reference[1]);
}

TEST_F(RuntimeResumeTest, FailedOpenLeavesTheResumeToTheNextRun) {
  // A run whose source fails to open reads nothing; the next run must
  // still seek to the restored offset, not read the restored state's
  // prefix a second time.
  Trace trace = TraceGenerator::MakeResearchFeed(20.0, 42);
  auto low = CompileQuery(kPassThroughLow, Catalog::Default(), {.seed = 3});
  auto high = CompileQuery(kAggQuery, Catalog::Default(), {.seed = 3});
  ASSERT_TRUE(low.ok() && high.ok());
  CrashMidStream(*low, {*high}, trace, Checkpointed());

  TwoLevelRuntime rt(*low, {*high}, Checkpointed());
  ASSERT_TRUE(rt.recovered());
  FlakyTraceSource unopenable(&trace, trace.size(), 1);
  EXPECT_FALSE(rt.RunSource(unopenable).ok());
  EXPECT_TRUE(rt.recovered());
  TraceSource source(&trace);
  ExpectResumedSuffix(rt, source, *low, *high, trace);
}

TEST_F(RuntimeResumeTest, SnapshotWithoutSourceSectionStartsFresh) {
  // The layout trace runs wrote before every snapshot named its source:
  // operator state, no shed controller, no exemplars, nothing after.
  Trace trace = TraceGenerator::MakeResearchFeed(20.0, 42);
  auto low = CompileQuery(kPassThroughLow, Catalog::Default(), {.seed = 3});
  auto high = CompileQuery(kAggQuery, Catalog::Default(), {.seed = 3});
  ASSERT_TRUE(low.ok() && high.ok());
  QueryNode node("high0", *high);
  for (size_t i = 0; i < trace.size() / 2; ++i) {
    ASSERT_TRUE(node.Push(PacketToTuple(trace.at(i))).ok());
  }
  ByteWriter w;
  node.sampling_operator()->SerializeDurableState(w);
  w.Bool(false);
  w.Bool(false);
  CheckpointConfig cfg = Config();
  cfg.node = "high0";
  ASSERT_TRUE(CheckpointManager(cfg).Write(
      node.sampling_operator()->windows_flushed(), w.data()));
  ExpectTraceRunStartsFresh(*low, *high, trace);
}

}  // namespace
}  // namespace streamop
