// Durability tests (DESIGN.md §10): serialize/restore round-trips for every
// sampler and sketch, operator-level durable-state round-trips with
// continued-output byte-identity, and the checkpoint manager's corruption
// handling — every torn, bit-flipped or stale snapshot must be detected and
// skipped in favour of the next-oldest valid one, never silently restored.

#include <gtest/gtest.h>

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
#include "stream/stream_source.h"

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
  EXPECT_EQ(b.recovery_skip_remaining(), prefix.size());
  EXPECT_TRUE(b.recovering());

  // The restored operator replays the full stream; the prefix is skipped
  // positionally, then both process the suffix from identical state.
  for (const Tuple& t : prefix) ASSERT_TRUE(b.Process(t).ok());
  EXPECT_FALSE(b.recovering());
  for (const Tuple& t : suffix) {
    ASSERT_TRUE(a.Process(t).ok());
    ASSERT_TRUE(b.Process(t).ok());
  }
  ASSERT_TRUE(a.FinishStream().ok());
  ASSERT_TRUE(b.FinishStream().ok());

  // b's replay emits nothing for already-flushed windows; output after the
  // snapshot point must be byte-identical to the uninterrupted run's.
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

  for (const Tuple& t : prefix) ASSERT_TRUE(b.Process(t).ok());
  EXPECT_FALSE(b.recovering());
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
  EXPECT_EQ(b.recovery_skip_remaining(), 0u);

  // The rejecting operator still works from scratch.
  ASSERT_TRUE(b.Process(Row(1, 1, 2)).ok());
  ASSERT_TRUE(b.FinishStream().ok());
  EXPECT_EQ(b.DrainOutput().size(), 1u);
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
  for (uint64_t i = 0; i < 95; ++i) {
    ASSERT_TRUE(b.Process(Row(100, 1, 0)).ok());  // burn the replay skip
  }
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
  {
    TraceTupleSource src(&trace);
    Tuple t;
    while (src.Next(&t)) rows.push_back(t);
  }
  const size_t half = rows.size() / 2;
  for (size_t i = 0; i < half; ++i) ASSERT_TRUE(a->Process(rows[i]).ok());
  ByteWriter w;
  a->SerializeDurableState(w);
  ByteReader r(w.data());
  ASSERT_TRUE(b->RestoreDurableState(r));
  EXPECT_EQ(b->recovery_skip_remaining(), half);
  EXPECT_EQ(b->restore_states_skipped(), 0u)
      << "every SFUN must have serialize/restore hooks";

  for (size_t i = 0; i < rows.size(); ++i) {
    if (i >= half) ASSERT_TRUE(a->Process(rows[i]).ok());
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

}  // namespace
}  // namespace streamop
