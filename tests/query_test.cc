// Tests for src/query: lexer, parser, analyzer (resolution, clause
// placement, supergroup validation, error reporting), and the selection
// operator.

#include <gtest/gtest.h>

#include <cstdint>

#include "engine/query_node.h"
#include "query/lexer.h"
#include "query/parser.h"
#include "query/query.h"
#include "query/selection_operator.h"
#include "tuple/tuple_batch.h"

namespace streamop {
namespace {

// ---------- Lexer ----------

TEST(LexerTest, KeywordsCaseInsensitive) {
  auto toks = Lex("SELECT select SeLeCt");
  ASSERT_TRUE(toks.ok());
  ASSERT_EQ(toks->size(), 4u);  // 3 + EOF
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ((*toks)[static_cast<size_t>(i)].kind, TokenKind::kSelect);
  }
}

TEST(LexerTest, GroupByFusedForm) {
  auto toks = Lex("GROUP_BY x");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[0].kind, TokenKind::kGroup);
  EXPECT_EQ((*toks)[1].kind, TokenKind::kBy);
  EXPECT_EQ((*toks)[2].kind, TokenKind::kIdentifier);
}

TEST(LexerTest, DollarSuffixMarksSuperaggregate) {
  auto toks = Lex("count_distinct$(*)");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[0].kind, TokenKind::kIdentifier);
  EXPECT_TRUE((*toks)[0].has_dollar);
  EXPECT_EQ((*toks)[0].text, "count_distinct");
}

TEST(LexerTest, NumbersAndOperators) {
  auto toks = Lex("1 2.5 1e3 <= >= <> != = < >");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[0].kind, TokenKind::kIntLiteral);
  EXPECT_EQ((*toks)[0].int_value, 1u);
  EXPECT_EQ((*toks)[1].kind, TokenKind::kFloatLiteral);
  EXPECT_DOUBLE_EQ((*toks)[1].float_value, 2.5);
  EXPECT_EQ((*toks)[2].kind, TokenKind::kFloatLiteral);
  EXPECT_DOUBLE_EQ((*toks)[2].float_value, 1000.0);
  EXPECT_EQ((*toks)[3].kind, TokenKind::kLe);
  EXPECT_EQ((*toks)[4].kind, TokenKind::kGe);
  EXPECT_EQ((*toks)[5].kind, TokenKind::kNe);
  EXPECT_EQ((*toks)[6].kind, TokenKind::kNe);
  EXPECT_EQ((*toks)[7].kind, TokenKind::kEq);
  EXPECT_EQ((*toks)[8].kind, TokenKind::kLt);
  EXPECT_EQ((*toks)[9].kind, TokenKind::kGt);
}

TEST(LexerTest, StringsAndComments) {
  auto toks = Lex("'hello world' -- a comment\n 'x'");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[0].kind, TokenKind::kStringLiteral);
  EXPECT_EQ((*toks)[0].text, "hello world");
  EXPECT_EQ((*toks)[1].kind, TokenKind::kStringLiteral);
  EXPECT_EQ((*toks)[1].text, "x");
}

TEST(LexerTest, ErrorsOnBadInput) {
  EXPECT_EQ(Lex("'unterminated").status().code(), StatusCode::kParseError);
  EXPECT_EQ(Lex("a ? b").status().code(), StatusCode::kParseError);
  EXPECT_EQ(Lex("a ! b").status().code(), StatusCode::kParseError);
}

// ---------- Parser ----------

TEST(ParserTest, MinimalSelect) {
  auto q = ParseQuery("SELECT srcIP FROM PKT");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->from, "PKT");
  ASSERT_EQ(q->select.size(), 1u);
  EXPECT_EQ(q->select[0].expr->column_name, "srcIP");
  EXPECT_EQ(q->where, nullptr);
}

TEST(ParserTest, FullSamplingQueryShape) {
  auto q = ParseQuery(R"(
      SELECT tb, srcIP, UMAX(sum(len), ssthreshold())
      FROM PKTS
      WHERE ssample(len, 100) = TRUE
      GROUP BY time/20 as tb, srcIP
      SUPERGROUP BY tb
      HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
      CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
      CLEANING BY ssclean_with(sum(len)) = TRUE;
  )");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->select.size(), 3u);
  EXPECT_EQ(q->group_by.size(), 2u);
  EXPECT_EQ(q->group_by[0].alias, "tb");
  ASSERT_EQ(q->supergroup.size(), 1u);
  EXPECT_EQ(q->supergroup[0], "tb");
  EXPECT_NE(q->where, nullptr);
  EXPECT_NE(q->having, nullptr);
  EXPECT_NE(q->cleaning_when, nullptr);
  EXPECT_NE(q->cleaning_by, nullptr);
}

TEST(ParserTest, CleaningClausesInEitherOrder) {
  auto q = ParseQuery(
      "SELECT k FROM PKT GROUP BY srcIP as k "
      "CLEANING BY count(*) > 1 CLEANING WHEN count_distinct$(*) > 5");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_NE(q->cleaning_when, nullptr);
  EXPECT_NE(q->cleaning_by, nullptr);
}

TEST(ParserTest, ExpressionPrecedence) {
  auto e = ParseExpression("1 + 2 * 3 = 7 AND NOT 0 > 1");
  ASSERT_TRUE(e.ok());
  // Top node must be AND.
  EXPECT_EQ((*e)->kind, ExprKind::kBinary);
  EXPECT_EQ((*e)->bop, BinaryOp::kAnd);
  EXPECT_EQ((*e)->ToString(), "(((1 + (2 * 3)) = 7) AND NOT (0 > 1))");
}

TEST(ParserTest, ParenthesesOverridePrecedence) {
  auto e = ParseExpression("(1 + 2) * 3");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->bop, BinaryOp::kMul);
}

TEST(ParserTest, UnaryMinusAndStarArg) {
  auto e = ParseExpression("-x + count(*)");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->children[1]->star_arg, true);
}

TEST(ParserTest, Errors) {
  EXPECT_EQ(ParseQuery("SELECT FROM PKT").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseQuery("SELECT a PKT").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseQuery("FROM PKT SELECT x").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseQuery("SELECT a FROM PKT CLEANING x > 1").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseQuery("SELECT a FROM PKT trailing garbage").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseQuery(
                "SELECT a FROM PKT GROUP BY b CLEANING WHEN 1 CLEANING WHEN 2")
                .status()
                .code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseExpression("1 +").status().code(), StatusCode::kParseError);
  EXPECT_EQ(ParseExpression("f(1,)").status().code(), StatusCode::kParseError);
  // '$' on a bare identifier is invalid.
  EXPECT_EQ(ParseExpression("x$ + 1").status().code(), StatusCode::kParseError);
}

// ---------- Analyzer ----------

Catalog TestCatalog() { return Catalog::Default(); }

TEST(AnalyzerTest, CompilesPaperSubsetSumQuery) {
  auto cq = CompileQuery(R"(
      SELECT tb, srcIP, destIP, UMAX(sum(len), ssthreshold())
      FROM PKTS
      WHERE ssample(len, 100) = TRUE
      GROUP BY time/20 as tb, srcIP, destIP, ts_ns
      HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
      CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
      CLEANING BY ssclean_with(sum(len)) = TRUE
  )",
                         TestCatalog());
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  ASSERT_EQ(cq->kind, CompiledQueryKind::kSampling);
  const SamplingQueryPlan& plan = *cq->sampling;
  ASSERT_EQ(plan.group_by_exprs.size(), 4u);
  EXPECT_TRUE(plan.group_by_ordered[0]);   // time/20
  EXPECT_FALSE(plan.group_by_ordered[1]);  // srcIP
  EXPECT_FALSE(plan.group_by_ordered[3]);  // ts_ns (timestamp-ness cast away)
  EXPECT_EQ(plan.aggregates.size(), 1u);   // sum(len) deduped across clauses
  EXPECT_EQ(plan.superaggs.size(), 1u);    // count_distinct$(*) deduped
  EXPECT_EQ(plan.sfun_states.size(), 1u);  // one shared subset-sum state
  EXPECT_EQ(plan.output_names[3], "UMAX(sum(len), ssthreshold())");
}

TEST(AnalyzerTest, CompilesPaperHeavyHitterQuery) {
  auto cq = CompileQuery(R"(
      SELECT tb, srcIP, sum(len), count(*)
      FROM TCP
      GROUP BY time/60 as tb, srcIP
      CLEANING WHEN local_count(100) = TRUE
      CLEANING BY count(*) >= current_bucket() - first(current_bucket())
  )",
                         TestCatalog());
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  const SamplingQueryPlan& plan = *cq->sampling;
  // sum(len), count(*), first(current_bucket()).
  EXPECT_EQ(plan.aggregates.size(), 3u);
  EXPECT_EQ(plan.sfun_states.size(), 1u);  // heavy_hitter_state
}

TEST(AnalyzerTest, CompilesPaperMinHashQuery) {
  auto cq = CompileQuery(R"(
      SELECT tb, srcIP, HX
      FROM TCP
      WHERE HX <= Kth_smallest_value$(HX, 100)
      GROUP BY time/60 as tb, srcIP, H(destIP) as HX
      SUPERGROUP BY tb, srcIP
      HAVING HX <= Kth_smallest_value$(HX, 100)
      CLEANING WHEN count_distinct$(*) >= 100
      CLEANING BY HX <= Kth_smallest_value$(HX, 100)
  )",
                         TestCatalog());
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  const SamplingQueryPlan& plan = *cq->sampling;
  EXPECT_EQ(plan.superaggs.size(), 2u);  // kth_smallest$ + count_distinct$
  // The supergroup is (tb, srcIP); tb is ordered hence implicit, so only
  // srcIP remains in the key.
  ASSERT_EQ(plan.supergroup_slots.size(), 1u);
  EXPECT_EQ(plan.supergroup_slots[0], 1);
}

TEST(AnalyzerTest, CompilesPaperReservoirQuery) {
  auto cq = CompileQuery(R"(
      SELECT tb, srcIP, destIP
      FROM TCP
      WHERE rsample(100) = TRUE
      GROUP BY time/60 as tb, srcIP, destIP
      HAVING rsfinal_clean(count_distinct$(*)) = TRUE
      CLEANING WHEN rsdo_clean(count_distinct$(*)) = TRUE
      CLEANING BY rsclean_with() = TRUE
  )",
                         TestCatalog());
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  EXPECT_EQ(cq->sampling->sfun_states.size(), 1u);
}

TEST(AnalyzerTest, SelectionQueryWithoutGroupBy) {
  auto cq = CompileQuery(
      "SELECT srcIP, len FROM PKT WHERE len > 1000 AND proto = 6",
      TestCatalog());
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  EXPECT_EQ(cq->kind, CompiledQueryKind::kSelection);
  EXPECT_EQ(cq->selection->select_exprs.size(), 2u);
}

TEST(AnalyzerTest, SelectionWithStatefulPredicate) {
  // The Fig. 5 baseline: basic subset-sum sampling as a UDF in a selection.
  auto cq = CompileQuery(
      "SELECT time, srcIP, destIP, len FROM PKT "
      "WHERE ssample(len, 1000) = TRUE",
      TestCatalog());
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  EXPECT_EQ(cq->kind, CompiledQueryKind::kSelection);
  EXPECT_EQ(cq->selection->sfun_states.size(), 1u);
}

TEST(AnalyzerTest, ErrorUnknownStream) {
  EXPECT_EQ(CompileQuery("SELECT a FROM NOPE", TestCatalog()).status().code(),
            StatusCode::kAnalysisError);
}

TEST(AnalyzerTest, ErrorUnknownColumn) {
  EXPECT_EQ(
      CompileQuery("SELECT bogus FROM PKT GROUP BY srcIP", TestCatalog())
          .status()
          .code(),
      StatusCode::kAnalysisError);
}

TEST(AnalyzerTest, ErrorUnknownFunction) {
  EXPECT_EQ(CompileQuery("SELECT frobnicate(len) FROM PKT", TestCatalog())
                .status()
                .code(),
            StatusCode::kAnalysisError);
}

TEST(AnalyzerTest, ErrorSupergroupNotSubsetOfGroupBy) {
  auto st = CompileQuery(
                "SELECT srcIP FROM PKT GROUP BY time/60 as tb, srcIP "
                "SUPERGROUP BY destIP",
                TestCatalog())
                .status();
  EXPECT_EQ(st.code(), StatusCode::kAnalysisError);
  EXPECT_NE(st.message().find("SUPERGROUP"), std::string::npos);
}

TEST(AnalyzerTest, ErrorCleaningClausesMustPair) {
  EXPECT_EQ(CompileQuery("SELECT srcIP FROM PKT GROUP BY srcIP "
                         "CLEANING WHEN count_distinct$(*) > 5",
                         TestCatalog())
                .status()
                .code(),
            StatusCode::kAnalysisError);
}

TEST(AnalyzerTest, ErrorAggregateInWhere) {
  EXPECT_EQ(CompileQuery(
                "SELECT srcIP FROM PKT WHERE sum(len) > 5 GROUP BY srcIP",
                TestCatalog())
                .status()
                .code(),
            StatusCode::kAnalysisError);
}

TEST(AnalyzerTest, ErrorHavingWithoutGroupBy) {
  EXPECT_EQ(
      CompileQuery("SELECT srcIP FROM PKT HAVING count(*) > 1", TestCatalog())
          .status()
          .code(),
      StatusCode::kAnalysisError);
}

TEST(AnalyzerTest, ErrorRawInputColumnInSelectOfGroupedQuery) {
  // `len` is not a group-by variable; SELECT of a grouped query cannot
  // reference raw input columns.
  EXPECT_EQ(CompileQuery("SELECT len FROM PKT GROUP BY srcIP", TestCatalog())
                .status()
                .code(),
            StatusCode::kAnalysisError);
}

TEST(AnalyzerTest, ErrorDuplicateGroupByName) {
  EXPECT_EQ(CompileQuery(
                "SELECT srcIP FROM PKT GROUP BY srcIP, destIP as srcIP",
                TestCatalog())
                .status()
                .code(),
            StatusCode::kAnalysisError);
}

TEST(AnalyzerTest, ErrorBadSuperaggregate) {
  EXPECT_EQ(CompileQuery("SELECT srcIP FROM PKT GROUP BY srcIP "
                         "HAVING median$(len) > 1",
                         TestCatalog())
                .status()
                .code(),
            StatusCode::kAnalysisError);
  EXPECT_EQ(CompileQuery(
                "SELECT srcIP FROM PKT GROUP BY srcIP "
                "HAVING kth_smallest_value$(len, 10) > 1",  // len not a gb var
                TestCatalog())
                .status()
                .code(),
            StatusCode::kAnalysisError);
}

TEST(AnalyzerTest, ErrorWrongArity) {
  EXPECT_EQ(CompileQuery("SELECT UMAX(len) FROM PKT", TestCatalog())
                .status()
                .code(),
            StatusCode::kAnalysisError);
  EXPECT_EQ(CompileQuery("SELECT srcIP FROM PKT WHERE ssample() = TRUE",
                         TestCatalog())
                .status()
                .code(),
            StatusCode::kAnalysisError);
}

TEST(AnalyzerTest, GroupByVariableShadowsInputColumn) {
  // HAVING references tb (group-by var) — legal; raw `time` would not be.
  auto cq = CompileQuery(
      "SELECT tb FROM PKT GROUP BY time/60 as tb HAVING tb > 0",
      TestCatalog());
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  EXPECT_EQ(
      CompileQuery("SELECT tb FROM PKT GROUP BY time/60 as tb HAVING time > 0",
                   TestCatalog())
          .status()
          .code(),
      StatusCode::kAnalysisError);
}

// ---------- SelectionOperator runtime ----------

TEST(SelectionOperatorTest, FiltersAndProjects) {
  auto cq = CompileQuery("SELECT len, len * 2 AS twice FROM PKT WHERE len > 100",
                         TestCatalog());
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  SelectionOperator op(cq->selection);

  PacketRecord small{};
  small.len = 50;
  PacketRecord big{};
  big.len = 200;
  Tuple out;
  Result<bool> r1 = op.Process(PacketToTuple(small), &out);
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(*r1);
  Result<bool> r2 = op.Process(PacketToTuple(big), &out);
  ASSERT_TRUE(r2.ok());
  ASSERT_TRUE(*r2);
  EXPECT_EQ(out[0].AsUInt(), 200u);
  EXPECT_EQ(out[1].AsUInt(), 400u);
  EXPECT_EQ(op.tuples_in(), 2u);
  EXPECT_EQ(op.tuples_out(), 1u);
}

TEST(SelectionOperatorTest, StatefulBasicSubsetSum) {
  // Basic subset-sum in a selection: sampled weight estimates total bytes.
  auto cq = CompileQuery(
      "SELECT len FROM PKT WHERE ssample(len, 0, 2, 1, 5000.0) = TRUE",
      TestCatalog(), {.seed = 3});
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  SelectionOperator op(cq->selection);
  Pcg64 rng(5);
  double truth = 0.0;
  uint64_t kept = 0;
  double est = 0.0;
  for (int i = 0; i < 50000; ++i) {
    PacketRecord p{};
    p.len = static_cast<uint16_t>(40 + rng.NextBounded(1460));
    truth += p.len;
    Tuple out;
    Result<bool> r = op.Process(PacketToTuple(p), &out);
    ASSERT_TRUE(r.ok());
    if (*r) {
      ++kept;
      est += std::max<double>(out[0].AsDouble(), 5000.0);
    }
  }
  EXPECT_GT(kept, 1000u);
  EXPECT_LT(kept, 15000u);
  EXPECT_NEAR(est, truth, 0.03 * truth);
}

// Only a query whose output is its input — no WHERE, no SFUN, every input
// column projected to its own slot — is an identity, which the drive loop
// hands on without a copy.
TEST(SelectionOperatorTest, IdentityIsEveryColumnInPlaceWithoutAFilter) {
  struct Case {
    const char* sql;
    bool identity;
  };
  const Case cases[] = {
      {"SELECT time, ts_ns, srcIP, destIP, srcPort, destPort, proto, len "
       "FROM PKT",
       true},
      {"SELECT time, ts_ns, destIP, srcIP, srcPort, destPort, proto, len "
       "FROM PKT",
       false},
      {"SELECT time, ts_ns, srcIP, destIP, srcPort, destPort, proto, len "
       "FROM PKT WHERE len > 100",
       false},
      {"SELECT time, ts_ns, srcIP, destIP, srcPort, destPort, proto, len "
       "FROM PKT WHERE ssample(len, 0, 2, 1, 5000.0) = TRUE",
       false},
      {"SELECT time, ts_ns, srcIP, destIP, srcPort, destPort, proto, len + 0 "
       "FROM PKT",
       false},
      {"SELECT time, srcIP, destIP, len FROM PKT", false},
  };
  for (const Case& c : cases) {
    auto cq = CompileQuery(c.sql, TestCatalog());
    ASSERT_TRUE(cq.ok()) << c.sql << ": " << cq.status().ToString();
    EXPECT_EQ(SelectionOperator(cq->selection).is_identity(), c.identity)
        << c.sql;
    EXPECT_EQ(QueryNode("low", *cq).is_identity(), c.identity) << c.sql;
  }
}

// INT64_MIN / -1 traps in hardware when computed natively; the engine's
// signed arithmetic wraps instead, so this query yields INT64_MIN on every
// row, through the one-row Push as through PushBatch.
TEST(SelectionOperatorTest, SignedOverflowWrapsInsteadOfTrapping) {
  auto cq = CompileQuery("SELECT (0 - 9223372036854775808) / (0 - 1) FROM PKT",
                         TestCatalog());
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  QueryNode node("overflow", *cq);
  TupleBatch batch(8, 8);
  for (uint32_t i = 0; i < 4; ++i) {
    PacketRecord p{};
    p.len = static_cast<uint16_t>(40 + i);
    ASSERT_TRUE(node.Push(PacketToTuple(p)).ok());
    batch.AppendPacket(p);
  }
  ASSERT_TRUE(node.PushBatch(batch).ok());
  const std::vector<Tuple> rows = node.DrainOutput();
  ASSERT_EQ(rows.size(), 8u);
  for (const Tuple& row : rows) {
    ASSERT_EQ(row.size(), 1u);
    EXPECT_EQ(row[0], Value::Int(INT64_MIN));
  }
}

}  // namespace
}  // namespace streamop
