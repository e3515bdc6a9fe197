// Bytecode compiler + interpreter coverage: golden program dumps pin the
// compiled form of representative expressions, and a randomized
// differential harness proves that both the row-mode and batch-mode
// interpreters agree bit-for-bit with the tree-walk Evaluate(), the
// reference implementation — including short-circuit evaluation,
// division-by-zero errors, signed overflow and mixed-type coercions. The
// bytecode is the engine's only evaluator because of the equivalences
// tested here.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "expr/evaluator.h"
#include "expr/program.h"
#include "expr/scalar_function.h"
#include "tuple/tuple.h"
#include "tuple/tuple_batch.h"
#include "tuple/value.h"

namespace streamop {
namespace {

ExprPtr Scalar(const std::string& name, std::vector<ExprPtr> args) {
  ExprPtr e = Expr::Call(name, std::move(args));
  e->kind = ExprKind::kScalarCall;
  e->scalar = ScalarFunctionRegistry::Global().Find(name);
  EXPECT_NE(e->scalar, nullptr) << name;
  return e;
}

// `len > 100` over the PKT schema (len = slot 7).
ExprPtr LenGt100() {
  return Expr::Binary(BinaryOp::kGt, Expr::InputRef("len", 7),
                      Expr::Literal(Value::UInt(100)));
}

TEST(ExprProgramTest, GoldenDumpSimpleComparison) {
  auto prog = ExprProgram::TryCompile(LenGt100().get());
  ASSERT_TRUE(prog.ok());
  EXPECT_EQ(prog->ToString(),
            "0: load_input[7]\n"
            "1: push_lit[0] ; 100\n"
            "2: gt\n");
  EXPECT_TRUE(prog->batchable());
  EXPECT_TRUE(prog->reads_input());
  EXPECT_FALSE(prog->reads_group_by());
  EXPECT_EQ(prog->identity_input_slot(), -1);
}

TEST(ExprProgramTest, GoldenDumpShortCircuitAnd) {
  // proto = 6 AND NOT (srcPort = 80 OR destPort = 80): the fuzz seed's
  // predicate shape; probes carry jump targets past their matching ends.
  ExprPtr e = Expr::Binary(
      BinaryOp::kAnd,
      Expr::Binary(BinaryOp::kEq, Expr::InputRef("proto", 6),
                   Expr::Literal(Value::UInt(6))),
      Expr::Unary(
          UnaryOp::kNot,
          Expr::Binary(
              BinaryOp::kOr,
              Expr::Binary(BinaryOp::kEq, Expr::InputRef("srcPort", 4),
                           Expr::Literal(Value::UInt(80))),
              Expr::Binary(BinaryOp::kEq, Expr::InputRef("destPort", 5),
                           Expr::Literal(Value::UInt(80))))));
  auto prog = ExprProgram::TryCompile(e.get());
  ASSERT_TRUE(prog.ok());
  EXPECT_EQ(prog->ToString(),
            "0: load_input[6]\n"
            "1: push_lit[0] ; 6\n"
            "2: eq\n"
            "3: and_probe ->14\n"
            "4: load_input[4]\n"
            "5: push_lit[1] ; 80\n"
            "6: eq\n"
            "7: or_probe ->12\n"
            "8: load_input[5]\n"
            "9: push_lit[2] ; 80\n"
            "10: eq\n"
            "11: or_end\n"
            "12: not\n"
            "13: and_end\n");
}

TEST(ExprProgramTest, GoldenDumpGroupByArithmetic) {
  // time/20: the window-id expression of every steady-state benchmark.
  ExprPtr e = Expr::Binary(BinaryOp::kDiv, Expr::InputRef("time", 0),
                           Expr::Literal(Value::UInt(20)));
  auto prog = ExprProgram::TryCompile(e.get());
  ASSERT_TRUE(prog.ok());
  EXPECT_EQ(prog->ToString(),
            "0: load_input[0]\n"
            "1: push_lit[0] ; 20\n"
            "2: div\n");
}

TEST(ExprProgramTest, GoldenDumpScalarCall) {
  ExprPtr e = Scalar("UMAX", {Expr::InputRef("len", 7),
                              Expr::Literal(Value::UInt(1000))});
  auto prog = ExprProgram::TryCompile(e.get());
  ASSERT_TRUE(prog.ok());
  EXPECT_EQ(prog->ToString(),
            "0: load_input[7]\n"
            "1: push_lit[0] ; 1000\n"
            "2: scall UMAX/2\n");
  EXPECT_TRUE(prog->batchable());  // all builtins are pure
}

TEST(ExprProgramTest, IdentityInputSlotDetected) {
  ExprPtr e = Expr::InputRef("srcIP", 2);
  auto prog = ExprProgram::TryCompile(e.get());
  ASSERT_TRUE(prog.ok());
  EXPECT_EQ(prog->identity_input_slot(), 2);
}

TEST(ExprProgramTest, AggAndSuperAggRefsCompileButAreNotBatchable) {
  ExprPtr e = Expr::Binary(BinaryOp::kGt, Expr::AggregateRef(0),
                           Expr::SuperAggRef(1));
  auto prog = ExprProgram::TryCompile(e.get());
  ASSERT_TRUE(prog.ok());
  EXPECT_EQ(prog->ToString(),
            "0: load_agg[0]\n"
            "1: load_super[1]\n"
            "2: gt\n");
  EXPECT_FALSE(prog->batchable());
  EXPECT_TRUE(prog->reads_agg());
  EXPECT_TRUE(prog->reads_superagg());
}

TEST(ExprProgramTest, UnanalyzedCallDoesNotCompile) {
  ExprPtr e = Expr::Call("sum", {Expr::InputRef("len", 7)});
  EXPECT_FALSE(ExprProgram::TryCompile(e.get()).ok());
  EXPECT_FALSE(ExprProgram::TryCompile(nullptr).ok());
}

TEST(ExprProgramTest, UnresolvedColumnDoesNotCompile) {
  ExprPtr e = Expr::Column("len");  // never analyzed: slot = -1
  EXPECT_FALSE(ExprProgram::TryCompile(e.get()).ok());
}

// ---------------------------------------------------------------------------
// Differential: random expressions, three interpreters, identical results.

struct RandomExprGen {
  Pcg64 rng;
  explicit RandomExprGen(uint64_t seed) : rng(seed, 0x9e3779b9ULL) {}

  ExprPtr Leaf() {
    switch (rng.NextBounded(8)) {
      case 0:
        return Expr::Literal(Value::UInt(rng.NextBounded(200)));
      case 1:
        return Expr::Literal(Value::Int(
            static_cast<int64_t>(rng.NextBounded(200)) - 100));
      case 2:
        return Expr::Literal(
            Value::Double(static_cast<double>(rng.NextBounded(400)) / 8.0));
      case 3:
        return Expr::Literal(Value::Bool(rng.NextBounded(2) != 0));
      case 4:
        // Zero shows up often enough to exercise division errors and
        // short-circuit guards.
        return Expr::Literal(Value::UInt(0));
      default: {
        int slot = static_cast<int>(rng.NextBounded(8));
        return Expr::InputRef("c" + std::to_string(slot), slot);
      }
    }
  }

  ExprPtr Gen(int depth) {
    if (depth <= 0 || rng.NextBounded(4) == 0) return Leaf();
    switch (rng.NextBounded(10)) {
      case 0:
        return Expr::Unary(rng.NextBounded(2) ? UnaryOp::kNot : UnaryOp::kNeg,
                           Gen(depth - 1));
      case 1:
        return Expr::Binary(BinaryOp::kAnd, Gen(depth - 1), Gen(depth - 1));
      case 2:
        return Expr::Binary(BinaryOp::kOr, Gen(depth - 1), Gen(depth - 1));
      case 3: {
        const char* fns[] = {"UMAX", "UMIN", "DMAX", "DMIN", "ABS"};
        const char* fn = fns[rng.NextBounded(5)];
        if (std::string(fn) == "ABS") return Scalar(fn, {Gen(depth - 1)});
        return Scalar(fn, {Gen(depth - 1), Gen(depth - 1)});
      }
      default: {
        BinaryOp ops[] = {BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul,
                          BinaryOp::kDiv, BinaryOp::kMod, BinaryOp::kEq,
                          BinaryOp::kNe, BinaryOp::kLt,  BinaryOp::kLe,
                          BinaryOp::kGt, BinaryOp::kGe};
        return Expr::Binary(ops[rng.NextBounded(11)], Gen(depth - 1),
                            Gen(depth - 1));
      }
    }
  }
};

// A canonical rendering that distinguishes type and payload ("UINT:5" vs
// "INT:5"); NaN renders identically everywhere.
std::string Render(const Result<Value>& r) {
  if (!r.ok()) return "<error>";
  return std::string(FieldTypeToString(r->type())) + ":" + r->ToString();
}

// Evaluates `e` with the tree walk on every row (the reference), then in
// row mode — on a one-row batch per tuple and on each lane of `batch` —
// and in batch mode, and expects identical results everywhere. Batch mode
// must fail iff some lane fails.
void ExpectAllModesAgree(const Expr& e, const std::vector<Tuple>& rows,
                         const TupleBatch& batch,
                         ExprProgram::BatchScratch* scratch) {
  auto prog = ExprProgram::TryCompile(&e);
  ASSERT_TRUE(prog.ok()) << e.ToString();

  // Tree walk per row = ground truth.
  std::vector<std::string> want;
  bool any_error = false;
  for (const Tuple& row : rows) {
    EvalContext ctx;
    ctx.input = &row;
    Result<Value> r = Evaluate(e, ctx);
    any_error |= !r.ok();
    want.push_back(Render(r));
  }

  TupleBatch one(batch.num_cols(), 1);
  for (size_t i = 0; i < rows.size(); ++i) {
    one.Clear();
    one.AppendTuple(rows[i]);
    ExprProgram::RowContext rc;
    rc.batch = &one;
    EXPECT_EQ(Render(prog->EvalRow(rc)), want[i])
        << "row-mode(tuple) " << e.ToString() << " row " << i;
    ExprProgram::RowContext bc;
    bc.batch = &batch;
    bc.row = i;
    EXPECT_EQ(Render(prog->EvalRow(bc)), want[i])
        << "row-mode(batch) " << e.ToString() << " row " << i;
  }

  scratch->Reset();
  VecCol out;
  ExprProgram::BatchContext bctx;
  bctx.batch = &batch;
  Status s = prog->EvalBatch(bctx, scratch, &out);
  EXPECT_EQ(s.ok(), !any_error) << e.ToString() << " " << s.ToString();
  if (s.ok()) {
    for (size_t i = 0; i < rows.size(); ++i) {
      Value v = MaterializeRawValue(out.type[i], out.raw[i]);
      EXPECT_EQ(Render(Result<Value>(std::move(v))), want[i])
          << "batch-mode " << e.ToString() << " row " << i;
    }
  }
}

TEST(ExprProgramTest, DifferentialRandomExpressionsRowAndBatch) {
  constexpr size_t kRows = 64;
  constexpr int kIters = 400;

  // A batch of varied rows: mostly uints (the packet case), with doubles,
  // ints, bools and nulls mixed in to stress the coercion lanes.
  TupleBatch batch(8, kRows);
  std::vector<Tuple> rows;
  Pcg64 data_rng(0xdeadULL, 0xbeefULL);
  for (size_t i = 0; i < kRows; ++i) {
    std::vector<Value> vals;
    for (size_t c = 0; c < 8; ++c) {
      switch (data_rng.NextBounded(10)) {
        case 0:
          vals.push_back(Value::Double(
              static_cast<double>(data_rng.NextBounded(1000)) / 4.0));
          break;
        case 1:
          vals.push_back(Value::Int(
              static_cast<int64_t>(data_rng.NextBounded(1000)) - 500));
          break;
        case 2:
          vals.push_back(Value::Bool(data_rng.NextBounded(2) != 0));
          break;
        case 3:
          vals.push_back(Value::Null());
          break;
        default:
          vals.push_back(Value::UInt(data_rng.NextBounded(300)));
          break;
      }
    }
    Tuple t(std::move(vals));
    batch.AppendTuple(t);
    rows.push_back(std::move(t));
  }

  RandomExprGen gen(0x5eedULL);
  ExprProgram::BatchScratch scratch;
  for (int iter = 0; iter < kIters; ++iter) {
    ExprPtr e = gen.Gen(4);
    ExpectAllModesAgree(*e, rows, batch, &scratch);
  }
}

// Signed overflow at the int64 edges: the tree walk, row mode and batch
// mode all wrap in two's complement and agree lane for lane.
TEST(ExprProgramTest, DifferentialSignedOverflowWraps) {
  const std::vector<Tuple> rows = {
      Tuple({Value::Int(INT64_MIN), Value::Int(-1)}),
      Tuple({Value::Int(INT64_MAX), Value::Int(1)}),
      Tuple({Value::Int(INT64_MIN), Value::Int(2)}),
      Tuple({Value::UInt(0), Value::UInt(uint64_t{1} << 63)}),
      Tuple({Value::UInt(0), Value::UInt(UINT64_MAX)}),
      Tuple({Value::Int(-7), Value::Int(-1)})};
  TupleBatch batch(2, rows.size());
  for (const Tuple& t : rows) batch.AppendTuple(t);
  ExprPtr c0 = Expr::InputRef("c0", 0);
  ExprPtr c1 = Expr::InputRef("c1", 1);
  ExprProgram::BatchScratch scratch;
  for (BinaryOp op : {BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul,
                      BinaryOp::kDiv, BinaryOp::kMod}) {
    ExpectAllModesAgree(*Expr::Binary(op, c0->Clone(), c1->Clone()), rows,
                        batch, &scratch);
  }
  ExpectAllModesAgree(*Expr::Unary(UnaryOp::kNeg, c0->Clone()), rows, batch,
                      &scratch);
  ExpectAllModesAgree(*Scalar("ABS", {c0->Clone()}), rows, batch, &scratch);

  auto div = ExprProgram::TryCompile(
      Expr::Binary(BinaryOp::kDiv, c0->Clone(), c1->Clone()).get());
  ASSERT_TRUE(div.ok());
  ExprProgram::RowContext rc;
  rc.batch = &batch;
  EXPECT_EQ(*div->EvalRow(rc), Value::Int(INT64_MIN));  // INT64_MIN / -1
}

// Programs size their own stacks: nesting far deeper than the operator
// ever needed before compiles, and agrees with the tree walk.
TEST(ExprProgramTest, DeepExpressionsCompileAndAgree) {
  const std::vector<Tuple> rows = {Tuple({Value::UInt(3), Value::UInt(0)}),
                                   Tuple({Value::UInt(9), Value::UInt(4)})};
  TupleBatch batch(2, rows.size());
  for (const Tuple& t : rows) batch.AppendTuple(t);
  ExprProgram::BatchScratch scratch;

  // 1 + (1 + (... c0 ...)): a 256-deep value stack.
  ExprPtr sum = Expr::InputRef("c0", 0);
  for (int i = 0; i < 256; ++i) {
    sum = Expr::Binary(BinaryOp::kAdd, Expr::Literal(Value::UInt(1)),
                       std::move(sum));
  }
  auto prog = ExprProgram::TryCompile(sum.get());
  ASSERT_TRUE(prog.ok());
  EXPECT_EQ(prog->stack_size(), 257u);
  ExpectAllModesAgree(*sum, rows, batch, &scratch);

  // c1 != 0 AND (c1 != 0 AND (... c0 / c1 > 1 ...)): 64 nested masks, so
  // the guarded division never runs on the zero lane.
  ExprPtr guarded = Expr::Binary(
      BinaryOp::kGt,
      Expr::Binary(BinaryOp::kDiv, Expr::InputRef("c0", 0),
                   Expr::InputRef("c1", 1)),
      Expr::Literal(Value::UInt(1)));
  for (int i = 0; i < 64; ++i) {
    guarded = Expr::Binary(
        i % 2 == 0 ? BinaryOp::kAnd : BinaryOp::kOr,
        Expr::Binary(i % 2 == 0 ? BinaryOp::kNe : BinaryOp::kEq,
                     Expr::InputRef("c1", 1), Expr::Literal(Value::UInt(0))),
        std::move(guarded));
  }
  ExpectAllModesAgree(*guarded, rows, batch, &scratch);
}

// Lane-wise short-circuit: a guard that masks out the error lanes means
// the batch must evaluate cleanly, exactly as tuple-at-a-time would.
TEST(ExprProgramTest, BatchShortCircuitSuppressesGuardedDivisionByZero) {
  // c1 != 0 AND c0 / c1 > 1
  ExprPtr guard =
      Expr::Binary(BinaryOp::kNe, Expr::InputRef("c1", 1),
                   Expr::Literal(Value::UInt(0)));
  ExprPtr div = Expr::Binary(
      BinaryOp::kGt,
      Expr::Binary(BinaryOp::kDiv, Expr::InputRef("c0", 0),
                   Expr::InputRef("c1", 1)),
      Expr::Literal(Value::UInt(1)));
  ExprPtr e = Expr::Binary(BinaryOp::kAnd, std::move(guard), div->Clone());
  auto prog = ExprProgram::TryCompile(e.get());
  ASSERT_TRUE(prog.ok());

  TupleBatch batch(2, 4);
  batch.AppendTuple(Tuple({Value::UInt(10), Value::UInt(2)}));   // true
  batch.AppendTuple(Tuple({Value::UInt(10), Value::UInt(0)}));   // guarded
  batch.AppendTuple(Tuple({Value::UInt(10), Value::UInt(20)}));  // false
  batch.AppendTuple(Tuple({Value::UInt(10), Value::UInt(0)}));   // guarded

  ExprProgram::BatchScratch scratch;
  VecCol out;
  ExprProgram::BatchContext ctx;
  ctx.batch = &batch;
  ASSERT_TRUE(prog->EvalBatch(ctx, &scratch, &out).ok());
  EXPECT_EQ(out.raw[0], 1u);
  EXPECT_EQ(out.raw[1], 0u);
  EXPECT_EQ(out.raw[2], 0u);
  EXPECT_EQ(out.raw[3], 0u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(out.type[i], static_cast<uint8_t>(FieldType::kBool));
  }

  // Unguarded, the zero lane must abort the batch — the caller then
  // evaluates lane by lane in row mode to position the error exactly.
  auto div_only = ExprProgram::TryCompile(div.get());
  ASSERT_TRUE(div_only.ok());
  scratch.Reset();
  Status s = div_only->EvalBatch(ctx, &scratch, &out);
  EXPECT_FALSE(s.ok());

  // ...but lanes masked out by the selection vector never evaluate.
  batch.set_selected(1, false);
  batch.set_selected(3, false);
  scratch.Reset();
  EXPECT_TRUE(div_only->EvalBatch(ctx, &scratch, &out).ok());
}

TEST(ExprProgramTest, GroupByRefsReadKeyColumns) {
  // tb % 2 = 0 where tb is group-by slot 0.
  ExprPtr e = Expr::Binary(
      BinaryOp::kEq,
      Expr::Binary(BinaryOp::kMod, Expr::GroupByRef("tb", 0),
                   Expr::Literal(Value::UInt(2))),
      Expr::Literal(Value::UInt(0)));
  auto prog = ExprProgram::TryCompile(e.get());
  ASSERT_TRUE(prog.ok());
  EXPECT_TRUE(prog->reads_group_by());
  EXPECT_TRUE(prog->batchable());

  TupleBatch batch(1, 4);
  for (int i = 0; i < 4; ++i) batch.AppendTuple(Tuple({Value::UInt(i)}));
  VecCol tb;
  tb.raw = {5, 6, 7, 8};
  tb.type.assign(4, static_cast<uint8_t>(FieldType::kUInt));
  const VecCol* key_cols[] = {&tb};

  ExprProgram::BatchContext ctx;
  ctx.batch = &batch;
  ctx.key_cols = key_cols;
  ctx.num_key_cols = 1;
  ExprProgram::BatchScratch scratch;
  VecCol out;
  ASSERT_TRUE(prog->EvalBatch(ctx, &scratch, &out).ok());
  EXPECT_EQ(out.raw[0], 0u);
  EXPECT_EQ(out.raw[1], 1u);
  EXPECT_EQ(out.raw[2], 0u);
  EXPECT_EQ(out.raw[3], 1u);

  // Row mode against the same key columns.
  for (size_t i = 0; i < 4; ++i) {
    ExprProgram::RowContext rc;
    rc.batch = &batch;
    rc.row = i;
    rc.key_cols = key_cols;
    rc.num_key_cols = 1;
    auto r = prog->EvalRow(rc);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->bool_value(), i % 2 == 1);  // tb=5,6,7,8 -> odd lanes even
  }
}

}  // namespace
}  // namespace streamop
