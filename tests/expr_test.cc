// Unit tests for src/expr: AST construction, evaluation semantics
// (numeric promotion, comparisons, short-circuiting, errors), scalar
// functions, aggregates, and the stateful-function registry.

#include <gtest/gtest.h>

#include <cstdint>

#include "expr/aggregate.h"
#include "expr/evaluator.h"
#include "expr/expr.h"
#include "expr/scalar_function.h"
#include "expr/stateful.h"
#include "tuple/tuple.h"

namespace streamop {
namespace {

Value Eval(const ExprPtr& e, const EvalContext& ctx = {}) {
  Result<Value> r = Evaluate(*e, ctx);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? *r : Value::Null();
}

// ---------- literals and column refs ----------

TEST(ExprTest, LiteralEvaluatesToItself) {
  EXPECT_EQ(Eval(Expr::Literal(Value::UInt(5))), Value::UInt(5));
  EXPECT_EQ(Eval(Expr::Literal(Value::String("x"))), Value::String("x"));
}

TEST(ExprTest, InputColumnRef) {
  Tuple input({Value::UInt(10), Value::String("a")});
  EvalContext ctx;
  ctx.input = &input;
  EXPECT_EQ(Eval(Expr::InputRef("c0", 0), ctx), Value::UInt(10));
  EXPECT_EQ(Eval(Expr::InputRef("c1", 1), ctx), Value::String("a"));
}

TEST(ExprTest, GroupByRef) {
  GroupKey key({Value::UInt(7)});
  EvalContext ctx;
  ctx.group_key = &key;
  EXPECT_EQ(Eval(Expr::GroupByRef("g", 0), ctx), Value::UInt(7));
}

TEST(ExprTest, UnresolvedColumnIsError) {
  Result<Value> r = Evaluate(*Expr::Column("x"), EvalContext{});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ExprTest, MissingContextIsError) {
  Result<Value> r = Evaluate(*Expr::InputRef("c", 0), EvalContext{});
  EXPECT_FALSE(r.ok());
}

// ---------- arithmetic ----------

ExprPtr Bin(BinaryOp op, Value l, Value r) {
  return Expr::Binary(op, Expr::Literal(std::move(l)),
                      Expr::Literal(std::move(r)));
}

TEST(ExprTest, UnsignedArithmetic) {
  EXPECT_EQ(Eval(Bin(BinaryOp::kAdd, Value::UInt(2), Value::UInt(3))),
            Value::UInt(5));
  EXPECT_EQ(Eval(Bin(BinaryOp::kMul, Value::UInt(4), Value::UInt(5))),
            Value::UInt(20));
  EXPECT_EQ(Eval(Bin(BinaryOp::kDiv, Value::UInt(45), Value::UInt(20))),
            Value::UInt(2));  // integer division (time/20 bucketing)
  EXPECT_EQ(Eval(Bin(BinaryOp::kMod, Value::UInt(45), Value::UInt(20))),
            Value::UInt(5));
}

TEST(ExprTest, UnsignedSubtractionUnderflowGoesSigned) {
  EXPECT_EQ(Eval(Bin(BinaryOp::kSub, Value::UInt(3), Value::UInt(5))),
            Value::Int(-2));
  EXPECT_EQ(Eval(Bin(BinaryOp::kSub, Value::UInt(5), Value::UInt(3))),
            Value::UInt(2));
}

TEST(ExprTest, DoublePromotion) {
  Value v = Eval(Bin(BinaryOp::kDiv, Value::UInt(1), Value::Double(4.0)));
  EXPECT_EQ(v.type(), FieldType::kDouble);
  EXPECT_DOUBLE_EQ(v.double_value(), 0.25);
}

TEST(ExprTest, SignedPromotion) {
  Value v = Eval(Bin(BinaryOp::kAdd, Value::Int(-1), Value::UInt(3)));
  EXPECT_EQ(v.type(), FieldType::kInt);
  EXPECT_EQ(v.int_value(), 2);
}

// Signed overflow wraps in two's complement, as unsigned arithmetic does,
// instead of being undefined: one case per operator.
constexpr int64_t kMin = INT64_MIN;
constexpr int64_t kMax = INT64_MAX;

TEST(ExprTest, SignedAddWraps) {
  EXPECT_EQ(Eval(Bin(BinaryOp::kAdd, Value::Int(kMax), Value::Int(1))),
            Value::Int(kMin));
}

TEST(ExprTest, SignedSubWraps) {
  EXPECT_EQ(Eval(Bin(BinaryOp::kSub, Value::Int(kMin), Value::Int(1))),
            Value::Int(kMax));
}

TEST(ExprTest, SignedMulWraps) {
  EXPECT_EQ(Eval(Bin(BinaryOp::kMul, Value::Int(kMin), Value::Int(-1))),
            Value::Int(kMin));
  EXPECT_EQ(Eval(Bin(BinaryOp::kMul, Value::Int(kMax), Value::Int(2))),
            Value::Int(-2));
}

TEST(ExprTest, SignedDivOfMinByMinusOneWraps) {
  // Traps in hardware when computed natively.
  EXPECT_EQ(Eval(Bin(BinaryOp::kDiv, Value::Int(kMin), Value::Int(-1))),
            Value::Int(kMin));
  EXPECT_EQ(Eval(Bin(BinaryOp::kDiv, Value::Int(7), Value::Int(-1))),
            Value::Int(-7));
}

TEST(ExprTest, SignedModOfMinByMinusOneIsZero) {
  EXPECT_EQ(Eval(Bin(BinaryOp::kMod, Value::Int(kMin), Value::Int(-1))),
            Value::Int(0));
  EXPECT_EQ(Eval(Bin(BinaryOp::kMod, Value::Int(-7), Value::Int(2))),
            Value::Int(-1));
}

TEST(ExprTest, UnsignedUnderflowToSignedWraps) {
  // 0 - 2^63 is INT64_MIN; 0 - UINT64_MAX wraps to 1.
  EXPECT_EQ(Eval(Bin(BinaryOp::kSub, Value::UInt(0),
                     Value::UInt(uint64_t{1} << 63))),
            Value::Int(kMin));
  EXPECT_EQ(Eval(Bin(BinaryOp::kSub, Value::UInt(0), Value::UInt(UINT64_MAX))),
            Value::Int(1));
}

TEST(ExprTest, NegationOfMinWraps) {
  EXPECT_EQ(Eval(Expr::Unary(UnaryOp::kNeg, Expr::Literal(Value::Int(kMin)))),
            Value::Int(kMin));
}

TEST(ExprTest, DivisionByZeroIsError) {
  Result<Value> r =
      Evaluate(*Bin(BinaryOp::kDiv, Value::UInt(1), Value::UInt(0)), {});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  r = Evaluate(*Bin(BinaryOp::kMod, Value::Int(1), Value::Int(0)), {});
  EXPECT_FALSE(r.ok());
}

TEST(ExprTest, ArithmeticOnStringIsTypeError) {
  Result<Value> r =
      Evaluate(*Bin(BinaryOp::kAdd, Value::String("a"), Value::UInt(1)), {});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTypeError);
}

// ---------- comparisons and logic ----------

TEST(ExprTest, ComparisonsCrossType) {
  EXPECT_EQ(Eval(Bin(BinaryOp::kLt, Value::UInt(1), Value::Double(1.5))),
            Value::Bool(true));
  EXPECT_EQ(Eval(Bin(BinaryOp::kEq, Value::UInt(2), Value::Int(2))),
            Value::Bool(true));  // numeric equality across types
  EXPECT_EQ(Eval(Bin(BinaryOp::kGe, Value::UInt(2), Value::UInt(2))),
            Value::Bool(true));
  EXPECT_EQ(Eval(Bin(BinaryOp::kNe, Value::UInt(2), Value::UInt(3))),
            Value::Bool(true));
}

TEST(ExprTest, StringComparisonLexicographic) {
  EXPECT_EQ(Eval(Bin(BinaryOp::kLt, Value::String("abc"), Value::String("abd"))),
            Value::Bool(true));
  EXPECT_EQ(Eval(Bin(BinaryOp::kEq, Value::String("x"), Value::String("x"))),
            Value::Bool(true));
}

TEST(ExprTest, LargeUInt64ComparedExactly) {
  uint64_t big = (1ULL << 63) + 1;
  EXPECT_EQ(Eval(Bin(BinaryOp::kGt, Value::UInt(big), Value::UInt(big - 1))),
            Value::Bool(true));
}

TEST(ExprTest, AndOrShortCircuit) {
  // RHS would fail (division by zero) if evaluated.
  ExprPtr bad = Bin(BinaryOp::kDiv, Value::UInt(1), Value::UInt(0));
  ExprPtr e = Expr::Binary(BinaryOp::kAnd, Expr::Literal(Value::Bool(false)),
                           bad);
  EXPECT_EQ(Eval(e), Value::Bool(false));
  e = Expr::Binary(BinaryOp::kOr, Expr::Literal(Value::Bool(true)), bad);
  EXPECT_EQ(Eval(e), Value::Bool(true));
}

TEST(ExprTest, NotAndNegation) {
  EXPECT_EQ(Eval(Expr::Unary(UnaryOp::kNot, Expr::Literal(Value::Bool(true)))),
            Value::Bool(false));
  EXPECT_EQ(Eval(Expr::Unary(UnaryOp::kNeg, Expr::Literal(Value::UInt(5)))),
            Value::Int(-5));
  EXPECT_EQ(
      Eval(Expr::Unary(UnaryOp::kNeg, Expr::Literal(Value::Double(1.5)))),
      Value::Double(-1.5));
}

TEST(ExprTest, PredicateSemantics) {
  EvalContext ctx;
  Result<bool> r = EvaluatePredicate(nullptr, ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);  // omitted clause always passes
  ExprPtr zero = Expr::Literal(Value::UInt(0));
  EXPECT_FALSE(*EvaluatePredicate(zero.get(), ctx));
}

// ---------- Clone / ToString ----------

TEST(ExprTest, CloneIsDeep) {
  ExprPtr e = Expr::Binary(BinaryOp::kAdd, Expr::Column("a"),
                           Expr::Literal(Value::UInt(1)));
  ExprPtr c = e->Clone();
  c->children[0]->column_name = "b";
  EXPECT_EQ(e->children[0]->column_name, "a");
}

TEST(ExprTest, ToStringRoundRepresentation) {
  ExprPtr e = Expr::Binary(BinaryOp::kDiv, Expr::Column("time"),
                           Expr::Literal(Value::UInt(60)));
  EXPECT_EQ(e->ToString(), "(time / 60)");
  ExprPtr call = Expr::Call("sum", {Expr::Column("len")});
  EXPECT_EQ(call->ToString(), "sum(len)");
  ExprPtr super = Expr::Call("count_distinct", {}, /*is_super=*/true);
  super->star_arg = true;
  EXPECT_EQ(super->ToString(), "count_distinct$(*)");
}

// ---------- scalar functions ----------

Value CallScalar(const std::string& name, std::vector<Value> args) {
  const ScalarFunctionDef* def = ScalarFunctionRegistry::Global().Find(name);
  EXPECT_NE(def, nullptr) << name;
  Result<Value> r = def->fn(args.data(), args.size());
  EXPECT_TRUE(r.ok());
  return r.ok() ? *r : Value::Null();
}

TEST(ScalarFunctionTest, Umax) {
  EXPECT_EQ(CallScalar("UMAX", {Value::UInt(3), Value::UInt(9)}),
            Value::UInt(9));
  EXPECT_EQ(CallScalar("umax", {Value::UInt(9), Value::UInt(3)}),
            Value::UInt(9));  // case-insensitive lookup
}

TEST(ScalarFunctionTest, UminDmaxDmin) {
  EXPECT_EQ(CallScalar("UMIN", {Value::UInt(3), Value::UInt(9)}),
            Value::UInt(3));
  EXPECT_EQ(CallScalar("DMAX", {Value::Double(1.5), Value::Double(2.5)}),
            Value::Double(2.5));
  EXPECT_EQ(CallScalar("DMIN", {Value::Double(1.5), Value::Double(2.5)}),
            Value::Double(1.5));
}

TEST(ScalarFunctionTest, HashFunctionDeterministicAndSeeded) {
  Value h1 = CallScalar("H", {Value::UInt(42)});
  Value h2 = CallScalar("H", {Value::UInt(42)});
  Value h3 = CallScalar("H", {Value::UInt(42), Value::UInt(7)});
  EXPECT_EQ(h1, h2);
  EXPECT_NE(h1, h3);
}

TEST(ScalarFunctionTest, AbsFloatUintIpstr) {
  EXPECT_EQ(CallScalar("ABS", {Value::Int(-4)}), Value::Int(4));
  // Two's complement: ABS(INT64_MIN) wraps to itself.
  EXPECT_EQ(CallScalar("ABS", {Value::Int(INT64_MIN)}), Value::Int(INT64_MIN));
  EXPECT_EQ(CallScalar("ABS", {Value::Double(-4.5)}), Value::Double(4.5));
  EXPECT_EQ(CallScalar("FLOAT", {Value::UInt(2)}), Value::Double(2.0));
  EXPECT_EQ(CallScalar("UINT", {Value::Double(2.9)}), Value::UInt(2));
  EXPECT_EQ(CallScalar("IPSTR", {Value::UInt(0x0a000001)}),
            Value::String("10.0.0.1"));
}

TEST(ScalarFunctionTest, PrioDeterministicAndScaled) {
  // PRIO(w, key): deterministic per key, >= w, and changes with the seed.
  Value a = CallScalar("PRIO", {Value::UInt(100), Value::UInt(7)});
  Value b = CallScalar("PRIO", {Value::UInt(100), Value::UInt(7)});
  Value c = CallScalar("PRIO", {Value::UInt(100), Value::UInt(8)});
  Value d = CallScalar("PRIO",
                       {Value::UInt(100), Value::UInt(7), Value::UInt(99)});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  EXPECT_GE(a.AsDouble(), 100.0);  // q = w/u with u in (0,1]
}

TEST(ScalarFunctionTest, UnknownReturnsNull) {
  EXPECT_EQ(ScalarFunctionRegistry::Global().Find("no_such_fn"), nullptr);
}

TEST(ScalarFunctionTest, DuplicateRegistrationRejected) {
  ScalarFunctionDef def;
  def.name = "UMAX";
  def.min_args = def.max_args = 2;
  def.fn = [](const Value*, size_t) -> Result<Value> {
    return Value::Null();
  };
  Status s = ScalarFunctionRegistry::Global().Register(def);
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
}

// ---------- aggregates ----------

TEST(AggregateTest, LookupKinds) {
  AggregateKind k;
  EXPECT_TRUE(LookupAggregateKind("SUM", &k));
  EXPECT_EQ(k, AggregateKind::kSum);
  EXPECT_TRUE(LookupAggregateKind("count", &k));
  EXPECT_TRUE(LookupAggregateKind("first", &k));
  EXPECT_TRUE(LookupAggregateKind("median", &k));
  EXPECT_EQ(k, AggregateKind::kQuantile);
  EXPECT_TRUE(LookupAggregateKind("quantile", &k));
  EXPECT_FALSE(LookupAggregateKind("mode", &k));
}

TEST(AggregateTest, SumStaysUnsignedForUIntInputs) {
  AggregateAccumulator acc(AggregateKind::kSum);
  acc.Update(Value::UInt(10));
  acc.Update(Value::UInt(32));
  Value v = acc.Final();
  EXPECT_EQ(v, Value::UInt(42));
}

TEST(AggregateTest, SumPromotesToDoubleOnMixedInput) {
  AggregateAccumulator acc(AggregateKind::kSum);
  acc.Update(Value::UInt(1));
  acc.Update(Value::Double(0.5));
  Value v = acc.Final();
  EXPECT_EQ(v.type(), FieldType::kDouble);
  EXPECT_DOUBLE_EQ(v.double_value(), 1.5);
}

TEST(AggregateTest, CountStarIgnoresPayload) {
  AggregateAccumulator acc(AggregateKind::kCount);
  acc.Update(Value::Null());
  acc.Update(Value::UInt(9));
  EXPECT_EQ(acc.Final(), Value::UInt(2));
}

TEST(AggregateTest, MinMaxFirstLast) {
  AggregateAccumulator mn(AggregateKind::kMin), mx(AggregateKind::kMax);
  AggregateAccumulator fi(AggregateKind::kFirst), la(AggregateKind::kLast);
  for (uint64_t v : {5u, 2u, 9u, 4u}) {
    mn.Update(Value::UInt(v));
    mx.Update(Value::UInt(v));
    fi.Update(Value::UInt(v));
    la.Update(Value::UInt(v));
  }
  EXPECT_EQ(mn.Final(), Value::UInt(2));
  EXPECT_EQ(mx.Final(), Value::UInt(9));
  EXPECT_EQ(fi.Final(), Value::UInt(5));
  EXPECT_EQ(la.Final(), Value::UInt(4));
}

TEST(AggregateTest, AvgIsDouble) {
  AggregateAccumulator acc(AggregateKind::kAvg);
  acc.Update(Value::UInt(1));
  acc.Update(Value::UInt(2));
  Value v = acc.Final();
  EXPECT_DOUBLE_EQ(v.double_value(), 1.5);
}

TEST(AggregateTest, EmptyFinals) {
  EXPECT_EQ(AggregateAccumulator(AggregateKind::kSum).Final(), Value::UInt(0));
  EXPECT_EQ(AggregateAccumulator(AggregateKind::kCount).Final(),
            Value::UInt(0));
  EXPECT_TRUE(AggregateAccumulator(AggregateKind::kMin).Final().is_null());
  EXPECT_DOUBLE_EQ(
      AggregateAccumulator(AggregateKind::kAvg).Final().double_value(), 0.0);
}

TEST(AggregateTest, SubtractSupportedForSumCount) {
  AggregateAccumulator sum(AggregateKind::kSum);
  sum.Update(Value::UInt(10));
  sum.Update(Value::UInt(20));
  EXPECT_TRUE(sum.Subtract(Value::UInt(10)).ok());
  EXPECT_EQ(sum.Final(), Value::UInt(20));

  AggregateAccumulator mn(AggregateKind::kMin);
  mn.Update(Value::UInt(1));
  EXPECT_EQ(mn.Subtract(Value::UInt(1)).code(), StatusCode::kUnimplemented);
}

TEST(AggregateTest, MergeCombines) {
  AggregateAccumulator a(AggregateKind::kSum), b(AggregateKind::kSum);
  a.Update(Value::UInt(1));
  b.Update(Value::UInt(2));
  a.Merge(b);
  EXPECT_EQ(a.Final(), Value::UInt(3));

  AggregateAccumulator m1(AggregateKind::kMax), m2(AggregateKind::kMax);
  m1.Update(Value::UInt(5));
  m2.Update(Value::UInt(9));
  m1.Merge(m2);
  EXPECT_EQ(m1.Final(), Value::UInt(9));
}

// ---------- stateful registry ----------

TEST(SfunRegistryTest, BuiltinPackagesPresent) {
  EnsureBuiltinSfunPackagesRegistered();
  SfunRegistry& reg = SfunRegistry::Global();
  EXPECT_NE(reg.FindFunction("ssample"), nullptr);
  EXPECT_NE(reg.FindFunction("SSTHRESHOLD"), nullptr);  // case-insensitive
  EXPECT_NE(reg.FindFunction("rsample"), nullptr);
  EXPECT_NE(reg.FindFunction("local_count"), nullptr);
  EXPECT_NE(reg.FindState("subsetsum_sampling_state"), nullptr);
  EXPECT_EQ(reg.FindFunction("no_such_sfun"), nullptr);
}

TEST(SfunRegistryTest, FunctionsShareDeclaredState) {
  EnsureBuiltinSfunPackagesRegistered();
  SfunRegistry& reg = SfunRegistry::Global();
  const SfunDef* a = reg.FindFunction("ssample");
  const SfunDef* b = reg.FindFunction("ssdo_clean");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->state, b->state);  // one shared state per package
}

TEST(SfunRegistryTest, RejectsFunctionWithoutState) {
  SfunDef def;
  def.name = "orphan_fn";
  def.state = nullptr;
  Status s = SfunRegistry::Global().RegisterFunction(def);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace streamop
