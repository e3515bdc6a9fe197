// Unit tests for src/expr: AST construction, evaluation semantics
// (numeric promotion, comparisons, short-circuiting, errors), scalar
// functions, aggregates, and the stateful-function registry.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/serde.h"
#include "expr/aggregate.h"
#include "expr/evaluator.h"
#include "expr/expr.h"
#include "expr/scalar_function.h"
#include "expr/stateful.h"
#include "tuple/tuple.h"
#include "tuple/tuple_batch.h"

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

// One accumulator with its own state and flag byte, as a group record
// holds them.
class TestAccumulator {
 public:
  explicit TestAccumulator(AggregateKind kind, double param = 0.0)
      : acc_(kind, param) {
    acc_.Construct(state_, &flags_);
  }
  ~TestAccumulator() { acc_.Destroy(state_); }
  TestAccumulator(const TestAccumulator&) = delete;
  TestAccumulator& operator=(const TestAccumulator&) = delete;

  void Update(const Value& v, double weight = 1.0) {
    acc_.Update(state_, &flags_, v, weight);
  }
  void UpdateLane(uint8_t type, uint64_t raw, double weight = 1.0) {
    acc_.Update(state_, &flags_, type, raw, weight);
  }
  Status Subtract(const Value& v) { return acc_.Subtract(state_, &flags_, v); }
  Value Final() const { return acc_.Final(state_, flags_); }
  uint8_t flags() const { return flags_; }
  // Every kind's state leads with its CountState.
  const CountState& counts() const {
    return *static_cast<const CountState*>(static_cast<const void*>(state_));
  }
  std::string Bytes() const {
    ByteWriter w;
    acc_.SerializeTo(state_, flags_, w);
    return w.Release();
  }
  bool Restore(const std::string& bytes) {
    ByteReader r(bytes);
    acc_.RestoreFrom(state_, &flags_, r);
    return r.ok() && r.remaining() == 0;
  }

 private:
  Accumulator acc_;
  alignas(8) std::byte state_[sizeof(SumState)];
  uint8_t flags_ = 0;
};

constexpr AggregateKind kAllKinds[] = {
    AggregateKind::kSum,   AggregateKind::kCount, AggregateKind::kMin,
    AggregateKind::kMax,   AggregateKind::kAvg,   AggregateKind::kFirst,
    AggregateKind::kLast,  AggregateKind::kQuantile};

TEST(AggregateTest, SumStaysUnsignedForUIntInputs) {
  TestAccumulator acc(AggregateKind::kSum);
  acc.Update(Value::UInt(10));
  acc.Update(Value::UInt(32));
  Value v = acc.Final();
  EXPECT_EQ(v, Value::UInt(42));
}

TEST(AggregateTest, SumPromotesToDoubleOnMixedInput) {
  TestAccumulator acc(AggregateKind::kSum);
  acc.Update(Value::UInt(1));
  acc.Update(Value::Double(0.5));
  Value v = acc.Final();
  EXPECT_EQ(v.type(), FieldType::kDouble);
  EXPECT_DOUBLE_EQ(v.double_value(), 1.5);
}

TEST(AggregateTest, CountStarIgnoresPayload) {
  TestAccumulator acc(AggregateKind::kCount);
  acc.Update(Value::Null());
  acc.Update(Value::UInt(9));
  EXPECT_EQ(acc.Final(), Value::UInt(2));
}

TEST(AggregateTest, MinMaxFirstLast) {
  TestAccumulator mn(AggregateKind::kMin), mx(AggregateKind::kMax);
  TestAccumulator fi(AggregateKind::kFirst), la(AggregateKind::kLast);
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
  TestAccumulator acc(AggregateKind::kAvg);
  acc.Update(Value::UInt(1));
  acc.Update(Value::UInt(2));
  Value v = acc.Final();
  EXPECT_DOUBLE_EQ(v.double_value(), 1.5);
}

TEST(AggregateTest, EmptyFinals) {
  EXPECT_EQ(TestAccumulator(AggregateKind::kSum).Final(), Value::UInt(0));
  EXPECT_EQ(TestAccumulator(AggregateKind::kCount).Final(), Value::UInt(0));
  EXPECT_TRUE(TestAccumulator(AggregateKind::kMin).Final().is_null());
  EXPECT_DOUBLE_EQ(
      TestAccumulator(AggregateKind::kAvg).Final().double_value(), 0.0);
}

TEST(AggregateTest, SubtractSupportedForSumCount) {
  TestAccumulator sum(AggregateKind::kSum);
  sum.Update(Value::UInt(10));
  sum.Update(Value::UInt(20));
  EXPECT_TRUE(sum.Subtract(Value::UInt(10)).ok());
  EXPECT_EQ(sum.Final(), Value::UInt(20));

  TestAccumulator mn(AggregateKind::kMin);
  mn.Update(Value::UInt(1));
  EXPECT_EQ(mn.Subtract(Value::UInt(1)).code(), StatusCode::kUnimplemented);
}

TEST(AggregateTest, StateSizesPerKind) {
  EXPECT_EQ(Accumulator(AggregateKind::kCount).state_size(), 16u);
  EXPECT_EQ(Accumulator(AggregateKind::kSum).state_size(), 32u);
  EXPECT_EQ(Accumulator(AggregateKind::kAvg).state_size(), 32u);
  for (AggregateKind k : {AggregateKind::kMin, AggregateKind::kMax,
                          AggregateKind::kFirst, AggregateKind::kLast}) {
    EXPECT_EQ(Accumulator(k).state_size(), 32u);
  }
  EXPECT_EQ(Accumulator(AggregateKind::kQuantile, 0.5).state_size(), 24u);
}

TEST(AggregateTest, AllUIntClearsOnTheFirstNonUIntInputOfASum) {
  // sum/avg keep the exact unsigned sum until an input is not UInt; from
  // then on the double sum reports, even after more UInt inputs. The other
  // kinds never touch the flag (it stays at its initial value, which is
  // what snapshots have always carried).
  for (AggregateKind k : kAllKinds) {
    SCOPED_TRACE(static_cast<int>(k));
    TestAccumulator acc(k, 0.5);
    acc.Update(Value::UInt(3));
    acc.Update(Value::UInt(4));
    EXPECT_NE(acc.flags() & kAccAllUInt, 0);
    acc.Update(Value::Double(0.5));
    acc.Update(Value::UInt(2));
    const bool sum = k == AggregateKind::kSum || k == AggregateKind::kAvg;
    EXPECT_EQ((acc.flags() & kAccAllUInt) != 0, !sum);
    EXPECT_EQ(acc.flags() & kAccWeighted, 0);
    EXPECT_EQ(acc.counts().count, 4u);
    EXPECT_EQ(acc.counts().weight_sum, 4.0);
  }
  TestAccumulator sum(AggregateKind::kSum);
  sum.Update(Value::UInt(3));
  EXPECT_EQ(sum.Final(), Value::UInt(3));
  sum.Update(Value::Int(-1));
  sum.Update(Value::UInt(5));
  EXPECT_EQ(sum.Final(), Value::Double(7.0));
  TestAccumulator avg(AggregateKind::kAvg);
  avg.Update(Value::UInt(3));
  avg.Update(Value::Double(1.5));
  EXPECT_EQ(avg.Final(), Value::Double(2.25));
  TestAccumulator mn(AggregateKind::kMin), mx(AggregateKind::kMax);
  for (const Value& v : {Value::UInt(3), Value::Double(2.5), Value::Int(-1),
                         Value::UInt(4)}) {
    mn.Update(v);
    mx.Update(v);
  }
  EXPECT_EQ(mn.Final(), Value::Int(-1));
  EXPECT_EQ(mx.Final(), Value::UInt(4));
}

TEST(AggregateTest, WeightOneToWMovesCountsAndSumsIntoDoubleSpace) {
  // Two updates at weight 1.0, then one at 2.5: `weighted` turns on,
  // weight_sum leaves count behind, and count/sum/avg report
  // Horvitz–Thompson doubles. The order statistics ignore the weight.
  const uint64_t inputs[] = {10, 20, 30};
  const double weights[] = {1.0, 1.0, 2.5};
  for (AggregateKind k : kAllKinds) {
    SCOPED_TRACE(static_cast<int>(k));
    TestAccumulator acc(k, 0.5);
    for (int j = 0; j < 3; ++j) {
      acc.Update(Value::UInt(inputs[j]), weights[j]);
      EXPECT_EQ((acc.flags() & kAccWeighted) != 0, j == 2);
    }
    EXPECT_EQ(acc.counts().count, 3u);
    EXPECT_EQ(acc.counts().weight_sum, 4.5);
    switch (k) {
      case AggregateKind::kCount:
        EXPECT_EQ(acc.Final(), Value::Double(4.5));
        break;
      case AggregateKind::kSum:
        EXPECT_EQ(acc.Final(), Value::Double(10 + 20 + 2.5 * 30));
        EXPECT_EQ(acc.flags() & kAccAllUInt, 0);
        break;
      case AggregateKind::kAvg:
        EXPECT_EQ(acc.Final(), Value::Double((10 + 20 + 2.5 * 30) / 4.5));
        break;
      case AggregateKind::kMin:
      case AggregateKind::kFirst:
        EXPECT_EQ(acc.Final(), Value::UInt(10));
        break;
      case AggregateKind::kMax:
      case AggregateKind::kLast:
        EXPECT_EQ(acc.Final(), Value::UInt(30));
        break;
      case AggregateKind::kQuantile: {
        TestAccumulator unweighted(k, 0.5);
        for (uint64_t v : inputs) unweighted.Update(Value::UInt(v));
        EXPECT_EQ(acc.Final(), unweighted.Final());
        EXPECT_EQ(acc.Final().type(), FieldType::kDouble);
        break;
      }
    }
  }
  // A weight back at 1.0 does not make a weighted sum exact again.
  TestAccumulator sum(AggregateKind::kSum);
  sum.Update(Value::UInt(1), 2.0);
  sum.Update(Value::UInt(1), 1.0);
  EXPECT_EQ(sum.Final(), Value::Double(3.0));
}

TEST(AggregateTest, LaneUpdatesMatchValueUpdates) {
  // The operator feeds (type, raw) lanes; row mode feeds Values. Both
  // must leave byte-identical state, strings and mixed types included.
  const std::string apple = "apple", pear = "pear";
  const std::vector<Value> values = {
      Value::UInt(7),        Value::String(pear), Value::Double(-2.5),
      Value::Int(-9),        Value::Bool(true),   Value::Null(),
      Value::String(apple),  Value::UInt(3)};
  for (AggregateKind k : kAllKinds) {
    SCOPED_TRACE(static_cast<int>(k));
    TestAccumulator by_value(k, 0.25), by_lane(k, 0.25);
    std::deque<std::string> strings;
    for (size_t j = 0; j < values.size(); ++j) {
      const double w = j % 3 == 2 ? 1.5 : 1.0;
      by_value.Update(values[j], w);
      by_lane.UpdateLane(static_cast<uint8_t>(values[j].type()),
                         EncodeRawValue(values[j], &strings), w);
    }
    EXPECT_EQ(by_lane.Bytes(), by_value.Bytes());
    EXPECT_EQ(by_lane.Final(), by_value.Final());
  }
  TestAccumulator mn(AggregateKind::kMin), mx(AggregateKind::kMax);
  std::deque<std::string> strings;
  for (const std::string& s : {pear, apple, std::string("fig")}) {
    const uint64_t raw = EncodeRawValue(Value::String(s), &strings);
    mn.UpdateLane(static_cast<uint8_t>(FieldType::kString), raw);
    mx.UpdateLane(static_cast<uint8_t>(FieldType::kString), raw);
  }
  EXPECT_EQ(mn.Final(), Value::String(apple));
  EXPECT_EQ(mx.Final(), Value::String(pear));
}

TEST(AggregateTest, SnapshotRoundTripsEveryKindAndRejectsAnotherKind) {
  for (AggregateKind k : kAllKinds) {
    SCOPED_TRACE(static_cast<int>(k));
    TestAccumulator acc(k, 0.9);
    const std::string empty = acc.Bytes();
    for (uint64_t v = 1; v <= 50; ++v) {
      acc.Update(Value::UInt(v * 7 % 23), v > 40 ? 2.0 : 1.0);
    }
    const std::string bytes = acc.Bytes();
    TestAccumulator back(k, 0.9);
    ASSERT_TRUE(back.Restore(bytes));
    EXPECT_EQ(back.Bytes(), bytes);
    EXPECT_EQ(back.Final(), acc.Final());
    TestAccumulator fresh(k, 0.9);
    ASSERT_TRUE(fresh.Restore(empty));
    EXPECT_EQ(fresh.Bytes(), empty);

    // The encoding names its kind and param; another plan's accumulator
    // refuses it.
    const AggregateKind other =
        k == AggregateKind::kCount ? AggregateKind::kSum : AggregateKind::kCount;
    TestAccumulator wrong_kind(other, 0.9);
    EXPECT_FALSE(wrong_kind.Restore(bytes));
    TestAccumulator wrong_param(k, 0.5);
    EXPECT_FALSE(wrong_param.Restore(bytes));
  }
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
