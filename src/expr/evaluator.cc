#include "expr/evaluator.h"

#include <cmath>

#include "expr/aggregate.h"
#include "expr/scalar_function.h"
#include "expr/stateful.h"

namespace streamop {

namespace {

// Numeric tower for arithmetic: double if either side is double; signed if
// either side is signed; otherwise unsigned.
enum class NumClass { kUInt, kInt, kDouble };

NumClass ClassOf(const Value& v) {
  switch (v.type()) {
    case FieldType::kDouble:
      return NumClass::kDouble;
    case FieldType::kInt:
      return NumClass::kInt;
    default:
      return NumClass::kUInt;
  }
}

NumClass Promote(NumClass a, NumClass b) {
  if (a == NumClass::kDouble || b == NumClass::kDouble) {
    return NumClass::kDouble;
  }
  if (a == NumClass::kInt || b == NumClass::kInt) return NumClass::kInt;
  return NumClass::kUInt;
}

Result<Value> Arith(BinaryOp op, const Value& l, const Value& r) {
  if (!IsNumeric(l.type()) || !IsNumeric(r.type())) {
    return Status::TypeError("arithmetic on non-numeric values: " +
                             l.ToString() + " " + BinaryOpToString(op) + " " +
                             r.ToString());
  }
  switch (Promote(ClassOf(l), ClassOf(r))) {
    case NumClass::kDouble: {
      double a = l.AsDouble();
      double b = r.AsDouble();
      switch (op) {
        case BinaryOp::kAdd:
          return Value::Double(a + b);
        case BinaryOp::kSub:
          return Value::Double(a - b);
        case BinaryOp::kMul:
          return Value::Double(a * b);
        case BinaryOp::kDiv:
          if (b == 0.0) return Status::InvalidArgument("division by zero");
          return Value::Double(a / b);
        case BinaryOp::kMod:
          if (b == 0.0) return Status::InvalidArgument("modulo by zero");
          return Value::Double(std::fmod(a, b));
        default:
          break;
      }
      break;
    }
    case NumClass::kInt: {
      // Signed arithmetic wraps in two's complement, as UInt arithmetic
      // does: computed in uint64_t, so overflow is never undefined, and
      // INT64_MIN / -1 (which traps in hardware) is INT64_MIN.
      int64_t a = l.AsInt();
      int64_t b = r.AsInt();
      const uint64_t ua = static_cast<uint64_t>(a);
      const uint64_t ub = static_cast<uint64_t>(b);
      switch (op) {
        case BinaryOp::kAdd:
          return Value::Int(static_cast<int64_t>(ua + ub));
        case BinaryOp::kSub:
          return Value::Int(static_cast<int64_t>(ua - ub));
        case BinaryOp::kMul:
          return Value::Int(static_cast<int64_t>(ua * ub));
        case BinaryOp::kDiv:
          if (b == 0) return Status::InvalidArgument("division by zero");
          if (b == -1) return Value::Int(static_cast<int64_t>(0 - ua));
          return Value::Int(a / b);
        case BinaryOp::kMod:
          if (b == 0) return Status::InvalidArgument("modulo by zero");
          if (b == -1) return Value::Int(0);
          return Value::Int(a % b);
        default:
          break;
      }
      break;
    }
    case NumClass::kUInt: {
      uint64_t a = l.AsUInt();
      uint64_t b = r.AsUInt();
      switch (op) {
        case BinaryOp::kAdd:
          return Value::UInt(a + b);
        case BinaryOp::kSub:
          // Unsigned subtraction that would underflow switches to signed,
          // matching user expectations for timestamp deltas. The wrapped
          // difference is the two's complement of the signed one.
          if (b > a) return Value::Int(static_cast<int64_t>(a - b));
          return Value::UInt(a - b);
        case BinaryOp::kMul:
          return Value::UInt(a * b);
        case BinaryOp::kDiv:
          if (b == 0) return Status::InvalidArgument("division by zero");
          return Value::UInt(a / b);
        case BinaryOp::kMod:
          if (b == 0) return Status::InvalidArgument("modulo by zero");
          return Value::UInt(a % b);
        default:
          break;
      }
      break;
    }
  }
  return Status::Internal("unhandled arithmetic operator");
}

// A call's arguments, left to right.
Result<std::vector<Value>> EvaluateArgs(const Expr& call,
                                        const EvalContext& ctx) {
  std::vector<Value> args;
  args.reserve(call.children.size());
  for (const ExprPtr& c : call.children) {
    STREAMOP_ASSIGN_OR_RETURN(Value v, Evaluate(*c, ctx));
    args.push_back(std::move(v));
  }
  return args;
}

}  // namespace

int CompareValues(const Value& a, const Value& b) {
  if (a.type() == FieldType::kString && b.type() == FieldType::kString) {
    int c = a.string_value().compare(b.string_value());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  if (a.type() == FieldType::kUInt && b.type() == FieldType::kUInt) {
    uint64_t x = a.uint_value();
    uint64_t y = b.uint_value();
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  if (a.type() == FieldType::kBool && b.type() == FieldType::kBool) {
    int x = a.bool_value() ? 1 : 0;
    int y = b.bool_value() ? 1 : 0;
    return x - y;
  }
  double x = a.AsDouble();
  double y = b.AsDouble();
  return x < y ? -1 : (x > y ? 1 : 0);
}

Result<Value> EvalBinaryValues(BinaryOp op, const Value& l, const Value& r) {
  switch (op) {
    case BinaryOp::kEq:
      return Value::Bool(CompareValues(l, r) == 0);
    case BinaryOp::kNe:
      return Value::Bool(CompareValues(l, r) != 0);
    case BinaryOp::kLt:
      return Value::Bool(CompareValues(l, r) < 0);
    case BinaryOp::kLe:
      return Value::Bool(CompareValues(l, r) <= 0);
    case BinaryOp::kGt:
      return Value::Bool(CompareValues(l, r) > 0);
    case BinaryOp::kGe:
      return Value::Bool(CompareValues(l, r) >= 0);
    default:
      return Arith(op, l, r);
  }
}

Value EvalUnaryValue(UnaryOp op, const Value& v) {
  if (op == UnaryOp::kNot) return Value::Bool(!v.AsBool());
  if (v.type() == FieldType::kDouble) return Value::Double(-v.double_value());
  // Two's-complement negation: -INT64_MIN wraps to INT64_MIN.
  return Value::Int(
      static_cast<int64_t>(0 - static_cast<uint64_t>(v.AsInt())));
}

Result<Value> Evaluate(const Expr& expr, const EvalContext& ctx) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal;

    case ExprKind::kColumnRef: {
      if (expr.source == RefSource::kInput) {
        if (ctx.input == nullptr ||
            expr.slot >= static_cast<int>(ctx.input->size())) {
          return Status::Internal("input tuple unavailable for column '" +
                                  expr.column_name + "'");
        }
        return ctx.input->at(static_cast<size_t>(expr.slot));
      }
      if (expr.source == RefSource::kGroupBy) {
        if (ctx.group_key == nullptr ||
            expr.slot >= static_cast<int>(ctx.group_key->size())) {
          return Status::Internal("group key unavailable for variable '" +
                                  expr.column_name + "'");
        }
        return ctx.group_key->at(static_cast<size_t>(expr.slot));
      }
      return Status::Internal("unresolved column reference '" +
                              expr.column_name + "'");
    }

    case ExprKind::kUnary: {
      STREAMOP_ASSIGN_OR_RETURN(Value v, Evaluate(*expr.children[0], ctx));
      return EvalUnaryValue(expr.uop, v);
    }

    case ExprKind::kBinary: {
      if (expr.bop == BinaryOp::kAnd || expr.bop == BinaryOp::kOr) {
        STREAMOP_ASSIGN_OR_RETURN(Value l, Evaluate(*expr.children[0], ctx));
        bool lb = l.AsBool();
        if (expr.bop == BinaryOp::kAnd && !lb) return Value::Bool(false);
        if (expr.bop == BinaryOp::kOr && lb) return Value::Bool(true);
        STREAMOP_ASSIGN_OR_RETURN(Value r, Evaluate(*expr.children[1], ctx));
        return Value::Bool(r.AsBool());
      }
      STREAMOP_ASSIGN_OR_RETURN(Value l, Evaluate(*expr.children[0], ctx));
      STREAMOP_ASSIGN_OR_RETURN(Value r, Evaluate(*expr.children[1], ctx));
      return EvalBinaryValues(expr.bop, l, r);
    }

    case ExprKind::kScalarCall: {
      STREAMOP_ASSIGN_OR_RETURN(std::vector<Value> args,
                                EvaluateArgs(expr, ctx));
      return expr.scalar->fn(args.data(), args.size());
    }

    case ExprKind::kStatefulCall: {
      if (ctx.sfun_states == nullptr || expr.sfun_state_slot < 0 ||
          static_cast<size_t>(expr.sfun_state_slot) >= ctx.num_sfun_states) {
        return Status::Internal("stateful function '" + expr.func_name +
                                "' called without live state");
      }
      STREAMOP_ASSIGN_OR_RETURN(std::vector<Value> args,
                                EvaluateArgs(expr, ctx));
      void* state = ctx.sfun_states[expr.sfun_state_slot];
      if (obs::kStatsEnabled && ctx.sfun_calls != nullptr) {
        ++*ctx.sfun_calls;
      }
      return expr.sfun->call(state, args.data(), args.size());
    }

    case ExprKind::kAggregateRef: {
      if (ctx.aggregates == nullptr ||
          expr.agg_slot >= static_cast<int>(ctx.aggregates->size())) {
        return Status::Internal("aggregate value unavailable in this clause");
      }
      return (*ctx.aggregates)[static_cast<size_t>(expr.agg_slot)];
    }

    case ExprKind::kSuperAggRef: {
      if (ctx.superaggs == nullptr ||
          expr.agg_slot >= static_cast<int>(ctx.superaggs->size())) {
        return Status::Internal(
            "superaggregate value unavailable in this clause");
      }
      return (*ctx.superaggs)[static_cast<size_t>(expr.agg_slot)];
    }

    case ExprKind::kCall:
      return Status::Internal("unanalyzed call '" + expr.func_name +
                              "' reached the evaluator");
  }
  return Status::Internal("unhandled expression kind");
}

Result<bool> EvaluatePredicate(const Expr* expr, const EvalContext& ctx) {
  if (expr == nullptr) return true;
  STREAMOP_ASSIGN_OR_RETURN(Value v, Evaluate(*expr, ctx));
  return v.AsBool();
}

}  // namespace streamop
