// The operator semantics kernels shared by every evaluator, and the
// tree-walk interpreter kept as the reference implementation.
//
// EvalBinaryValues / EvalUnaryValue / CompareValues define what each
// operator does; the bytecode interpreters (src/expr/program.h), which run
// every clause in the engine, apply operators only through them.
// Evaluate() walks an analyzed expression against an EvalContext. The
// engine does not call it: it is the oracle the expression tests compare
// the bytecode against, one node at a time and with no shared control
// flow, so a compiler or interpreter bug cannot hide in both.

#ifndef STREAMOP_EXPR_EVALUATOR_H_
#define STREAMOP_EXPR_EVALUATOR_H_

#include <vector>

#include "common/status.h"
#include "expr/expr.h"
#include "obs/metrics.h"
#include "tuple/tuple.h"

namespace streamop {

/// The data sources an expression may read during one evaluation. Any
/// member may be null if that source is not live in the current clause.
struct EvalContext {
  const Tuple* input = nullptr;              // raw stream tuple
  const GroupKey* group_key = nullptr;       // computed group-by values
  const std::vector<Value>* aggregates = nullptr;   // group aggregate finals
  const std::vector<Value>* superaggs = nullptr;    // superaggregate finals
  void* const* sfun_states = nullptr;        // state blobs by sfun_state_slot
  size_t num_sfun_states = 0;
  uint64_t* sfun_calls = nullptr;            // counts stateful-fn invocations
                                             // (plain; owner batches into the
                                             // registry counter)
};

/// Evaluates an analyzed expression. Errors indicate bugs in analysis
/// (unresolved reference) or runtime issues (division by zero).
Result<Value> Evaluate(const Expr& expr, const EvalContext& ctx);

/// Evaluates a predicate: null/absent -> true (an omitted clause always
/// passes), otherwise truthiness of the result.
Result<bool> EvaluatePredicate(const Expr* expr, const EvalContext& ctx);

/// Compares two values with numeric cross-type promotion; returns -1/0/+1.
int CompareValues(const Value& a, const Value& b);

/// Applies one non-short-circuit binary operator (comparison or arithmetic)
/// to already-evaluated operands — the single source of truth for operator
/// semantics, shared by the tree walk above and the bytecode interpreter
/// (src/expr/program.cc). kAnd/kOr are not accepted here: their
/// short-circuit evaluation lives with the control flow, not the operands.
Result<Value> EvalBinaryValues(BinaryOp op, const Value& l, const Value& r);

/// Applies a unary operator to an already-evaluated operand. NOT yields the
/// negated truthiness; negation stays double for doubles and goes through
/// AsInt for everything else, exactly as the tree walk does.
Value EvalUnaryValue(UnaryOp op, const Value& v);

}  // namespace streamop

#endif  // STREAMOP_EXPR_EVALUATOR_H_
