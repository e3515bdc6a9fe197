// Compiled expression programs: the analyzed Expr tree flattened into a
// compact postfix bytecode, executed either one row at a time or
// column-at-a-time over a TupleBatch with a selection-vector mask (the
// batched hot path, DESIGN.md §9). This is the engine's only expression
// evaluator: every clause of every query runs through it.
//
// The compiler covers every analyzed expression kind at any depth: each
// program measures its own value-stack, mask-stack and call-argument needs
// at compile time, so TryCompile fails only for an unresolved column
// reference or an unanalyzed call. Both interpreters route
// binary/unary operator application through the evaluator's
// EvalBinaryValues/EvalUnaryValue kernels, so results are bit-identical to
// the tree-walk Evaluate(), which stays as the reference the tests compare
// against (tests/expr_program_test.cc, tests/expr_test.cc).
//
// Short-circuit AND/OR compile to probe/end opcode pairs. In row mode the
// probe jumps over the right operand exactly as the tree walk
// short-circuits. In batch mode the probe pushes a narrowed lane mask, so
// the right operand is evaluated only on lanes where it matters — lane-wise
// short-circuit: a guarded division like `b != 0 AND a/b > 2` never traps
// on guarded lanes, matching per-tuple semantics.

#ifndef STREAMOP_EXPR_PROGRAM_H_
#define STREAMOP_EXPR_PROGRAM_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "expr/expr.h"
#include "tuple/tuple.h"
#include "tuple/tuple_batch.h"
#include "tuple/value.h"

namespace streamop {

enum class OpCode : uint8_t {
  kPushLiteral,   // a = literal index
  kLoadInput,     // a = input schema slot
  kLoadGroupBy,   // a = group-by variable slot
  kLoadAgg,       // a = aggregate final slot (row mode only)
  kLoadSuperAgg,  // a = superaggregate final slot (row mode only)
  kNot,
  kNeg,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAndProbe,  // a = jump target past the matching kAndEnd
  kAndEnd,
  kOrProbe,   // a = jump target past the matching kOrEnd
  kOrEnd,
  kScalarCall,  // a = arg count, fn = ScalarFunctionDef*
  kSfunCall,    // a = arg count, b = sfun state slot, fn = SfunDef*
};

struct Instr {
  OpCode op;
  int32_t a = 0;
  int32_t b = 0;
  const void* fn = nullptr;
};

// VecCol — the materialized expression-result column type — lives in
// tuple/tuple_batch.h: it is the same struct as a TupleBatch column, so an
// identity program's result can alias its input column without a copy.

class ExprProgram {
 public:
  /// An empty program: the slot of a clause the query does not have. It is
  /// never evaluated.
  ExprProgram() = default;

  // String literals are referenced by address from the flattened literal
  // pool, so programs move but never copy.
  ExprProgram(const ExprProgram&) = delete;
  ExprProgram& operator=(const ExprProgram&) = delete;
  ExprProgram(ExprProgram&&) = default;
  ExprProgram& operator=(ExprProgram&&) = default;

  /// Compiles an analyzed expression. Fails only for a null expression, an
  /// unresolved column reference or an unanalyzed call — never for an
  /// expression the analyzer accepted.
  static Result<ExprProgram> TryCompile(const Expr* expr);

  // What the program reads / mutates — the operator uses these to decide
  // which clauses may run column-at-a-time.
  bool has_sfun() const { return has_sfun_; }
  bool reads_input() const { return reads_input_; }
  bool reads_group_by() const { return reads_group_by_; }
  bool reads_agg() const { return reads_agg_; }
  bool reads_superagg() const { return reads_superagg_; }

  /// True if the program can run column-at-a-time: no per-lane state
  /// mutation (SFUNs) and no per-group/per-supergroup inputs. All scalar
  /// builtins are pure, so scalar calls stay batchable.
  bool batchable() const {
    return !has_sfun_ && !reads_agg_ && !reads_superagg_;
  }

  /// If the whole program is a single input-column load, its slot — the
  /// caller can use the batch column directly instead of evaluating.
  /// -1 otherwise.
  int identity_input_slot() const {
    return (code_.size() == 1 && code_[0].op == OpCode::kLoadInput)
               ? code_[0].a
               : -1;
  }

  size_t num_instructions() const { return code_.size(); }

  /// Value-stack slots row mode needs (see RowContext::scratch_stack).
  size_t stack_size() const { return max_stack_; }

  /// Disassembly for golden-program tests and debugging.
  std::string ToString() const;

  // ---------------------------------------------------------------------
  // Row mode: evaluate one row. Input comes from a batch lane; group-by
  // variables from precomputed key columns or from a group's key values
  // (the group-scope clauses HAVING, SELECT and CLEANING BY, which have no
  // input). Semantics identical to Evaluate().
  struct RowContext {
    const TupleBatch* batch = nullptr;  // input source
    size_t row = 0;                     // lane for batch / key_cols reads
    const Value* group_values = nullptr;  // per group-by slot
    size_t num_group_values = 0;
    const VecCol* const* key_cols = nullptr;  // per group-by slot
    size_t num_key_cols = 0;
    const std::vector<Value>* aggregates = nullptr;
    const std::vector<Value>* superaggs = nullptr;
    void* const* sfun_states = nullptr;
    size_t num_sfun_states = 0;
    uint64_t* sfun_calls = nullptr;
    // Reusable value stack of at least stack_size() slots. Hot callers
    // pass one sized once for all their programs; left null, EvalRow
    // allocates one per call. Never shared across concurrent evaluations.
    Value* scratch_stack = nullptr;
  };

  Result<Value> EvalRow(const RowContext& ctx) const;

  // ---------------------------------------------------------------------
  // Batch mode: evaluate column-at-a-time over every masked-in lane.
  struct BatchContext {
    const TupleBatch* batch = nullptr;
    // Lanes to evaluate; null means the batch's own selection vector.
    const uint8_t* mask = nullptr;
    const VecCol* const* key_cols = nullptr;  // per group-by slot
    size_t num_key_cols = 0;
  };

  /// A column operand during batch evaluation: borrowed pointers plus a
  /// stride so literal splats (stride 0) read lane 0 everywhere.
  struct ColRef {
    const uint64_t* raw;
    const uint8_t* type;
    size_t stride;  // 1 = per-lane column, 0 = splat
    int slot;       // backing scratch slot, or -1 if borrowed
  };

  /// Reusable per-caller evaluation state, sized by each program's measured
  /// depths. Reaches steady-state capacity after one evaluation of the
  /// deepest program and never allocates again for string-free data.
  /// String results accumulate in `owned` across evaluations (their
  /// addresses are stored in result columns); call Reset() once per batch,
  /// after all columns derived from the previous batch are dead.
  struct BatchScratch {
    std::vector<VecCol> slots;                // value stack backing
    std::vector<ColRef> refs;                 // value stack operands
    std::vector<std::vector<uint8_t>> masks;  // pushed mask backing
    std::vector<const uint8_t*> mask_refs;    // mask stack
    std::vector<Value> args;                  // one lane's call arguments
    std::deque<std::string> owned;            // string results (stable addrs)

    void Reset() {
      if (!owned.empty()) owned.clear();
    }
  };

  /// Evaluates over all masked-in lanes of the batch into `out` (lanes
  /// outside the mask hold nulls — callers must not read them). Any lane
  /// error (division by zero on an *active* lane, scalar-call failure)
  /// aborts the whole batch with that Status; the caller then evaluates
  /// the clause lane by lane in row mode, which reproduces exact
  /// tuple-at-a-time error positioning. Requires batchable().
  Status EvalBatch(const BatchContext& ctx, BatchScratch* scratch,
                   VecCol* out) const;

 private:
  Result<Value> EvalRowOn(const RowContext& ctx, Value* stack) const;

  // Peephole for the hot predicate shape `fn(simple args...)` optionally
  // followed by `= literal` (ssample admission, cleaning triggers): the
  // arguments are plain loads, so EvalRow fills them and calls the function
  // directly instead of running the interpreter loop. Same semantics and
  // error positions as the bytecode it summarizes.
  struct FastCall {
    bool is_sfun = false;
    int32_t nargs = 0;
    int32_t state_slot = 0;   // sfun state index (sfun calls only)
    int32_t cmp_literal = -1; // literal index of a trailing kEq, -1: none
    const void* fn = nullptr;
  };
  void DetectFastCall();
  Result<Value> EvalFastCall(const RowContext& ctx, Value* stack) const;

  struct CompileState;
  static bool CompileNode(const Expr& e, CompileState* st);
  void FinalizeLiterals();

  std::vector<Instr> code_;
  std::vector<Value> literals_;
  // Flattened (type, raw) encoding of literals_, built once post-compile;
  // string raws point at literals_[i]'s payload (stable: literals_ is
  // immutable after FinalizeLiterals and programs are move-only).
  std::vector<uint64_t> literal_raw_;
  std::vector<uint8_t> literal_type_;
  std::optional<FastCall> fast_call_;
  size_t max_stack_ = 0;
  size_t max_masks_ = 0;
  size_t max_args_ = 0;  // widest scalar call (batch-mode argument scratch)
  bool has_sfun_ = false;
  bool reads_input_ = false;
  bool reads_group_by_ = false;
  bool reads_agg_ = false;
  bool reads_superagg_ = false;
};

/// Compiles an operator's clauses, keeping what evaluating them needs: the
/// first compile error and the deepest row-mode value stack.
struct ClauseCompiler {
  Status status;
  size_t stack_size = 1;

  /// Compiles `expr` into *out. A null expression (a clause the query
  /// lacks) leaves *out empty, as does a failure.
  void Compile(const Expr* expr, ExprProgram* out);
};

}  // namespace streamop

#endif  // STREAMOP_EXPR_PROGRAM_H_
