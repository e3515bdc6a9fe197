#include "expr/program.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "expr/evaluator.h"
#include "expr/scalar_function.h"
#include "expr/stateful.h"
#include "obs/metrics.h"

namespace streamop {

namespace {

constexpr uint8_t kNullTag = static_cast<uint8_t>(FieldType::kNull);
constexpr uint8_t kBoolTag = static_cast<uint8_t>(FieldType::kBool);
constexpr uint8_t kUIntTag = static_cast<uint8_t>(FieldType::kUInt);
constexpr uint8_t kIntTag = static_cast<uint8_t>(FieldType::kInt);
constexpr uint8_t kDoubleTag = static_cast<uint8_t>(FieldType::kDouble);
constexpr uint8_t kStringTag = static_cast<uint8_t>(FieldType::kString);

inline bool IsNumericTag(uint8_t t) {
  return t == kUIntTag || t == kIntTag || t == kDoubleTag;
}

/// Value::AsDouble over a (type, raw) lane: null/string -> 0.0, bool 0/1.
inline double RawAsDouble(uint8_t t, uint64_t raw) {
  switch (t) {
    case kUIntTag:
      return static_cast<double>(raw);
    case kIntTag:
      return static_cast<double>(static_cast<int64_t>(raw));
    case kDoubleTag:
      return std::bit_cast<double>(raw);
    case kBoolTag:
      return raw != 0 ? 1.0 : 0.0;
    default:  // kNull / kString coerce to 0.0
      return 0.0;
  }
}

using ColRef = ExprProgram::ColRef;

inline uint8_t LaneType(const ColRef& c, size_t i) {
  return c.type[i * c.stride];
}
inline uint64_t LaneRaw(const ColRef& c, size_t i) {
  return c.raw[i * c.stride];
}
inline Value LaneValue(const ColRef& c, size_t i) {
  return MaterializeRawValue(LaneType(c, i), LaneRaw(c, i));
}

/// Stores a computed Value into an output lane; string payloads are copied
/// into the scratch-owned deque so their addresses survive the batch.
inline void WriteLane(VecCol* col, size_t i, const Value& v,
                      std::deque<std::string>* owned) {
  col->raw[i] = EncodeRawValue(v, owned);
  col->type[i] = static_cast<uint8_t>(v.type());
}

inline void ClearLane(VecCol* col, size_t i) {
  col->raw[i] = 0;
  col->type[i] = kNullTag;
}

const char* OpName(OpCode op) {
  switch (op) {
    case OpCode::kPushLiteral:
      return "push_lit";
    case OpCode::kLoadInput:
      return "load_input";
    case OpCode::kLoadGroupBy:
      return "load_group";
    case OpCode::kLoadAgg:
      return "load_agg";
    case OpCode::kLoadSuperAgg:
      return "load_super";
    case OpCode::kNot:
      return "not";
    case OpCode::kNeg:
      return "neg";
    case OpCode::kAdd:
      return "add";
    case OpCode::kSub:
      return "sub";
    case OpCode::kMul:
      return "mul";
    case OpCode::kDiv:
      return "div";
    case OpCode::kMod:
      return "mod";
    case OpCode::kEq:
      return "eq";
    case OpCode::kNe:
      return "ne";
    case OpCode::kLt:
      return "lt";
    case OpCode::kLe:
      return "le";
    case OpCode::kGt:
      return "gt";
    case OpCode::kGe:
      return "ge";
    case OpCode::kAndProbe:
      return "and_probe";
    case OpCode::kAndEnd:
      return "and_end";
    case OpCode::kOrProbe:
      return "or_probe";
    case OpCode::kOrEnd:
      return "or_end";
    case OpCode::kScalarCall:
      return "scall";
    case OpCode::kSfunCall:
      return "sfun";
  }
  return "?";
}

}  // namespace

// ---------------------------------------------------------------------------
// Compiler

struct ExprProgram::CompileState {
  ExprProgram prog;
  size_t depth = 0;       // simulated value-stack depth
  size_t mask_depth = 0;  // simulated AND/OR nesting depth

  void Emit(OpCode op, int32_t a = 0, int32_t b = 0,
            const void* fn = nullptr) {
    prog.code_.push_back(Instr{op, a, b, fn});
  }
  bool Push() {
    if (++depth > prog.max_stack_) prog.max_stack_ = depth;
    return true;
  }
  void Pop(size_t n) { depth -= n; }
  // Records a call's argument count; zero-argument calls push their result.
  bool Call(size_t nargs) {
    if (nargs > prog.max_args_) prog.max_args_ = nargs;
    if (nargs == 0) return Push();
    Pop(nargs - 1);
    return true;
  }
};

bool ExprProgram::CompileNode(const Expr& e, CompileState* st) {
  switch (e.kind) {
    case ExprKind::kLiteral: {
      int32_t idx = static_cast<int32_t>(st->prog.literals_.size());
      st->prog.literals_.push_back(e.literal);
      st->Emit(OpCode::kPushLiteral, idx);
      return st->Push();
    }

    case ExprKind::kColumnRef: {
      if (e.slot < 0) return false;  // unresolved reference
      if (e.source == RefSource::kInput) {
        st->prog.reads_input_ = true;
        st->Emit(OpCode::kLoadInput, e.slot);
      } else if (e.source == RefSource::kGroupBy) {
        st->prog.reads_group_by_ = true;
        st->Emit(OpCode::kLoadGroupBy, e.slot);
      } else {
        return false;
      }
      return st->Push();
    }

    case ExprKind::kUnary:
      if (!CompileNode(*e.children[0], st)) return false;
      st->Emit(e.uop == UnaryOp::kNot ? OpCode::kNot : OpCode::kNeg);
      return true;

    case ExprKind::kBinary: {
      if (e.bop == BinaryOp::kAnd || e.bop == BinaryOp::kOr) {
        if (++st->mask_depth > st->prog.max_masks_) {
          st->prog.max_masks_ = st->mask_depth;
        }
        if (!CompileNode(*e.children[0], st)) return false;
        bool is_and = e.bop == BinaryOp::kAnd;
        size_t probe = st->prog.code_.size();
        st->Emit(is_and ? OpCode::kAndProbe : OpCode::kOrProbe);
        // The probe consumes the left operand and the end pushes the
        // result, so the right operand compiles at the same depth.
        st->Pop(1);
        if (!CompileNode(*e.children[1], st)) return false;
        st->Emit(is_and ? OpCode::kAndEnd : OpCode::kOrEnd);
        st->prog.code_[probe].a =
            static_cast<int32_t>(st->prog.code_.size());
        --st->mask_depth;
        return true;
      }
      if (!CompileNode(*e.children[0], st)) return false;
      if (!CompileNode(*e.children[1], st)) return false;
      switch (e.bop) {
        case BinaryOp::kAdd:
          st->Emit(OpCode::kAdd);
          break;
        case BinaryOp::kSub:
          st->Emit(OpCode::kSub);
          break;
        case BinaryOp::kMul:
          st->Emit(OpCode::kMul);
          break;
        case BinaryOp::kDiv:
          st->Emit(OpCode::kDiv);
          break;
        case BinaryOp::kMod:
          st->Emit(OpCode::kMod);
          break;
        case BinaryOp::kEq:
          st->Emit(OpCode::kEq);
          break;
        case BinaryOp::kNe:
          st->Emit(OpCode::kNe);
          break;
        case BinaryOp::kLt:
          st->Emit(OpCode::kLt);
          break;
        case BinaryOp::kLe:
          st->Emit(OpCode::kLe);
          break;
        case BinaryOp::kGt:
          st->Emit(OpCode::kGt);
          break;
        case BinaryOp::kGe:
          st->Emit(OpCode::kGe);
          break;
        default:
          return false;
      }
      st->Pop(1);
      return true;
    }

    case ExprKind::kScalarCall: {
      if (e.scalar == nullptr) return false;
      for (const ExprPtr& c : e.children) {
        if (!CompileNode(*c, st)) return false;
      }
      st->Emit(OpCode::kScalarCall,
               static_cast<int32_t>(e.children.size()), 0, e.scalar);
      return st->Call(e.children.size());
    }

    case ExprKind::kStatefulCall: {
      if (e.sfun == nullptr || e.sfun_state_slot < 0) return false;
      for (const ExprPtr& c : e.children) {
        if (!CompileNode(*c, st)) return false;
      }
      st->prog.has_sfun_ = true;
      st->Emit(OpCode::kSfunCall, static_cast<int32_t>(e.children.size()),
               e.sfun_state_slot, e.sfun);
      return st->Call(e.children.size());
    }

    case ExprKind::kAggregateRef:
      if (e.agg_slot < 0) return false;
      st->prog.reads_agg_ = true;
      st->Emit(OpCode::kLoadAgg, e.agg_slot);
      return st->Push();

    case ExprKind::kSuperAggRef:
      if (e.agg_slot < 0) return false;
      st->prog.reads_superagg_ = true;
      st->Emit(OpCode::kLoadSuperAgg, e.agg_slot);
      return st->Push();

    case ExprKind::kCall:
      return false;  // unanalyzed call
  }
  return false;
}

void ExprProgram::FinalizeLiterals() {
  literal_raw_.resize(literals_.size());
  literal_type_.resize(literals_.size());
  for (size_t i = 0; i < literals_.size(); ++i) {
    const Value& v = literals_[i];
    literal_type_[i] = static_cast<uint8_t>(v.type());
    switch (v.type()) {
      case FieldType::kNull:
        literal_raw_[i] = 0;
        break;
      case FieldType::kBool:
        literal_raw_[i] = v.bool_value() ? 1 : 0;
        break;
      case FieldType::kUInt:
        literal_raw_[i] = v.uint_value();
        break;
      case FieldType::kInt:
        literal_raw_[i] = static_cast<uint64_t>(v.int_value());
        break;
      case FieldType::kDouble:
        literal_raw_[i] = std::bit_cast<uint64_t>(v.double_value());
        break;
      case FieldType::kString:
        literal_raw_[i] =
            reinterpret_cast<uint64_t>(&v.string_value());
        break;
    }
  }
}

void ExprProgram::DetectFastCall() {
  auto is_load = [](OpCode op) {
    return op == OpCode::kPushLiteral || op == OpCode::kLoadInput ||
           op == OpCode::kLoadGroupBy || op == OpCode::kLoadAgg ||
           op == OpCode::kLoadSuperAgg;
  };
  size_t end = code_.size();
  int32_t cmp_literal = -1;
  if (end >= 2 && code_[end - 2].op == OpCode::kPushLiteral &&
      code_[end - 1].op == OpCode::kEq) {
    cmp_literal = code_[end - 2].a;
    end -= 2;
  }
  if (end == 0) return;
  const Instr& call = code_[end - 1];
  if (call.op != OpCode::kScalarCall && call.op != OpCode::kSfunCall) return;
  if (static_cast<size_t>(call.a) != end - 1) return;  // extra operands
  for (size_t k = 0; k + 1 < end; ++k) {
    if (!is_load(code_[k].op)) return;
  }
  FastCall f;
  f.is_sfun = call.op == OpCode::kSfunCall;
  f.nargs = call.a;
  f.state_slot = call.b;
  f.cmp_literal = cmp_literal;
  f.fn = call.fn;
  fast_call_ = f;
}

Result<ExprProgram> ExprProgram::TryCompile(const Expr* expr) {
  if (expr == nullptr) return Status::Internal("no expression to compile");
  CompileState st;
  if (!CompileNode(*expr, &st) || st.depth != 1) {
    return Status::Internal("expression was not analyzed: " +
                            expr->ToString());
  }
  st.prog.FinalizeLiterals();
  st.prog.DetectFastCall();
  return std::move(st.prog);
}

void ClauseCompiler::Compile(const Expr* expr, ExprProgram* out) {
  if (expr == nullptr) return;
  Result<ExprProgram> prog = ExprProgram::TryCompile(expr);
  if (!prog.ok()) {
    if (status.ok()) status = prog.status();
    return;
  }
  stack_size = std::max(stack_size, prog->stack_size());
  *out = std::move(*prog);
}

std::string ExprProgram::ToString() const {
  std::string out;
  char buf[128];
  for (size_t pc = 0; pc < code_.size(); ++pc) {
    const Instr& in = code_[pc];
    switch (in.op) {
      case OpCode::kPushLiteral:
        std::snprintf(buf, sizeof(buf), "%zu: push_lit[%d] ; %s\n", pc, in.a,
                      literals_[in.a].ToString().c_str());
        break;
      case OpCode::kLoadInput:
      case OpCode::kLoadGroupBy:
      case OpCode::kLoadAgg:
      case OpCode::kLoadSuperAgg:
        std::snprintf(buf, sizeof(buf), "%zu: %s[%d]\n", pc, OpName(in.op),
                      in.a);
        break;
      case OpCode::kAndProbe:
      case OpCode::kOrProbe:
        std::snprintf(buf, sizeof(buf), "%zu: %s ->%d\n", pc, OpName(in.op),
                      in.a);
        break;
      case OpCode::kScalarCall:
        std::snprintf(
            buf, sizeof(buf), "%zu: scall %s/%d\n", pc,
            static_cast<const ScalarFunctionDef*>(in.fn)->name.c_str(),
            in.a);
        break;
      case OpCode::kSfunCall:
        std::snprintf(buf, sizeof(buf), "%zu: sfun %s/%d state[%d]\n", pc,
                      static_cast<const SfunDef*>(in.fn)->name.c_str(), in.a,
                      in.b);
        break;
      default:
        std::snprintf(buf, sizeof(buf), "%zu: %s\n", pc, OpName(in.op));
        break;
    }
    out += buf;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Row mode

Result<Value> ExprProgram::EvalRow(const RowContext& ctx) const {
  if (ctx.scratch_stack != nullptr) return EvalRowOn(ctx, ctx.scratch_stack);
  std::vector<Value> stack(max_stack_);
  return EvalRowOn(ctx, stack.data());
}

Result<Value> ExprProgram::EvalFastCall(const RowContext& ctx,
                                        Value* stack) const {
  const FastCall& f = *fast_call_;
  for (int32_t k = 0; k < f.nargs; ++k) {
    const Instr& in = code_[k];
    switch (in.op) {
      case OpCode::kPushLiteral:
        stack[k] = literals_[in.a];
        break;
      case OpCode::kLoadInput: {
        const size_t slot = static_cast<size_t>(in.a);
        if (ctx.batch == nullptr || slot >= ctx.batch->num_cols()) {
          return Status::Internal("input tuple unavailable");
        }
        stack[k] = ctx.batch->ValueAt(ctx.row, slot);
        break;
      }
      case OpCode::kLoadGroupBy: {
        const size_t slot = static_cast<size_t>(in.a);
        if (ctx.key_cols != nullptr) {
          if (slot >= ctx.num_key_cols) {
            return Status::Internal("group key column out of range");
          }
          const VecCol& col = *ctx.key_cols[slot];
          stack[k] = MaterializeRawValue(col.type[ctx.row], col.raw[ctx.row]);
        } else if (ctx.group_values != nullptr &&
                   slot < ctx.num_group_values) {
          stack[k] = ctx.group_values[slot];
        } else {
          return Status::Internal("group key unavailable");
        }
        break;
      }
      case OpCode::kLoadAgg:
        if (ctx.aggregates == nullptr ||
            in.a >= static_cast<int32_t>(ctx.aggregates->size())) {
          return Status::Internal("aggregate value unavailable");
        }
        stack[k] = (*ctx.aggregates)[in.a];
        break;
      case OpCode::kLoadSuperAgg:
        if (ctx.superaggs == nullptr ||
            in.a >= static_cast<int32_t>(ctx.superaggs->size())) {
          return Status::Internal("superaggregate value unavailable");
        }
        stack[k] = (*ctx.superaggs)[in.a];
        break;
      default:
        return Status::Internal("unhandled opcode");  // unreachable by shape
    }
  }
  Value v;
  if (f.is_sfun) {
    if (ctx.sfun_states == nullptr || f.state_slot < 0 ||
        static_cast<size_t>(f.state_slot) >= ctx.num_sfun_states) {
      return Status::Internal("stateful function called without live state");
    }
    auto* def = static_cast<const SfunDef*>(f.fn);
    if (obs::kStatsEnabled && ctx.sfun_calls != nullptr) {
      ++*ctx.sfun_calls;
    }
    v = def->call(ctx.sfun_states[f.state_slot], stack,
                  static_cast<size_t>(f.nargs));
  } else {
    auto* def = static_cast<const ScalarFunctionDef*>(f.fn);
    STREAMOP_ASSIGN_OR_RETURN(v, def->fn(stack, static_cast<size_t>(f.nargs)));
  }
  if (f.cmp_literal >= 0) {
    return EvalBinaryValues(BinaryOp::kEq, v, literals_[f.cmp_literal]);
  }
  return v;
}

Result<Value> ExprProgram::EvalRowOn(const RowContext& ctx,
                                     Value* stack) const {
  if (fast_call_.has_value()) return EvalFastCall(ctx, stack);
  size_t sp = 0;
  size_t pc = 0;
  const size_t n = code_.size();
  while (pc < n) {
    const Instr& in = code_[pc];
    switch (in.op) {
      case OpCode::kPushLiteral:
        stack[sp++] = literals_[in.a];
        break;

      case OpCode::kLoadInput: {
        const size_t slot = static_cast<size_t>(in.a);
        if (ctx.batch == nullptr || slot >= ctx.batch->num_cols()) {
          return Status::Internal("input tuple unavailable");
        }
        stack[sp++] = ctx.batch->ValueAt(ctx.row, slot);
        break;
      }

      case OpCode::kLoadGroupBy: {
        const size_t slot = static_cast<size_t>(in.a);
        if (ctx.key_cols != nullptr) {
          if (slot >= ctx.num_key_cols) {
            return Status::Internal("group key column out of range");
          }
          const VecCol& col = *ctx.key_cols[slot];
          stack[sp++] =
              MaterializeRawValue(col.type[ctx.row], col.raw[ctx.row]);
        } else if (ctx.group_values != nullptr &&
                   slot < ctx.num_group_values) {
          stack[sp++] = ctx.group_values[slot];
        } else {
          return Status::Internal("group key unavailable");
        }
        break;
      }

      case OpCode::kLoadAgg:
        if (ctx.aggregates == nullptr ||
            in.a >= static_cast<int32_t>(ctx.aggregates->size())) {
          return Status::Internal("aggregate value unavailable");
        }
        stack[sp++] = (*ctx.aggregates)[in.a];
        break;

      case OpCode::kLoadSuperAgg:
        if (ctx.superaggs == nullptr ||
            in.a >= static_cast<int32_t>(ctx.superaggs->size())) {
          return Status::Internal("superaggregate value unavailable");
        }
        stack[sp++] = (*ctx.superaggs)[in.a];
        break;

      case OpCode::kNot:
        stack[sp - 1] = Value::Bool(!stack[sp - 1].AsBool());
        break;
      case OpCode::kNeg:
        stack[sp - 1] = EvalUnaryValue(UnaryOp::kNeg, stack[sp - 1]);
        break;

      case OpCode::kAndProbe:
        if (!stack[--sp].AsBool()) {
          stack[sp++] = Value::Bool(false);
          pc = static_cast<size_t>(in.a);
          continue;
        }
        break;
      case OpCode::kOrProbe:
        if (stack[--sp].AsBool()) {
          stack[sp++] = Value::Bool(true);
          pc = static_cast<size_t>(in.a);
          continue;
        }
        break;
      case OpCode::kAndEnd:
      case OpCode::kOrEnd:
        stack[sp - 1] = Value::Bool(stack[sp - 1].AsBool());
        break;

      case OpCode::kScalarCall: {
        const size_t nargs = static_cast<size_t>(in.a);
        // Postfix layout: the arguments already sit contiguously on top of
        // the stack — call straight into them, no marshaling.
        auto* def = static_cast<const ScalarFunctionDef*>(in.fn);
        STREAMOP_ASSIGN_OR_RETURN(Value v,
                                  def->fn(&stack[sp - nargs], nargs));
        sp -= nargs;
        stack[sp++] = std::move(v);
        break;
      }

      case OpCode::kSfunCall: {
        const size_t nargs = static_cast<size_t>(in.a);
        if (ctx.sfun_states == nullptr || in.b < 0 ||
            static_cast<size_t>(in.b) >= ctx.num_sfun_states) {
          return Status::Internal(
              "stateful function called without live state");
        }
        auto* def = static_cast<const SfunDef*>(in.fn);
        void* state = ctx.sfun_states[in.b];
        if (obs::kStatsEnabled && ctx.sfun_calls != nullptr) {
          ++*ctx.sfun_calls;
        }
        Value v = def->call(state, &stack[sp - nargs], nargs);
        sp -= nargs;
        stack[sp++] = std::move(v);
        break;
      }

      default: {  // binary comparison / arithmetic
        BinaryOp bop;
        switch (in.op) {
          case OpCode::kAdd: bop = BinaryOp::kAdd; break;
          case OpCode::kSub: bop = BinaryOp::kSub; break;
          case OpCode::kMul: bop = BinaryOp::kMul; break;
          case OpCode::kDiv: bop = BinaryOp::kDiv; break;
          case OpCode::kMod: bop = BinaryOp::kMod; break;
          case OpCode::kEq: bop = BinaryOp::kEq; break;
          case OpCode::kNe: bop = BinaryOp::kNe; break;
          case OpCode::kLt: bop = BinaryOp::kLt; break;
          case OpCode::kLe: bop = BinaryOp::kLe; break;
          case OpCode::kGt: bop = BinaryOp::kGt; break;
          case OpCode::kGe: bop = BinaryOp::kGe; break;
          default:
            return Status::Internal("unhandled opcode");
        }
        STREAMOP_ASSIGN_OR_RETURN(
            Value v, EvalBinaryValues(bop, stack[sp - 2], stack[sp - 1]));
        sp -= 2;
        stack[sp++] = std::move(v);
        break;
      }
    }
    ++pc;
  }
  if (sp != 1) return Status::Internal("program left malformed stack");
  return std::move(stack[0]);
}

// ---------------------------------------------------------------------------
// Batch mode

namespace {

/// Per-lane slow path for a binary op: materialize both operands and run
/// the shared kernel, so odd type combinations stay bit-identical to the
/// tree walk.
Status SlowBinaryLane(BinaryOp op, const ColRef& l, const ColRef& r,
                      size_t i, VecCol* out,
                      std::deque<std::string>* owned) {
  Value lv = LaneValue(l, i);
  Value rv = LaneValue(r, i);
  STREAMOP_ASSIGN_OR_RETURN(Value v, EvalBinaryValues(op, lv, rv));
  WriteLane(out, i, v, owned);
  return Status::OK();
}

/// Column-at-a-time binary op over the masked lanes. Fast lanes: uint/uint
/// (replicating the evaluator's wrapping unsigned arithmetic exactly,
/// including the underflow-to-signed SUB) and string-free comparisons via
/// double promotion (exactly CompareValues' fallback). Everything else
/// drops to the per-lane slow path.
Status EvalBinaryBatch(OpCode opcode, BinaryOp op, const ColRef& l,
                       const ColRef& r, const uint8_t* mask, size_t n,
                       VecCol* out, std::deque<std::string>* owned) {
  const bool is_cmp = opcode >= OpCode::kEq && opcode <= OpCode::kGe;
  for (size_t i = 0; i < n; ++i) {
    if (!mask[i]) {
      ClearLane(out, i);
      continue;
    }
    const uint8_t lt = LaneType(l, i);
    const uint8_t rt = LaneType(r, i);
    if (lt == kUIntTag && rt == kUIntTag) {
      const uint64_t a = LaneRaw(l, i);
      const uint64_t b = LaneRaw(r, i);
      uint64_t res;
      uint8_t tag = kUIntTag;
      switch (opcode) {
        case OpCode::kAdd:
          res = a + b;
          break;
        case OpCode::kSub:
          // Underflow switches to signed, as the evaluator does for
          // timestamp deltas: the wrapped difference is the two's
          // complement of the signed one.
          res = a - b;
          if (b > a) tag = kIntTag;
          break;
        case OpCode::kMul:
          res = a * b;
          break;
        case OpCode::kDiv:
          if (b == 0) return Status::InvalidArgument("division by zero");
          res = a / b;
          break;
        case OpCode::kMod:
          if (b == 0) return Status::InvalidArgument("modulo by zero");
          res = a % b;
          break;
        case OpCode::kEq:
          res = a == b;
          tag = kBoolTag;
          break;
        case OpCode::kNe:
          res = a != b;
          tag = kBoolTag;
          break;
        case OpCode::kLt:
          res = a < b;
          tag = kBoolTag;
          break;
        case OpCode::kLe:
          res = a <= b;
          tag = kBoolTag;
          break;
        case OpCode::kGt:
          res = a > b;
          tag = kBoolTag;
          break;
        case OpCode::kGe:
          res = a >= b;
          tag = kBoolTag;
          break;
        default:
          return Status::Internal("unhandled opcode");
      }
      out->raw[i] = res;
      out->type[i] = tag;
      continue;
    }
    if (is_cmp && lt != kStringTag && rt != kStringTag) {
      // CompareValues' non-exact branch: both sides through AsDouble.
      const double a = RawAsDouble(lt, LaneRaw(l, i));
      const double b = RawAsDouble(rt, LaneRaw(r, i));
      // Matches bool/bool exact compare too: 0/1 promote losslessly.
      int c = a < b ? -1 : (a > b ? 1 : 0);
      bool res;
      switch (opcode) {
        case OpCode::kEq: res = c == 0; break;
        case OpCode::kNe: res = c != 0; break;
        case OpCode::kLt: res = c < 0; break;
        case OpCode::kLe: res = c <= 0; break;
        case OpCode::kGt: res = c > 0; break;
        default: res = c >= 0; break;  // kGe
      }
      out->raw[i] = res ? 1 : 0;
      out->type[i] = kBoolTag;
      continue;
    }
    if (!is_cmp && IsNumericTag(lt) && IsNumericTag(rt) &&
        (lt == kDoubleTag || rt == kDoubleTag)) {
      // Arith's double branch (promotion to double when either side is).
      const double a = RawAsDouble(lt, LaneRaw(l, i));
      const double b = RawAsDouble(rt, LaneRaw(r, i));
      double res;
      switch (opcode) {
        case OpCode::kAdd:
          res = a + b;
          break;
        case OpCode::kSub:
          res = a - b;
          break;
        case OpCode::kMul:
          res = a * b;
          break;
        case OpCode::kDiv:
          if (b == 0.0) return Status::InvalidArgument("division by zero");
          res = a / b;
          break;
        default:  // kMod
          if (b == 0.0) return Status::InvalidArgument("modulo by zero");
          res = std::fmod(a, b);
          break;
      }
      out->raw[i] = std::bit_cast<uint64_t>(res);
      out->type[i] = kDoubleTag;
      continue;
    }
    STREAMOP_RETURN_NOT_OK(SlowBinaryLane(op, l, r, i, out, owned));
  }
  return Status::OK();
}

}  // namespace

Status ExprProgram::EvalBatch(const BatchContext& ctx, BatchScratch* scratch,
                              VecCol* out) const {
  const TupleBatch& batch = *ctx.batch;
  const size_t n = batch.num_rows();
  if (scratch->slots.size() < max_stack_) scratch->slots.resize(max_stack_);
  if (scratch->masks.size() < max_masks_) scratch->masks.resize(max_masks_);
  for (size_t s = 0; s < max_stack_; ++s) {
    scratch->slots[s].raw.resize(n);
    scratch->slots[s].type.resize(n);
  }
  if (scratch->refs.size() < max_stack_) scratch->refs.resize(max_stack_);
  if (scratch->mask_refs.size() <= max_masks_) {
    scratch->mask_refs.resize(max_masks_ + 1);
  }
  if (scratch->args.size() < max_args_) scratch->args.resize(max_args_);

  ColRef* refs = scratch->refs.data();
  const uint8_t** mask_refs = scratch->mask_refs.data();
  size_t sp = 0;
  size_t mtop = 0;  // index of current mask in mask_refs
  mask_refs[0] = ctx.mask != nullptr ? ctx.mask : batch.selection();

  auto slot_ref = [&](size_t s) -> ColRef {
    VecCol& col = scratch->slots[s];
    return ColRef{col.raw.data(), col.type.data(), 1, static_cast<int>(s)};
  };

  size_t pc = 0;
  const size_t ninstr = code_.size();
  while (pc < ninstr) {
    const Instr& in = code_[pc];
    const uint8_t* mask = mask_refs[mtop];
    switch (in.op) {
      case OpCode::kPushLiteral:
        refs[sp++] = ColRef{literal_raw_.data() + in.a,
                            literal_type_.data() + in.a, 0, -1};
        break;

      case OpCode::kLoadInput:
        if (static_cast<size_t>(in.a) >= batch.num_cols()) {
          return Status::Internal("input column out of range");
        }
        refs[sp++] = ColRef{batch.raw(in.a), batch.type(in.a), 1, -1};
        break;

      case OpCode::kLoadGroupBy: {
        if (ctx.key_cols == nullptr ||
            static_cast<size_t>(in.a) >= ctx.num_key_cols) {
          return Status::Internal("group key columns unavailable");
        }
        const VecCol& col = *ctx.key_cols[in.a];
        refs[sp++] = ColRef{col.raw.data(), col.type.data(), 1, -1};
        break;
      }

      case OpCode::kLoadAgg:
      case OpCode::kLoadSuperAgg:
      case OpCode::kSfunCall:
        return Status::Internal("non-batchable opcode in batch mode");

      case OpCode::kNot: {
        const ColRef l = refs[sp - 1];
        VecCol& dst = scratch->slots[sp - 1];
        for (size_t i = 0; i < n; ++i) {
          if (!mask[i]) {
            ClearLane(&dst, i);
            continue;
          }
          dst.raw[i] = RawValueAsBool(LaneType(l, i), LaneRaw(l, i)) ? 0 : 1;
          dst.type[i] = kBoolTag;
        }
        refs[sp - 1] = slot_ref(sp - 1);
        break;
      }

      case OpCode::kNeg: {
        const ColRef l = refs[sp - 1];
        VecCol& dst = scratch->slots[sp - 1];
        for (size_t i = 0; i < n; ++i) {
          if (!mask[i]) {
            ClearLane(&dst, i);
            continue;
          }
          const uint8_t t = LaneType(l, i);
          if (t == kDoubleTag) {
            dst.raw[i] = std::bit_cast<uint64_t>(
                -std::bit_cast<double>(LaneRaw(l, i)));
            dst.type[i] = kDoubleTag;
          } else {
            WriteLane(&dst, i,
                      EvalUnaryValue(UnaryOp::kNeg, LaneValue(l, i)),
                      &scratch->owned);
          }
        }
        refs[sp - 1] = slot_ref(sp - 1);
        break;
      }

      case OpCode::kAndProbe:
      case OpCode::kOrProbe: {
        const bool is_and = in.op == OpCode::kAndProbe;
        const ColRef l = refs[--sp];
        std::vector<uint8_t>& sub = scratch->masks[mtop];
        sub.resize(n);
        size_t active = 0;
        for (size_t i = 0; i < n; ++i) {
          const bool truthy =
              mask[i] && RawValueAsBool(LaneType(l, i), LaneRaw(l, i));
          // AND evaluates the rhs where the lhs held; OR where it failed.
          const uint8_t live = mask[i] && (is_and ? truthy : !truthy);
          sub[i] = live;
          active += live;
        }
        if (active == 0) {
          // Every masked lane short-circuits: push the constant result and
          // jump past the matching end opcode.
          VecCol& dst = scratch->slots[sp];
          const uint64_t res = is_and ? 0 : 1;
          for (size_t i = 0; i < n; ++i) {
            if (!mask[i]) {
              ClearLane(&dst, i);
              continue;
            }
            dst.raw[i] = res;
            dst.type[i] = kBoolTag;
          }
          refs[sp] = slot_ref(sp);
          ++sp;
          pc = static_cast<size_t>(in.a);
          continue;
        }
        mask_refs[++mtop] = sub.data();
        break;
      }

      case OpCode::kAndEnd:
      case OpCode::kOrEnd: {
        const bool is_and = in.op == OpCode::kAndEnd;
        const ColRef r = refs[sp - 1];
        const uint8_t* sub = mask_refs[mtop--];
        const uint8_t* outer = mask_refs[mtop];
        VecCol& dst = scratch->slots[sp - 1];
        for (size_t i = 0; i < n; ++i) {
          if (!outer[i]) {
            ClearLane(&dst, i);
            continue;
          }
          bool res;
          if (sub[i]) {
            res = RawValueAsBool(LaneType(r, i), LaneRaw(r, i));
          } else {
            // Lane short-circuited at the probe.
            res = !is_and;
          }
          dst.raw[i] = res ? 1 : 0;
          dst.type[i] = kBoolTag;
        }
        refs[sp - 1] = slot_ref(sp - 1);
        break;
      }

      case OpCode::kScalarCall: {
        const size_t nargs = static_cast<size_t>(in.a);
        auto* def = static_cast<const ScalarFunctionDef*>(in.fn);
        const size_t base = sp - nargs;
        VecCol& dst = scratch->slots[base];
        Value* argv = scratch->args.data();
        // The destination slot may back one of the argument refs; read all
        // argument lanes before writing the output lane, per lane.
        for (size_t i = 0; i < n; ++i) {
          if (!mask[i]) {
            ClearLane(&dst, i);
            continue;
          }
          for (size_t a = 0; a < nargs; ++a) {
            argv[a] = LaneValue(refs[base + a], i);
          }
          Result<Value> v = def->fn(argv, nargs);
          STREAMOP_RETURN_NOT_OK(v.status());
          WriteLane(&dst, i, *v, &scratch->owned);
        }
        sp = base;
        refs[sp] = slot_ref(sp);
        ++sp;
        break;
      }

      default: {  // binary comparison / arithmetic
        BinaryOp bop;
        switch (in.op) {
          case OpCode::kAdd: bop = BinaryOp::kAdd; break;
          case OpCode::kSub: bop = BinaryOp::kSub; break;
          case OpCode::kMul: bop = BinaryOp::kMul; break;
          case OpCode::kDiv: bop = BinaryOp::kDiv; break;
          case OpCode::kMod: bop = BinaryOp::kMod; break;
          case OpCode::kEq: bop = BinaryOp::kEq; break;
          case OpCode::kNe: bop = BinaryOp::kNe; break;
          case OpCode::kLt: bop = BinaryOp::kLt; break;
          case OpCode::kLe: bop = BinaryOp::kLe; break;
          case OpCode::kGt: bop = BinaryOp::kGt; break;
          case OpCode::kGe: bop = BinaryOp::kGe; break;
          default:
            return Status::Internal("unhandled opcode");
        }
        const ColRef l = refs[sp - 2];
        const ColRef r = refs[sp - 1];
        VecCol& dst = scratch->slots[sp - 2];
        STREAMOP_RETURN_NOT_OK(EvalBinaryBatch(in.op, bop, l, r, mask, n,
                                               &dst, &scratch->owned));
        --sp;
        refs[sp - 1] = slot_ref(sp - 1);
        break;
      }
    }
    ++pc;
  }

  if (sp != 1) return Status::Internal("program left malformed stack");
  // Hand the result to the caller: swap out a slot-backed column, copy a
  // borrowed (input / literal) one.
  const ColRef res = refs[0];
  if (res.slot >= 0) {
    out->raw.swap(scratch->slots[res.slot].raw);
    out->type.swap(scratch->slots[res.slot].type);
    return Status::OK();
  }
  out->raw.resize(n);
  out->type.resize(n);
  const uint8_t* mask = mask_refs[0];
  for (size_t i = 0; i < n; ++i) {
    if (!mask[i]) {
      ClearLane(out, i);
      continue;
    }
    out->raw[i] = LaneRaw(res, i);
    out->type[i] = LaneType(res, i);
  }
  return Status::OK();
}

}  // namespace streamop
