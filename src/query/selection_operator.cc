#include "query/selection_operator.h"

#include <cstring>

#include "common/hash.h"
#include "expr/evaluator.h"

namespace streamop {

SelectionOperator::SelectionOperator(std::shared_ptr<const SelectionPlan> plan)
    : plan_(std::move(plan)) {
  const size_t n = plan_->sfun_states.size();
  blobs_.reserve(n);
  states_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const SfunStateDef* def = plan_->sfun_states[i];
    size_t words =
        (def->size + sizeof(std::max_align_t) - 1) / sizeof(std::max_align_t);
    blobs_.push_back(std::make_unique<std::max_align_t[]>(words));
    void* mem = blobs_.back().get();
    def->init(mem, nullptr, HashCombine(plan_->seed, i));
    states_.push_back(mem);
  }

  // Compile the WHERE and projection expressions once; the batched path
  // needs a program for every clause (row mode covers the stateful ones).
  bool ok = true;
  if (plan_->where != nullptr) {
    where_prog_ = ExprProgram::TryCompile(plan_->where.get());
    if (!where_prog_.has_value()) ok = false;
  }
  select_progs_.reserve(plan_->select_exprs.size());
  for (const ExprPtr& e : plan_->select_exprs) {
    select_progs_.push_back(ExprProgram::TryCompile(e.get()));
    if (!select_progs_.back().has_value()) ok = false;
  }
  batched_ok_ = ok;
  select_cols_.resize(plan_->select_exprs.size());
  select_col_ok_.assign(plan_->select_exprs.size(), 0);
}

SelectionOperator::~SelectionOperator() {
  for (size_t i = 0; i < states_.size(); ++i) {
    const SfunStateDef* def = plan_->sfun_states[i];
    if (def->destroy != nullptr) def->destroy(states_[i]);
  }
}

Result<bool> SelectionOperator::Process(const Tuple& input, Tuple* out) {
  ++tuples_in_;
  EvalContext ctx;
  ctx.input = &input;
  ctx.sfun_states = states_.data();
  ctx.num_sfun_states = states_.size();
  STREAMOP_ASSIGN_OR_RETURN(bool pass,
                            EvaluatePredicate(plan_->where.get(), ctx));
  if (!pass) return false;
  ++tuples_out_;
  // Project into the caller's tuple in place; a reused output tuple keeps
  // its capacity, so the projection itself never allocates.
  std::vector<Value>& row = out->mutable_values();
  row.clear();
  row.reserve(plan_->select_exprs.size());
  for (const ExprPtr& e : plan_->select_exprs) {
    STREAMOP_ASSIGN_OR_RETURN(Value v, Evaluate(*e, ctx));
    row.push_back(std::move(v));
  }
  return true;
}

Status SelectionOperator::ProcessBatchFallback(const TupleBatch& in,
                                               size_t first_lane,
                                               TupleBatch* out) {
  const size_t n = in.num_rows();
  const uint8_t* sel = in.selection();
  for (size_t i = first_lane; i < n; ++i) {
    if (!sel[i]) continue;
    in.MaterializeRow(i, &batch_row_);
    STREAMOP_ASSIGN_OR_RETURN(bool pass, Process(batch_row_, &row_out_));
    if (pass) out->AppendTuple(row_out_);
  }
  return Status::OK();
}

Status SelectionOperator::ProcessBatch(const TupleBatch& in, TupleBatch* out) {
  const size_t nsel = plan_->select_exprs.size();
  if (out->num_cols() != nsel || out->capacity() < in.capacity()) {
    out->Configure(nsel, in.capacity() > 0 ? in.capacity() : in.num_rows());
  } else {
    out->Clear();
  }
  const size_t n = in.num_rows();
  if (n == 0) return Status::OK();
  if (!batched_ok_) return ProcessBatchFallback(in, 0, out);

  // ---- Pure columnar precompute (side-effect-free) --------------------
  // Runs before any stateful per-lane work, so an evaluation error here
  // can replay the whole batch tuple-at-a-time without having advanced
  // SFUN state (and errors that the per-tuple path never hits — a
  // projection trapping on a lane its WHERE rejects — vanish in replay).
  batch_scratch_.Reset();
  ExprProgram::BatchContext bctx;
  bctx.batch = &in;  // mask defaults to the batch's selection vector
  const uint8_t* sel = in.selection();

  bool where_col_ok = false;
  if (plan_->where != nullptr && where_prog_->batchable()) {
    if (!where_prog_->EvalBatch(bctx, &batch_scratch_, &where_col_).ok()) {
      return ProcessBatchFallback(in, 0, out);
    }
    where_col_ok = true;
    admit_mask_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      admit_mask_[i] = sel[i] != 0 &&
                       RawValueAsBool(where_col_.type[i], where_col_.raw[i]);
    }
    bctx.mask = admit_mask_.data();
  }
  for (size_t c = 0; c < nsel; ++c) {
    select_col_ok_[c] = 0;
    if (select_progs_[c]->batchable()) {
      if (!select_progs_[c]
               ->EvalBatch(bctx, &batch_scratch_, &select_cols_[c])
               .ok()) {
        return ProcessBatchFallback(in, 0, out);
      }
      select_col_ok_[c] = 1;
    }
  }

  bool all_cols = true;
  for (size_t c = 0; c < nsel; ++c) all_cols = all_cols && select_col_ok_[c];

  // ---- Pass-through: whole-column copy ---------------------------------
  // No WHERE and every lane selected means every lane is admitted, in
  // order; with no string lane to copy into batch-owned storage, each
  // output column is one bulk copy of its precomputed column.
  auto has_string_lane = [&] {
    for (size_t c = 0; c < nsel; ++c) {
      if (std::memchr(select_cols_[c].type.data(),
                      static_cast<int>(FieldType::kString), n) != nullptr) {
        return true;
      }
    }
    return false;
  };
  if (plan_->where == nullptr && all_cols &&
      std::memchr(sel, 0, n) == nullptr && !has_string_lane()) {
    for (size_t c = 0; c < nsel; ++c) {
      out->AppendColumn(c, select_cols_[c].raw.data(),
                        select_cols_[c].type.data(), n);
    }
    out->FinishRows(n);
    tuples_in_ += n;
    tuples_out_ += n;
    return Status::OK();
  }

  // ---- Per-lane admit + append ----------------------------------------
  const bool columnar_append =
      (plan_->where == nullptr || where_col_ok) && all_cols;
  for (size_t i = 0; i < n; ++i) {
    if (!sel[i]) continue;
    ++tuples_in_;
    bool pass = true;
    if (plan_->where != nullptr) {
      if (where_col_ok) {
        pass = admit_mask_[i] != 0;
      } else {
        // Stateful predicate (ssample): compiled row mode, lane order.
        ExprProgram::RowContext rc;
        rc.batch = &in;
        rc.row = i;
        rc.sfun_states = states_.data();
        rc.num_sfun_states = states_.size();
        STREAMOP_ASSIGN_OR_RETURN(Value wv, where_prog_->EvalRow(rc));
        pass = wv.AsBool();
      }
    }
    if (!pass) continue;
    ++tuples_out_;
    if (columnar_append) {
      // Fully columnar: every projection column is precomputed (a pure
      // projection without SFUNs always is), so admission is a straight
      // column-to-column append.
      for (size_t c = 0; c < nsel; ++c) {
        out->AppendRaw(c, select_cols_[c].type[i], select_cols_[c].raw[i]);
      }
      out->FinishRow();
    } else {
      // Stateful lanes: evaluate the full row first so an error cannot
      // leave `out` with a partially appended row.
      std::vector<Value>& row = row_out_.mutable_values();
      row.clear();
      row.reserve(nsel);
      for (size_t c = 0; c < nsel; ++c) {
        if (select_col_ok_[c]) {
          row.push_back(MaterializeRawValue(select_cols_[c].type[i],
                                            select_cols_[c].raw[i]));
        } else {
          ExprProgram::RowContext rc;
          rc.batch = &in;
          rc.row = i;
          rc.sfun_states = states_.data();
          rc.num_sfun_states = states_.size();
          STREAMOP_ASSIGN_OR_RETURN(Value v, select_progs_[c]->EvalRow(rc));
          row.push_back(std::move(v));
        }
      }
      out->AppendTuple(row_out_);
    }
  }
  return Status::OK();
}

}  // namespace streamop
