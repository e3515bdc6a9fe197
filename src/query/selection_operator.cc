#include "query/selection_operator.h"

#include <cstring>

#include "common/hash.h"

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

  // Compile the WHERE and projection expressions once. They are the only
  // way either clause is evaluated; see SamplingOperator::CompilePrograms.
  ClauseCompiler cc;
  cc.Compile(plan_->where.get(), &where_prog_);
  select_progs_.resize(plan_->select_exprs.size());
  for (size_t c = 0; c < select_progs_.size(); ++c) {
    cc.Compile(plan_->select_exprs[c].get(), &select_progs_[c]);
  }
  compile_status_ = cc.status;
  row_stack_.resize(cc.stack_size);
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
  // One execution path: a tuple is a one-row batch.
  row_in_.SetSingleRow(input);
  STREAMOP_RETURN_NOT_OK(ProcessBatch(row_in_, &row_out_));
  if (row_out_.num_rows() == 0) return false;
  row_out_.MaterializeRow(0, out);
  return true;
}

Status SelectionOperator::ProcessBatch(const TupleBatch& in, TupleBatch* out) {
  const size_t nsel = plan_->select_exprs.size();
  if (out->num_cols() != nsel || out->capacity() < in.capacity()) {
    out->Configure(nsel, in.capacity() > 0 ? in.capacity() : in.num_rows());
  } else {
    out->Clear();
  }
  STREAMOP_RETURN_NOT_OK(compile_status_);
  const size_t n = in.num_rows();
  if (n == 0) return Status::OK();

  // ---- Pure columnar precompute (side-effect-free) --------------------
  // A clause whose column evaluation fails (or that reads SFUN state) is
  // evaluated lane by lane in row mode below instead, which reproduces the
  // tuple-at-a-time error position — and succeeds when the error came
  // from a lane the clause never sees (a projection trapping on a lane
  // its WHERE rejects).
  batch_scratch_.Reset();
  ExprProgram::BatchContext bctx;
  bctx.batch = &in;  // mask defaults to the batch's selection vector
  const uint8_t* sel = in.selection();

  const bool where_col_ok =
      plan_->where != nullptr && where_prog_.batchable() &&
      where_prog_.EvalBatch(bctx, &batch_scratch_, &where_col_).ok();
  if (where_col_ok) {
    admit_mask_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      admit_mask_[i] = sel[i] != 0 &&
                       RawValueAsBool(where_col_.type[i], where_col_.raw[i]);
    }
    bctx.mask = admit_mask_.data();
  }
  for (size_t c = 0; c < nsel; ++c) {
    select_col_ok_[c] =
        select_progs_[c].batchable() &&
        select_progs_[c].EvalBatch(bctx, &batch_scratch_, &select_cols_[c])
            .ok();
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
  ExprProgram::RowContext rc;
  rc.batch = &in;
  rc.sfun_states = states_.data();
  rc.num_sfun_states = states_.size();
  rc.scratch_stack = row_stack_.data();
  for (size_t i = 0; i < n; ++i) {
    if (!sel[i]) continue;
    ++tuples_in_;
    rc.row = i;
    bool pass = true;
    if (plan_->where != nullptr) {
      if (where_col_ok) {
        pass = admit_mask_[i] != 0;
      } else {
        // Stateful predicate (ssample) or a failed column: row mode, in
        // lane order.
        STREAMOP_ASSIGN_OR_RETURN(Value wv, where_prog_.EvalRow(rc));
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
      // Row-mode lanes: evaluate the full row first so an error cannot
      // leave `out` with a partially appended row.
      std::vector<Value>& row = lane_row_.mutable_values();
      row.clear();
      row.reserve(nsel);
      for (size_t c = 0; c < nsel; ++c) {
        if (select_col_ok_[c]) {
          row.push_back(MaterializeRawValue(select_cols_[c].type[i],
                                            select_cols_[c].raw[i]));
        } else {
          STREAMOP_ASSIGN_OR_RETURN(Value v, select_progs_[c].EvalRow(rc));
          row.push_back(std::move(v));
        }
      }
      out->AppendTuple(lane_row_);
    }
  }
  return Status::OK();
}

}  // namespace streamop
