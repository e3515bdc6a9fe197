// SelectionOperator: the ungrouped query form `SELECT exprs FROM s WHERE
// pred`. This is what Gigascope's low-level query nodes run — a cheap
// filter + projection straight off the ring buffer — and, with a stateful
// function in the predicate (ssample), the "basic subset-sum sampling via a
// user-defined function in a selection operator" baseline of Fig. 5.

#ifndef STREAMOP_QUERY_SELECTION_OPERATOR_H_
#define STREAMOP_QUERY_SELECTION_OPERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "expr/expr.h"
#include "expr/program.h"
#include "expr/stateful.h"
#include "tuple/schema.h"
#include "tuple/tuple.h"
#include "tuple/tuple_batch.h"

namespace streamop {

struct SelectionPlan {
  SchemaPtr input_schema;
  std::vector<ExprPtr> select_exprs;
  std::vector<std::string> output_names;
  SchemaPtr output_schema;
  ExprPtr where;
  std::vector<const SfunStateDef*> sfun_states;  // one instance each
  uint64_t seed = 1;
};

class SelectionOperator {
 public:
  explicit SelectionOperator(std::shared_ptr<const SelectionPlan> plan);
  ~SelectionOperator();

  SelectionOperator(const SelectionOperator&) = delete;
  SelectionOperator& operator=(const SelectionOperator&) = delete;

  /// Processes one tuple as a one-row batch (ProcessBatch); returns true
  /// and fills *out when it passes the WHERE clause.
  Result<bool> Process(const Tuple& input, Tuple* out);

  /// The operator's one execution path (DESIGN.md §9): filters + projects
  /// every selected lane of `in` into `out` (cleared and reshaped first) in
  /// row order, so a batch gives the same result as its lanes fed one at a
  /// time — stateful predicates (ssample) see lanes in exactly that order.
  /// Pure predicates and projections run column-at-a-time through compiled
  /// programs; stateful ones, and any whose column evaluation fails, run
  /// in compiled row mode per lane. On an error, `out` holds the rows of
  /// the lanes before the failing one.
  Status ProcessBatch(const TupleBatch& in, TupleBatch* out);

  /// True when the output is the input: no WHERE, no SFUN, and input
  /// column c projected to output column c for every column. Decided once,
  /// at construction.
  bool is_identity() const { return identity_; }

  const SelectionPlan& plan() const { return *plan_; }
  uint64_t tuples_in() const { return tuples_in_; }
  uint64_t tuples_out() const { return tuples_out_; }

 private:
  std::shared_ptr<const SelectionPlan> plan_;
  std::vector<std::unique_ptr<std::max_align_t[]>> blobs_;
  std::vector<void*> states_;
  uint64_t tuples_in_ = 0;
  uint64_t tuples_out_ = 0;

  // Compiled once at construction (see SamplingOperator::CompilePrograms
  // for the rationale); the WHERE program is empty without a WHERE.
  ExprProgram where_prog_;
  std::vector<ExprProgram> select_progs_;
  Status compile_status_;
  bool identity_ = false;
  std::vector<Value> row_stack_;  // row-mode value stack, deepest program

  // Per-batch columnar scratch, capacity-stable across batches.
  VecCol where_col_;
  std::vector<VecCol> select_cols_;
  std::vector<uint8_t> select_col_ok_;
  std::vector<uint8_t> admit_mask_;
  ExprProgram::BatchScratch batch_scratch_;
  Tuple lane_row_;  // one row-mode lane's projection
  TupleBatch row_in_;   // Process()'s one-row batches
  TupleBatch row_out_;
};

}  // namespace streamop

#endif  // STREAMOP_QUERY_SELECTION_OPERATOR_H_
