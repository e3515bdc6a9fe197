// QueryNode: one query in the Gigascope-style runtime — either a low-level
// selection node (cheap filter / pre-sampler reading the packet ring
// buffer) or a high-level node running the sampling operator.

#ifndef STREAMOP_ENGINE_QUERY_NODE_H_
#define STREAMOP_ENGINE_QUERY_NODE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/sampling_operator.h"
#include "obs/metrics.h"
#include "query/analyzer.h"
#include "query/selection_operator.h"

namespace streamop {

class QueryNode {
 public:
  /// `registry` backs the node's metrics (tuple/cpu totals, batch-latency
  /// histogram) and — for sampling nodes — the operator's per-phase metrics,
  /// labelled `node="<name>"`. nullptr uses the process-wide default
  /// registry, so a node is always observable.
  QueryNode(std::string name, const CompiledQuery& query,
            obs::MetricRegistry* registry = nullptr);

  const std::string& name() const { return name_; }

  /// Feeds one tuple; any resulting output rows accumulate internally.
  Status Push(const Tuple& t);

  /// Batched hot path (DESIGN.md §9): feeds every selected lane, in row
  /// order, equivalent to Push() per lane. Under load shedding the runtime
  /// passes the Horvitz–Thompson weight 1/p of the admitted records so
  /// sampling-node aggregates stay unbiased; selection nodes ignore it.
  /// Sampling nodes accumulate output rows internally as usual. For
  /// selection nodes: with `out` the admitted, projected lanes land
  /// columnar in *out (the caller chains them into the next node's
  /// PushBatch; DrainOutput() stays empty); without it they are
  /// materialized into the internal row output.
  /// `span_ctx` (optional) is the causal span context the runtime threads
  /// from its drain loop to the sampling operator: the caller's shed
  /// probability and row count go down, the id of the window span the batch
  /// fed comes back, so the runtime's ring_drain span can parent under the
  /// window root (obs/span.h). Selection nodes pass it through untouched.
  Status PushBatch(const TupleBatch& batch, double weight = 1.0,
                   TupleBatch* out = nullptr,
                   obs::SpanContext* span_ctx = nullptr);

  /// True for a selection node whose output is its input
  /// (SelectionOperator::is_identity). The drive loop hands such a node's
  /// input batch on to the next nodes as its output, with
  /// CountPassThrough() in place of PushBatch().
  bool is_identity() const {
    return selection_ != nullptr && selection_->is_identity();
  }

  /// What PushBatch() counts for an identity node, without the copy:
  /// every selected lane in and out.
  void CountPassThrough(const TupleBatch& batch);

  /// End-of-stream: close the final window (sampling nodes).
  Status Finish();

  /// Removes and returns the output produced so far as column chunks in
  /// emission order. A sampling node hands over its operator's chunks
  /// (SamplingOperator::DrainBatches); a selection node packs its rows into
  /// one batch.
  std::vector<TupleBatch> DrainBatches();

  /// Removes and returns output rows produced so far. A sampling node's
  /// rows are materialized from its operator's chunks, each chunk freed as
  /// its rows are built (SamplingOperator::DrainOutput); a selection node
  /// hands over its own row vector.
  std::vector<Tuple> DrainOutput();

  uint64_t tuples_in() const { return tuples_in_; }
  uint64_t tuples_out() const { return tuples_out_; }

  /// Accumulated processing time, maintained by the runtime's stopwatch
  /// (the node itself never reads the clock). Mirrored into the registry
  /// counter so exported snapshots carry per-node CPU.
  void AddCpuNanos(uint64_t ns) {
    cpu_ns_ += ns;
    if (metrics_.enabled()) metrics_.cpu_ns->Add(ns);
  }
  uint64_t cpu_nanos() const { return cpu_ns_; }

  /// Records one consumed batch (processing latency + fill, i.e. rows the
  /// batch carried) into the registry-backed histograms; called by the
  /// runtime per drained batch, and the only place a fill is recorded.
  void RecordBatch(uint64_t latency_ns, uint64_t fill) {
    if (metrics_.enabled()) {
      metrics_.batches->Add();
      metrics_.batch_latency_ns->Record(latency_ns);
      metrics_.batch_fill->Record(fill);
    }
  }

  const obs::NodeMetrics& metrics() const { return metrics_; }

  bool is_sampling() const { return sampling_ != nullptr; }

  /// The sampling operator behind this node, or nullptr for selection
  /// nodes. The runtime's checkpoint wiring installs flush hooks and
  /// restores durable state through this.
  SamplingOperator* sampling_operator() { return sampling_.get(); }

  /// Number of input-schema columns (what a fed TupleBatch must carry).
  size_t input_width() const {
    return sampling_ != nullptr
               ? sampling_->plan().input_schema->num_fields()
               : selection_->plan().input_schema->num_fields();
  }

  /// Window statistics (sampling nodes only; empty otherwise).
  const std::vector<WindowStats>& window_stats() const;

  /// Late (clamped non-monotonic) tuples seen (sampling nodes only).
  uint64_t late_tuples() const;

 private:
  // Adds the batch's selected lanes to tuples_in_ and its registry mirror;
  // returns their number.
  size_t CountInput(const TupleBatch& batch);
  // Adds `n` output rows to tuples_out_ and its registry mirror.
  void CountOutput(size_t n);

  std::string name_;
  std::unique_ptr<SamplingOperator> sampling_;
  std::unique_ptr<SelectionOperator> selection_;
  std::vector<Tuple> output_;  // selection nodes only
  TupleBatch scratch_out_;  // PushBatch without caller-supplied out
  Tuple scratch_row_;
  // The plain counters below stay authoritative for RunReport — they must
  // survive STREAMOP_NO_STATS builds; the registry-backed metrics_ mirror
  // them for export.
  uint64_t tuples_in_ = 0;
  uint64_t tuples_out_ = 0;
  uint64_t cpu_ns_ = 0;
  obs::NodeMetrics metrics_;
};

}  // namespace streamop

#endif  // STREAMOP_ENGINE_QUERY_NODE_H_
