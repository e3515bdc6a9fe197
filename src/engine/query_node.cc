#include "engine/query_node.h"

namespace streamop {

QueryNode::QueryNode(std::string name, const CompiledQuery& query,
                     obs::MetricRegistry* registry)
    : name_(std::move(name)) {
  obs::MetricRegistry& reg =
      registry != nullptr ? *registry : obs::MetricRegistry::Default();
  metrics_ = obs::NodeMetrics::Create(reg, name_);
  if (query.kind == CompiledQueryKind::kSampling) {
    sampling_ = std::make_unique<SamplingOperator>(query.sampling);
    sampling_->set_metrics(obs::OperatorMetrics::Create(reg, name_));
    sampling_->set_quality(nullptr, name_);  // default ring, node-labeled
  } else {
    selection_ = std::make_unique<SelectionOperator>(query.selection);
  }
}

Status QueryNode::Push(const Tuple& t) {
  ++tuples_in_;
  if (metrics_.enabled()) metrics_.tuples_in->Add();
  if (sampling_ != nullptr) {
    const size_t before = sampling_->output_size();
    Status s = sampling_->Process(t);
    CountOutput(sampling_->output_size() - before);
    return s;
  }
  Tuple out;
  STREAMOP_ASSIGN_OR_RETURN(bool pass, selection_->Process(t, &out));
  if (pass) {
    CountOutput(1);
    output_.push_back(std::move(out));
  }
  return Status::OK();
}

size_t QueryNode::CountInput(const TupleBatch& batch) {
  const size_t lanes = batch.num_selected();
  tuples_in_ += lanes;
  if (metrics_.enabled() && lanes > 0) metrics_.tuples_in->Add(lanes);
  return lanes;
}

void QueryNode::CountPassThrough(const TupleBatch& batch) {
  CountOutput(CountInput(batch));
}

Status QueryNode::PushBatch(const TupleBatch& batch, double weight,
                            TupleBatch* out, obs::SpanContext* span_ctx) {
  CountInput(batch);
  if (sampling_ != nullptr) {
    const size_t before = sampling_->output_size();
    Status s = sampling_->ProcessBatch(batch, weight, span_ctx);
    CountOutput(sampling_->output_size() - before);
    return s;
  }
  TupleBatch* dest = out != nullptr ? out : &scratch_out_;
  STREAMOP_RETURN_NOT_OK(selection_->ProcessBatch(batch, dest));
  const size_t n_out = dest->num_rows();
  CountOutput(n_out);
  if (out == nullptr) {
    for (size_t i = 0; i < n_out; ++i) {
      scratch_out_.MaterializeRow(i, &scratch_row_);
      output_.push_back(scratch_row_);
    }
  }
  return Status::OK();
}

Status QueryNode::Finish() {
  if (sampling_ == nullptr) return Status::OK();
  const size_t before = sampling_->output_size();
  Status s = sampling_->FinishStream();
  CountOutput(sampling_->output_size() - before);
  return s;
}

std::vector<TupleBatch> QueryNode::DrainBatches() {
  if (sampling_ != nullptr) return sampling_->DrainBatches();
  std::vector<TupleBatch> out;
  if (output_.empty()) return out;
  TupleBatch& batch = out.emplace_back(output_.front().size(), output_.size());
  for (const Tuple& t : output_) batch.AppendTuple(t);
  output_.clear();
  return out;
}

std::vector<Tuple> QueryNode::DrainOutput() {
  if (sampling_ != nullptr) return sampling_->DrainOutput();
  std::vector<Tuple> out = std::move(output_);
  output_.clear();
  return out;
}

void QueryNode::CountOutput(size_t n) {
  tuples_out_ += n;
  if (metrics_.enabled() && n > 0) metrics_.tuples_out->Add(n);
}

const std::vector<WindowStats>& QueryNode::window_stats() const {
  static const std::vector<WindowStats> kEmpty;
  return sampling_ != nullptr ? sampling_->window_stats() : kEmpty;
}

uint64_t QueryNode::late_tuples() const {
  return sampling_ != nullptr ? sampling_->late_tuples() : 0;
}

}  // namespace streamop
