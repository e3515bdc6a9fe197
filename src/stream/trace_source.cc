#include "stream/trace_source.h"

#include <algorithm>

namespace streamop {

namespace {

// O(1) identity: the record count plus the raw bytes of the first and last
// records (PacketRecord has no padding, so every byte is defined).
uint64_t TraceStreamId(const Trace& trace) {
  std::string id = std::to_string(trace.size());
  if (!trace.empty()) {
    id.append(reinterpret_cast<const char*>(&trace.packets().front()),
              sizeof(PacketRecord));
    id.append(reinterpret_cast<const char*>(&trace.packets().back()),
              sizeof(PacketRecord));
  }
  return SourceStreamId(id);
}

}  // namespace

TraceSource::TraceSource(const Trace* trace)
    : trace_(trace), stream_id_(TraceStreamId(*trace)) {}

std::string TraceSource::describe() const {
  return "trace:" + std::to_string(trace_->size()) + " records";
}

Status TraceSource::Open() {
  stats_.resume_offset = pos_;
  return Status::OK();
}

ResumableSource::ReadResult TraceSource::Read(PacketRecord* buf, size_t max,
                                              size_t* n_out) {
  const size_t n = std::min(max, trace_->size() - pos_);
  std::copy_n(trace_->packets().data() + pos_, n, buf);
  pos_ += n;
  stats_.records += n;
  *n_out = n;
  return n > 0 ? ReadResult::kRecords : ReadResult::kEnd;
}

Status TraceSource::SeekTo(uint64_t offset) {
  if (offset > trace_->size()) {
    return Status::OutOfRange("trace offset " + std::to_string(offset) +
                              " is past its " +
                              std::to_string(trace_->size()) + " records");
  }
  pos_ = static_cast<size_t>(offset);
  return Status::OK();
}

}  // namespace streamop
