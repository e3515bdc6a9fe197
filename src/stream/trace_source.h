// TraceSource: an in-memory Trace as a ResumableSource (DESIGN.md §11).
//
// The durable offset is the record index, so SeekTo(k) resumes at record
// k and a snapshot bound to a trace offset resumes byte-identically. The
// identity is O(1): kind "trace" and a stream id hashed from the record
// count and the first and last records, enough to refuse a snapshot of a
// different trace. Read() copies records out of the trace's arena and
// allocates nothing. The trace is borrowed, not copied; it must outlive
// the source.

#ifndef STREAMOP_STREAM_TRACE_SOURCE_H_
#define STREAMOP_STREAM_TRACE_SOURCE_H_

#include <cstdint>
#include <string>

#include "net/trace_generator.h"
#include "stream/resumable_source.h"

namespace streamop {

class TraceSource : public ResumableSource {
 public:
  explicit TraceSource(const Trace* trace);

  const char* kind() const override { return "trace"; }
  uint64_t stream_id() const override { return stream_id_; }
  /// "trace:<records> records".
  std::string describe() const override;
  Status Open() override;
  ReadResult Read(PacketRecord* buf, size_t max, size_t* n_out) override;
  uint64_t durable_offset() const override { return pos_; }
  /// Resumes at record `offset`; past the end of the trace is an error.
  Status SeekTo(uint64_t offset) override;
  uint64_t offset_lag() const override { return trace_->size() - pos_; }
  const SourceIngestStats& stats() const override { return stats_; }
  Status last_status() const override { return Status::OK(); }

 protected:
  // A subclass may deliver the records by other means (RunThreaded's ring)
  // and advance pos_ and stats_ itself.
  const Trace* trace_;
  size_t pos_ = 0;
  SourceIngestStats stats_;

 private:
  uint64_t stream_id_;
};

}  // namespace streamop

#endif  // STREAMOP_STREAM_TRACE_SOURCE_H_
