// Spans are the only event record (obs/span.h). This alias keeps one caller
// compiling: bench/e2e/streamop_bench.cc, which still includes this header
// and enables TraceRing::Default() beside SpanRing::Default(). Nothing else
// may use it; it goes once that benchmark drops the include and the call.

#ifndef STREAMOP_OBS_TRACE_RING_H_
#define STREAMOP_OBS_TRACE_RING_H_

#include "obs/span.h"

namespace streamop {
namespace obs {

using TraceRing = SpanRing;

}  // namespace obs
}  // namespace streamop

#endif  // STREAMOP_OBS_TRACE_RING_H_
