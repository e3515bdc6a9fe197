// Filesystem helpers shared by the durable writers (checkpoints, the
// flight recorder).

#ifndef STREAMOP_COMMON_FILE_UTIL_H_
#define STREAMOP_COMMON_FILE_UTIL_H_

#include <string>
#include <string_view>

#include "common/status.h"

namespace streamop {

/// Replaces `dir`/`name` with `bytes` so that a crash at any point leaves
/// either the old file or the new one: creates `dir` if it is missing
/// (mkdir -p), writes `name`.tmp, fsyncs it, renames it over `name`, then
/// fsyncs `dir` so the rename itself is durable. Any failed step — the
/// directory fsync included — fails the write, and no .tmp file is left
/// behind.
Status WriteFileAtomic(const std::string& dir, const std::string& name,
                       std::string_view bytes);

}  // namespace streamop

#endif  // STREAMOP_COMMON_FILE_UTIL_H_
