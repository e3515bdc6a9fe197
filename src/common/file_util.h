// Filesystem helpers shared by the durable writers (checkpoints, the
// flight recorder).

#ifndef STREAMOP_COMMON_FILE_UTIL_H_
#define STREAMOP_COMMON_FILE_UTIL_H_

#include <string>

namespace streamop {

/// mkdir -p: creates each missing component of `dir`. Returns false when a
/// component cannot be created (permissions, a file in the way); the
/// caller's write then fails through its own error path.
bool EnsureDir(const std::string& dir);

}  // namespace streamop

#endif  // STREAMOP_COMMON_FILE_UTIL_H_
