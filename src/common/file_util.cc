#include "common/file_util.h"

#include <sys/stat.h>

#include <cerrno>

namespace streamop {

bool EnsureDir(const std::string& dir) {
  size_t i = 0;
  while (i <= dir.size()) {
    size_t j = dir.find('/', i);
    if (j == std::string::npos) j = dir.size();
    const std::string partial = dir.substr(0, j);
    if (!partial.empty() && partial != "/" && partial != "." &&
        partial != "..") {
      if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
        return false;
      }
    }
    i = j + 1;
  }
  return true;
}

}  // namespace streamop
