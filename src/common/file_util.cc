#include "common/file_util.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace streamop {

namespace {

// mkdir -p: creates each missing component of `dir`. False when one
// cannot be created (permissions, a file in the way).
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

}  // namespace

Status WriteFileAtomic(const std::string& dir, const std::string& name,
                       std::string_view bytes) {
  const std::string path = dir + "/" + name;
  const std::string tmp = path + ".tmp";
  const auto fail = [&](const char* step, const std::string& what) {
    const Status st = Status::IOError(std::string(step) + " " + what + ": " +
                                      std::strerror(errno));
    ::unlink(tmp.c_str());
    return st;
  };
  if (!EnsureDir(dir)) return fail("mkdir", dir);
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return fail("open", tmp);
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n <= 0) {
      ::close(fd);
      return fail("write", tmp);
    }
    off += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    return fail("fsync", tmp);
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) return fail("rename", tmp);
  // Durable rename: fsync the directory so the new name survives a crash.
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) return fail("open", dir);
  const bool dir_ok = ::fsync(dfd) == 0;
  ::close(dfd);
  if (!dir_ok) return fail("fsync", dir);
  return Status::OK();
}

}  // namespace streamop
