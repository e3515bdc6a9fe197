// Resident-memory probe for tests that assert what a constructor commits.
//
// ChildRssGrowthBytes(make) forks, and in the child hands freed heap pages
// back (malloc_trim), reads the resident set from /proc/self/statm, runs
// `make`, and reads it again while the object `make` returned is still
// alive — the method the end-to-end benchmark's peak-RSS child uses, so
// the figure is what `make` itself commits, not what the test process
// happened to hold before it. Only anonymous memory counts (statm's
// resident minus shared): code pages that the child faults in on its
// first call into a function are file-backed and would only add noise.

#ifndef STREAMOP_TESTS_RSS_PROBE_H_
#define STREAMOP_TESTS_RSS_PROBE_H_

#include <fcntl.h>
#include <malloc.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>

namespace streamop {
namespace testing_rss {

// Anonymous resident bytes of this process, or -1.
inline int64_t AnonResidentBytes() {
  const int fd = ::open("/proc/self/statm", O_RDONLY);
  if (fd < 0) return -1;
  char buf[128] = {};
  const ssize_t n = ::read(fd, buf, sizeof(buf) - 1);
  ::close(fd);
  long long size = 0, resident = 0, shared = 0;
  if (n <= 0 ||
      std::sscanf(buf, "%lld %lld %lld", &size, &resident, &shared) != 3) {
    return -1;
  }
  return static_cast<int64_t>(resident - shared) * ::sysconf(_SC_PAGESIZE);
}

// Anonymous RSS growth in bytes of running `make` in a forked child; -1
// on failure.
template <typename Make>
int64_t ChildRssGrowthBytes(Make make) {
  int fds[2];
  if (::pipe(fds) != 0) return -1;
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return -1;
  }
  if (pid == 0) {
    ::close(fds[0]);
    ::malloc_trim(0);
    const int64_t before = AnonResidentBytes();
    auto keep = make();
    const int64_t after = AnonResidentBytes();
    const int64_t growth = before < 0 || after < 0 ? -1 : after - before;
    const bool sent =
        ::write(fds[1], &growth, sizeof(growth)) == sizeof(growth);
    (void)keep;
    _exit(sent ? 0 : 1);
  }
  ::close(fds[1]);
  int64_t growth = -1;
  if (::read(fds[0], &growth, sizeof(growth)) != sizeof(growth)) growth = -1;
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) && WEXITSTATUS(status) == 0 ? growth : -1;
}

}  // namespace testing_rss
}  // namespace streamop

#endif  // STREAMOP_TESTS_RSS_PROBE_H_
