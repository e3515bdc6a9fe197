#include "paced_sender.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <string>

#include "net/wire.h"
#include "obs/metrics.h"

namespace streamop {
namespace e2e {

namespace {

using obs::NowNanos;

// Sends all of `data` over a nonblocking socket, waiting for buffer space
// when the consumer falls behind. False when the peer is gone or `stop`
// flips.
bool SendAll(int fd, const uint8_t* data, size_t len,
             const std::atomic<bool>& stop) {
  size_t off = 0;
  while (off < len) {
    if (stop.load(std::memory_order_relaxed)) return false;
    const ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd p{fd, POLLOUT, 0};
      ::poll(&p, 1, 100);
    } else if (!(n < 0 && errno == EINTR)) {
      return false;
    }
  }
  return true;
}

// Reads exactly `len` bytes within `timeout_ms`.
bool RecvExact(int fd, uint8_t* data, size_t len, int timeout_ms,
               const std::atomic<bool>& stop) {
  size_t off = 0;
  const uint64_t deadline =
      NowNanos() + static_cast<uint64_t>(timeout_ms) * 1000000;
  while (off < len) {
    if (stop.load(std::memory_order_relaxed) || NowNanos() >= deadline) {
      return false;
    }
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 50) <= 0) continue;
    const ssize_t n = ::recv(fd, data + off, len - off, 0);
    if (n > 0) {
      off += static_cast<size_t>(n);
    } else if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK &&
                          errno != EINTR)) {
      return false;
    }
  }
  return true;
}

void SleepUntil(uint64_t t_ns) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(t_ns / 1000000000);
  ts.tv_nsec = static_cast<long>(t_ns % 1000000000);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

// Closes the fd on every exit path of Serve().
class FdCloser {
 public:
  explicit FdCloser(int fd) : fd_(fd) {}
  ~FdCloser() { ::close(fd_); }
  FdCloser(const FdCloser&) = delete;
  FdCloser& operator=(const FdCloser&) = delete;

 private:
  int fd_;
};

}  // namespace

PacedSender::PacedSender(PacedSenderConfig config)
    : config_(std::move(config)) {
  config_.records_per_frame =
      std::clamp<size_t>(config_.records_per_frame, 1, kMaxRecordsPerFrame);
}

PacedSender::~PacedSender() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

Status PacedSender::Bind() {
  if (config_.lap == nullptr || config_.lap->empty() ||
      config_.records_per_sec <= 0.0) {
    return Status::InvalidArgument("paced sender needs a lap and a rate");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError("socket: " + std::string(strerror(errno)));
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
      ::listen(listen_fd_, 1) != 0 ||
      ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
          0) {
    return Status::IOError("listen: " + std::string(strerror(errno)));
  }
  port_ = ntohs(addr.sin_port);
  const int flags = fcntl(listen_fd_, F_GETFL, 0);
  fcntl(listen_fd_, F_SETFL, flags | O_NONBLOCK);
  return Status::OK();
}

PacketRecord PacedSender::RecordAt(uint64_t i) const {
  const std::vector<PacketRecord>& lap = *config_.lap;
  PacketRecord p = lap[i % lap.size()];
  p.ts_ns += (i / lap.size()) * config_.lap_ns;
  return p;
}

uint64_t PacedSender::DueNs(uint64_t i) const {
  return start_ns_ + static_cast<uint64_t>(static_cast<double>(i) * 1e9 /
                                           config_.records_per_sec);
}

Status PacedSender::Serve() {
  if (listen_fd_ < 0) return Status::InvalidArgument("Serve before Bind");
  const uint64_t accept_deadline =
      NowNanos() + static_cast<uint64_t>(config_.handshake_timeout_ms) *
                       1000000;
  int conn = -1;
  while (conn < 0) {
    if (stop_.load(std::memory_order_relaxed)) return Status::OK();
    if (NowNanos() >= accept_deadline) {
      return Status::IOError("no consumer connected");
    }
    pollfd p{listen_fd_, POLLIN, 0};
    if (::poll(&p, 1, 50) > 0) conn = ::accept(listen_fd_, nullptr, nullptr);
  }
  FdCloser closer(conn);
  const int flags = fcntl(conn, F_GETFL, 0);
  fcntl(conn, F_SETFL, flags | O_NONBLOCK);
  int one = 1;
  setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  uint8_t hdr[kFrameHeaderSize];
  FrameHeader hello;
  if (!RecvExact(conn, hdr, kFrameHeaderSize, config_.handshake_timeout_ms,
                 stop_) ||
      !DecodeFrameHeader(hdr, kFrameHeaderSize, &hello) ||
      hello.type != FrameType::kHello) {
    return Status::IOError("consumer sent no HELLO");
  }
  const uint64_t total = config_.total_records;
  uint64_t pos = std::min(hello.seq, total);
  size_t len = BuildFrame(FrameType::kAck, pos, nullptr, 0, hdr);
  if (!SendAll(conn, hdr, len, stop_)) return Status::IOError("ACK failed");

  const size_t per_frame = config_.records_per_frame;
  std::vector<PacketRecord> records(per_frame);
  std::vector<uint8_t> frame(kFrameHeaderSize + per_frame * kWireRecordSize);
  lateness_.clear();
  lateness_.reserve(static_cast<size_t>((total - pos) / per_frame + 1));
  start_ns_ = NowNanos();
  while (pos < total) {
    const size_t n =
        static_cast<size_t>(std::min<uint64_t>(per_frame, total - pos));
    for (size_t k = 0; k < n; ++k) records[k] = RecordAt(pos + k);
    len = BuildFrame(FrameType::kData, pos, records.data(), n, frame.data());
    const uint64_t due = DueNs(pos + n - 1);
    uint64_t now = NowNanos();
    if (now < due) {
      SleepUntil(due);
      now = NowNanos();
    }
    lateness_.push_back(now > due ? now - due : 0);
    if (!SendAll(conn, frame.data(), len, stop_)) {
      return stop_.load(std::memory_order_relaxed)
                 ? Status::OK()
                 : Status::IOError("consumer went away mid-stream");
    }
    pos += n;
  }
  len = BuildFrame(FrameType::kFin, total, nullptr, 0, hdr);
  if (!SendAll(conn, hdr, len, stop_)) return Status::IOError("FIN failed");
  return Status::OK();
}

}  // namespace e2e
}  // namespace streamop
