#include "stream/socket_source.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>

namespace streamop {

namespace {

int64_t NowMs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return ts.tv_sec * 1000 + ts.tv_nsec / 1000000;
}

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

SocketSource::SocketSource(SocketSourceConfig config)
    : config_(std::move(config)),
      rx_(kReceiveBufferBytes),
      frames_(1 + (kReceiveBufferBytes - kWireRecordSize) /
                      (kFrameHeaderSize + kWireRecordSize)),
      jitter_(config_.backoff_seed) {}

SocketSource::~SocketSource() {
  if (fd_ >= 0) ::close(fd_);
}

std::string SocketSource::describe() const {
  if (config_.mode == SocketSourceConfig::Mode::kUdp) {
    return "udp:" + std::to_string(config_.port);
  }
  return "tcp:" + config_.host + ":" + std::to_string(config_.port);
}

Status SocketSource::Open() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  end_ = parse_;  // a torn frame from the previous connection
  fin_seen_ = false;
  attempts_ = 0;
  last_rx_ms_ = NowMs();
  last_status_ = Status::OK();

  if (config_.mode == SocketSourceConfig::Mode::kUdp) {
    fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd_ < 0) {
      return Status::IOError("udp socket: " + std::string(strerror(errno)));
    }
    int one = 1;
    setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(config_.port);
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      const Status st = Status::IOError("udp bind port " +
                                        std::to_string(config_.port) + ": " +
                                        strerror(errno));
      ::close(fd_);
      fd_ = -1;
      return st;
    }
    socklen_t alen = sizeof(addr);
    getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &alen);
    config_.port = ntohs(addr.sin_port);
    SetNonBlocking(fd_);
    peer_known_ = false;
    state_ = State::kAwaitPeer;
  } else {
    std::memset(&connect_addr_, 0, sizeof(connect_addr_));
    connect_addr_.sin_family = AF_INET;
    connect_addr_.sin_port = htons(config_.port);
    const std::string addr =
        config_.host == "localhost" ? "127.0.0.1" : config_.host;
    if (inet_pton(AF_INET, addr.c_str(), &connect_addr_.sin_addr) != 1) {
      return Status::InvalidArgument("not a numeric IPv4 address: " +
                                     config_.host);
    }
    // The actual connect happens on the first Read(): connection setup is
    // part of the same bounded-backoff state machine as reconnects.
    state_ = State::kBackoff;
    next_attempt_ms_ = 0;
  }
  stats_.resume_offset = durable_offset();
  return Status::OK();
}

Status SocketSource::SeekTo(uint64_t offset) {
  head_ = tail_ = 0;
  next_seq_ = offset;
  producer_head_ = std::max(producer_head_, offset);
  fin_seen_ = false;
  stats_.resume_offset = offset;
  return Status::OK();
}

void SocketSource::InjectDisconnect() {
  if (state_ == State::kClosed || state_ == State::kEnded) return;
  if (config_.mode == SocketSourceConfig::Mode::kUdp) {
    // Forget the producer: the next datagram re-learns it and re-HELLOs.
    peer_known_ = false;
    state_ = State::kAwaitPeer;
  } else {
    BeginReconnect("injected disconnect");
  }
}

void SocketSource::Fail(const std::string& why) {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  state_ = State::kEnded;
  last_status_ = Status::IOError(why + " (" + describe() + ")");
}

int64_t SocketSource::BackoffDelayMs() {
  int64_t delay = config_.backoff_initial_ms;
  for (int i = 1; i < attempts_ && delay < config_.backoff_max_ms; ++i) {
    delay *= 2;
  }
  delay = std::min<int64_t>(delay, config_.backoff_max_ms);
  // Jitter to [0.5, 1.0) of the nominal delay: restarting consumers
  // shouldn't hammer a recovering producer in lockstep.
  const double scale = 0.5 + 0.5 * jitter_.NextDouble();
  return std::max<int64_t>(1, static_cast<int64_t>(delay * scale));
}

void SocketSource::BeginReconnect(const char* why) {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  end_ = parse_;  // accepted frames stay; a torn tail goes with the socket
  if (state_ == State::kEnded) return;
  stats_.reconnects++;
  if (++attempts_ > config_.max_reconnect_attempts) {
    Fail(std::string("reconnect budget exhausted: ") + why);
    return;
  }
  state_ = State::kBackoff;
  next_attempt_ms_ = NowMs() + BackoffDelayMs();
}

size_t SocketSource::TakePending(PacketRecord* buf, size_t max) {
  size_t n = 0;
  while (n < max && head_ < tail_) {
    PendingFrame& f = frames_[head_];
    const size_t take = std::min<size_t>(f.left, max - n);
    const uint8_t* wire = rx_.data() + f.offset;
    for (size_t i = 0; i < take; ++i) {
      DecodeWireRecord(wire + i * kWireRecordSize, buf + n + i);
    }
    n += take;
    f.seq += take;
    f.offset += static_cast<uint32_t>(take * kWireRecordSize);
    f.left -= static_cast<uint32_t>(take);
    if (f.left == 0) ++head_;
  }
  return n;
}

void SocketSource::CompactReceiveBuffer() {
  const size_t live = head_ < tail_ ? frames_[head_].offset : parse_;
  if (live > 0) {
    std::memmove(rx_.data(), rx_.data() + live, end_ - live);
    parse_ -= live;
    end_ -= live;
  }
  for (size_t i = head_; i < tail_; ++i) {
    frames_[i - head_] = frames_[i];
    frames_[i - head_].offset -= static_cast<uint32_t>(live);
  }
  tail_ -= head_;
  head_ = 0;
}

void SocketSource::ProcessData(const FrameHeader& h, const uint8_t* payload) {
  stats_.frames++;
  const uint64_t start = h.seq;
  const uint64_t count = h.count;
  if (count == 0) return;
  if (start + count <= next_seq_) {
    // Entirely behind the frontier: a resent or reordered frame.
    stats_.duplicate_records += count;
    return;
  }
  uint64_t skip = 0;
  if (start < next_seq_) {
    skip = next_seq_ - start;  // overlap: deliver only the fresh tail
    stats_.duplicate_records += skip;
  } else if (start > next_seq_) {
    stats_.gaps++;
    stats_.gap_records += start - next_seq_;
    next_seq_ = start;
  }
  // Keep the fresh records in place; Read() decodes them from rx_.
  frames_[tail_++] = {
      next_seq_,
      static_cast<uint32_t>(payload - rx_.data() + skip * kWireRecordSize),
      static_cast<uint32_t>(count - skip)};
  next_seq_ += count - skip;
  stats_.records += count - skip;
  producer_head_ = std::max(producer_head_, next_seq_);
}

void SocketSource::HandleFrame(const FrameHeader& h, const uint8_t* payload) {
  switch (h.type) {
    case FrameType::kData:
      // In kAwaitAck these are in-flight frames from before our HELLO
      // (a restarted consumer catching the producer mid-stream): ignore
      // them rather than booking a bogus gap; the ACK rewinds the stream.
      if (state_ == State::kStreaming) ProcessData(h, payload);
      break;
    case FrameType::kAck:
      if (state_ == State::kAwaitAck) {
        attempts_ = 0;
        state_ = State::kStreaming;
        if (h.seq > next_seq_) {
          // The producer's replay window no longer reaches our offset:
          // the records in between are gone. Book them and move on —
          // at-most-once, never silent loss.
          stats_.gaps++;
          stats_.gap_records += h.seq - next_seq_;
          next_seq_ = h.seq;
        }
      }
      break;
    case FrameType::kHeartbeat:
      stats_.heartbeats++;
      producer_head_ = std::max(producer_head_, h.seq);
      // A heartbeat while we think we're streaming means the producer
      // restarted and is waiting for a handshake: re-HELLO (UDP only;
      // TCP handshakes ride each connection).
      if (config_.mode == SocketSourceConfig::Mode::kUdp &&
          state_ == State::kStreaming && peer_known_) {
        stats_.reconnects++;
        SendHelloUdp();
        state_ = State::kAwaitAck;
      }
      break;
    case FrameType::kFin:
      fin_seen_ = true;
      fin_head_ = h.seq;
      producer_head_ = std::max(producer_head_, h.seq);
      break;
    case FrameType::kHello:
      break;  // producer-to-consumer direction never carries HELLO
  }
}

void SocketSource::MaybeFinish() {
  if (state_ == State::kEnded || !fin_seen_) return;
  if (head_ < tail_) return;  // drain the tail first
  if (next_seq_ < fin_head_) {
    // Records between our frontier and the producer's final head never
    // arrived (datagrams lost at the very end).
    stats_.gaps++;
    stats_.gap_records += fin_head_ - next_seq_;
    next_seq_ = fin_head_;
  }
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  state_ = State::kEnded;
  last_status_ = Status::OK();
}

void SocketSource::SendHelloUdp() {
  uint8_t frame[kFrameHeaderSize];
  const size_t len =
      BuildFrame(FrameType::kHello, durable_offset(), nullptr, 0, frame);
  (void)::sendto(fd_, frame, len, 0,
                 reinterpret_cast<const sockaddr*>(&peer_addr_),
                 sizeof(peer_addr_));
  hello_sent_ms_ = NowMs();
}

bool SocketSource::ParseStreamBuffer() {
  while (state_ != State::kEnded) {
    const size_t avail = end_ - parse_;
    if (avail < kFrameHeaderSize) break;
    const uint8_t* frame = rx_.data() + parse_;
    FrameHeader h;
    if (!DecodeFrameHeader(frame, kFrameHeaderSize, &h)) {
      stats_.malformed_frames++;
      return false;  // desync: TCP recovers at connection granularity
    }
    if (avail < kFrameHeaderSize + h.payload_len) break;  // partial frame
    const uint8_t* payload = frame + kFrameHeaderSize;
    if (!VerifyFramePayload(h, payload)) {
      stats_.malformed_frames++;
      return false;
    }
    parse_ += kFrameHeaderSize + h.payload_len;
    HandleFrame(h, payload);
  }
  return true;
}

bool SocketSource::TryConnectTcp(int timeout_ms) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    BeginReconnect("socket failed");
    return false;
  }
  SetNonBlocking(fd_);
  int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int r = ::connect(fd_, reinterpret_cast<sockaddr*>(&connect_addr_),
                          sizeof(connect_addr_));
  if (r != 0 && errno == EINPROGRESS) {
    pollfd p{fd_, POLLOUT, 0};
    if (::poll(&p, 1, std::max(timeout_ms, 100)) <= 0) {
      BeginReconnect("connect timeout");
      return false;
    }
    int soerr = 0;
    socklen_t slen = sizeof(soerr);
    getsockopt(fd_, SOL_SOCKET, SO_ERROR, &soerr, &slen);
    if (soerr != 0) {
      BeginReconnect("connect failed");
      return false;
    }
  } else if (r != 0 && errno != EISCONN) {
    BeginReconnect("connect failed");
    return false;
  }

  uint8_t hello[kFrameHeaderSize];
  const size_t len =
      BuildFrame(FrameType::kHello, durable_offset(), nullptr, 0, hello);
  size_t off = 0;
  while (off < len) {
    const ssize_t m = ::send(fd_, hello + off, len - off, MSG_NOSIGNAL);
    if (m > 0) {
      off += static_cast<size_t>(m);
    } else if (m < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd p{fd_, POLLOUT, 0};
      ::poll(&p, 1, 100);
    } else if (m < 0 && errno == EINTR) {
      continue;
    } else {
      BeginReconnect("hello send failed");
      return false;
    }
  }
  end_ = parse_;
  state_ = State::kAwaitAck;
  hello_sent_ms_ = NowMs();
  last_rx_ms_ = NowMs();
  return true;
}

void SocketSource::PumpUdp(int timeout_ms) {
  const int64_t now = NowMs();
  if (state_ == State::kAwaitAck &&
      now - hello_sent_ms_ >= config_.hello_retry_ms) {
    if (++attempts_ > config_.max_reconnect_attempts) {
      Fail("handshake: no ACK from producer");
      return;
    }
    stats_.reconnects++;
    SendHelloUdp();
  } else if (state_ == State::kStreaming &&
             now - last_rx_ms_ >= config_.stall_rehello_ms && peer_known_) {
    // Mid-stream silence: nudge the producer on the same bounded budget.
    if (++attempts_ > config_.max_reconnect_attempts) {
      Fail("producer stalled");
      return;
    }
    stats_.reconnects++;
    SendHelloUdp();
    state_ = State::kAwaitAck;
  }

  pollfd p{fd_, POLLIN, 0};
  if (::poll(&p, 1, timeout_ms) <= 0 || !(p.revents & POLLIN)) return;
  CompactReceiveBuffer();
  // Each datagram lands at end_ and stays there only if it is accepted as
  // DATA. Without room for a maximum-size one, the rest waits in the
  // kernel, whose overflow surfaces as a booked gap.
  constexpr size_t kMaxDatagram = kFrameHeaderSize + kMaxFramePayload;
  while (rx_.size() - end_ >= kMaxDatagram) {
    uint8_t* dgram = rx_.data() + end_;
    sockaddr_in from;
    socklen_t flen = sizeof(from);
    const ssize_t m = ::recvfrom(fd_, dgram, kMaxDatagram, MSG_DONTWAIT,
                                 reinterpret_cast<sockaddr*>(&from), &flen);
    if (m <= 0) break;
    last_rx_ms_ = NowMs();
    FrameHeader h;
    if (static_cast<size_t>(m) < kFrameHeaderSize ||
        !DecodeFrameHeader(dgram, static_cast<size_t>(m), &h) ||
        static_cast<size_t>(m) != kFrameHeaderSize + h.payload_len ||
        !VerifyFramePayload(h, dgram + kFrameHeaderSize)) {
      stats_.malformed_frames++;  // quarantined, never parsed further
      continue;
    }
    if (!peer_known_) {
      peer_addr_ = from;
      peer_known_ = true;
    }
    if (state_ == State::kAwaitPeer) {
      // First contact: ask for our resume offset before consuming data.
      SendHelloUdp();
      state_ = State::kAwaitAck;
    }
    const size_t queued = tail_;
    HandleFrame(h, dgram + kFrameHeaderSize);
    if (tail_ != queued) end_ = parse_ = end_ + static_cast<size_t>(m);
    if (state_ == State::kEnded) break;
  }
}

void SocketSource::PumpTcp(int timeout_ms) {
  const int64_t now = NowMs();
  if (state_ == State::kBackoff) {
    if (now < next_attempt_ms_) {
      const int64_t wait = std::min<int64_t>(timeout_ms, next_attempt_ms_ - now);
      if (wait > 0) ::poll(nullptr, 0, static_cast<int>(wait));
      return;
    }
    TryConnectTcp(timeout_ms);
    return;
  }
  if (state_ == State::kAwaitAck &&
      now - hello_sent_ms_ >= config_.hello_retry_ms) {
    // The ACK rides the same ordered stream as our HELLO; its absence
    // means the connection is wedged, so reconnect rather than re-send.
    BeginReconnect("no ACK on connection");
    return;
  }
  if (fd_ < 0) return;  // FIN already drained the socket

  pollfd p{fd_, POLLIN, 0};
  if (::poll(&p, 1, timeout_ms) <= 0) return;

  // Read straight into the buffer's free tail, and only while there is
  // one: a full buffer leaves the rest in the kernel, whose flow control
  // then holds the producer back.
  CompactReceiveBuffer();
  bool saw_eof = false;
  bool io_error = false;
  while (end_ < rx_.size()) {
    const ssize_t m =
        ::recv(fd_, rx_.data() + end_, rx_.size() - end_, MSG_DONTWAIT);
    if (m > 0) {
      end_ += static_cast<size_t>(m);
      last_rx_ms_ = NowMs();
      continue;
    }
    if (m == 0) {
      saw_eof = true;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // drained
    } else if (errno == EINTR) {
      continue;
    } else {
      io_error = true;
    }
    break;
  }

  // Parse before acting on EOF: the FIN frame usually lands in the same
  // poll as the peer's close.
  if (!ParseStreamBuffer()) {
    BeginReconnect("corrupt frame in stream");
    return;
  }
  if (state_ == State::kEnded) return;
  if (io_error) {
    BeginReconnect("recv failed");
    return;
  }
  if (saw_eof) {
    if (fin_seen_) {
      ::close(fd_);
      fd_ = -1;
    } else {
      // Half-close or a crashed producer mid-stream: recover by
      // reconnecting and re-HELLOing at our durable offset. Any torn
      // frame tail is discarded with the connection.
      BeginReconnect("peer closed mid-stream");
    }
  }
}

void SocketSource::Pump(int timeout_ms) {
  if (config_.mode == SocketSourceConfig::Mode::kUdp) {
    PumpUdp(timeout_ms);
  } else {
    PumpTcp(timeout_ms);
  }
}

ResumableSource::ReadResult SocketSource::Read(PacketRecord* buf, size_t max,
                                               size_t* n_out) {
  *n_out = 0;
  if (state_ == State::kClosed) {
    last_status_ = Status::InvalidArgument("SocketSource::Read before Open");
    return ReadResult::kEnd;
  }
  size_t n = TakePending(buf, max);
  MaybeFinish();
  const int64_t deadline = NowMs() + config_.read_timeout_ms;
  while (n == 0 && state_ != State::kEnded) {
    const int64_t left = deadline - NowMs();
    if (left <= 0) break;
    Pump(static_cast<int>(std::min<int64_t>(left, 50)));
    n += TakePending(buf + n, max - n);
    MaybeFinish();
  }
  *n_out = n;
  if (n > 0) return ReadResult::kRecords;
  if (state_ == State::kEnded) return ReadResult::kEnd;
  stats_.heartbeats++;  // an idle read: the runtime's heartbeat tick
  return ReadResult::kIdle;
}

}  // namespace streamop
