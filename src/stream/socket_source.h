// SocketSource: a resumable network ingest source speaking the frame
// protocol of net/wire.h over a UDP datagram port or a length-framed TCP
// connection (DESIGN.md §11).
//
// Everything is nonblocking and poll()-driven from a single thread — the
// same discipline as obs/http_server. One Read() blocks at most
// read_timeout_ms; quiet periods surface as kIdle so the runtime can emit
// heartbeat-empty batches and windows keep closing on wall-clock time
// even when the wire is silent.
//
// Connection lifecycle. TCP: connect to the producer, send HELLO with our
// durable record offset, expect ACK, then stream. Any failure — refused
// connect, mid-stream EOF, a corrupt frame (TCP can only re-sync at
// connection granularity) — moves to a backoff state and retries with
// exponential backoff plus jitter, bounded by max_reconnect_attempts
// consecutive failures before the source ends with an error. UDP: bind
// the port, wait for any producer datagram to learn the peer address,
// then HELLO/ACK the same way; a stalled producer is nudged with a fresh
// HELLO on the same bounded-backoff budget.
//
// Delivery semantics. Sequence numbers count records; each DATA frame
// carries its first record's seq. Frames are reconciled against the next
// expected seq: behind = duplicates dropped, ahead = a gap booked in
// stats (lost datagrams, or an ACK past the requested resume offset), so
// delivery is at-most-once with loss always accounted, never silent.
// Frames that fail magic/CRC/framing checks are quarantined into
// malformed_frames. The durable offset reported for checkpoints covers
// only records already handed to the caller: accepted frames still
// waiting in the receive buffer are re-requested by a post-restart HELLO.
//
// Receive buffer. One fixed buffer of kReceiveBufferBytes is both the
// socket's read target and the pending queue: accepted DATA frames stay in
// place and Read() decodes them straight into the caller's array. A full
// buffer stops reading, so TCP flow control holds the producer back and
// UDP overflow surfaces as booked gaps. A reconnect keeps accepted frames
// and drops only the unparsed tail.

#ifndef STREAMOP_STREAM_SOCKET_SOURCE_H_
#define STREAMOP_STREAM_SOCKET_SOURCE_H_

#include <netinet/in.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "net/wire.h"
#include "stream/resumable_source.h"

namespace streamop {

struct SocketSourceConfig {
  enum class Mode { kUdp, kTcp };
  Mode mode = Mode::kUdp;
  /// TCP: producer address to connect to. Ignored for UDP (we bind).
  std::string host = "127.0.0.1";
  /// UDP: local port to bind; TCP: producer port.
  uint16_t port = 0;
  /// Max time one Read() blocks before returning kIdle.
  int read_timeout_ms = 100;
  /// Consecutive failed reconnects / unanswered HELLOs before the source
  /// gives up (kEnd with an error). Any successful handshake resets it.
  int max_reconnect_attempts = 8;
  /// Exponential backoff bounds between reconnect attempts. The actual
  /// delay is initial * 2^attempt, capped at max, scaled by a random
  /// factor in [0.5, 1.0) so restarting consumers don't thundering-herd.
  int backoff_initial_ms = 20;
  int backoff_max_ms = 2000;
  uint64_t backoff_seed = 0x5eedu;
  /// Resend HELLO when an expected ACK hasn't arrived within this long.
  int hello_retry_ms = 200;
  /// UDP: mid-stream silence longer than this triggers a re-HELLO nudge
  /// (the producer may have missed our handshake or stalled).
  int stall_rehello_ms = 1000;
};

class SocketSource : public ResumableSource {
 public:
  /// Receive buffer size: four maximum-size frames. The buffer never
  /// holds more than kReceiveBufferBytes / kWireRecordSize records.
  static constexpr size_t kReceiveBufferBytes =
      4 * (kFrameHeaderSize + kMaxFramePayload);

  explicit SocketSource(SocketSourceConfig config);
  ~SocketSource() override;

  SocketSource(const SocketSource&) = delete;
  SocketSource& operator=(const SocketSource&) = delete;

  const char* kind() const override {
    return config_.mode == SocketSourceConfig::Mode::kUdp ? "udp" : "tcp";
  }
  uint64_t stream_id() const override { return SourceStreamId(describe()); }
  std::string describe() const override;
  Status Open() override;
  ReadResult Read(PacketRecord* buf, size_t max, size_t* n_out) override;
  /// The next record seq the caller hasn't seen: the head pending frame's
  /// next seq, or the receive frontier once nothing is pending. Using the
  /// head's own seq (not frontier minus count) keeps the offset honest
  /// when a gap has been booked past records still waiting in the buffer.
  uint64_t durable_offset() const override {
    return head_ < tail_ ? frames_[head_].seq : next_seq_;
  }
  Status SeekTo(uint64_t offset) override;
  uint64_t offset_lag() const override {
    const uint64_t durable = durable_offset();
    return producer_head_ > durable ? producer_head_ - durable : 0;
  }
  const SourceIngestStats& stats() const override { return stats_; }
  Status last_status() const override { return last_status_; }
  void InjectDisconnect() override;

  /// Producer's announced head sequence (from HEARTBEAT/FIN), for tests.
  uint64_t producer_head() const { return producer_head_; }

  /// UDP: the locally bound port (differs from config when binding port
  /// 0). Note an ephemeral port makes stream_id() unstable across
  /// restarts — checkpointable runs should configure a fixed port.
  uint16_t bound_port() const { return config_.port; }

 private:
  enum class State {
    kClosed,     // before Open()
    kAwaitPeer,  // UDP: bound, waiting for any producer datagram
    kAwaitAck,   // HELLO sent, waiting for the producer's ACK
    kBackoff,    // TCP: between reconnect attempts
    kStreaming,  // handshake done, consuming DATA frames
    kEnded,      // FIN fully drained, or the reconnect budget ran out
  };

  // One bounded step of the state machine: waits at most `timeout_ms` for
  // socket readiness and processes whatever arrived.
  void Pump(int timeout_ms);
  void PumpUdp(int timeout_ms);
  void PumpTcp(int timeout_ms);
  bool TryConnectTcp(int timeout_ms);
  void BeginReconnect(const char* why);
  void SendHelloUdp();
  void HandleFrame(const FrameHeader& h, const uint8_t* payload);
  void ProcessData(const FrameHeader& h, const uint8_t* payload);
  // Parses complete frames in [parse_, end_); false = desync, reconnect.
  bool ParseStreamBuffer();
  // Moves the live bytes (head pending frame, or the unparsed tail when
  // nothing is pending) to the front of the buffer.
  void CompactReceiveBuffer();
  void MaybeFinish();
  void Fail(const std::string& why);
  size_t TakePending(PacketRecord* buf, size_t max);
  int64_t BackoffDelayMs();

  SocketSourceConfig config_;
  State state_ = State::kClosed;
  int fd_ = -1;
  sockaddr_in peer_addr_{};
  bool peer_known_ = false;  // UDP: learned the producer's address
  sockaddr_in connect_addr_{};

  uint64_t next_seq_ = 0;       // next record seq we expect to receive
  uint64_t producer_head_ = 0;  // producer's announced head
  bool fin_seen_ = false;
  uint64_t fin_head_ = 0;

  // An accepted DATA frame whose records the caller hasn't all seen yet:
  // the next record's seq and its offset in rx_. Seqs are non-decreasing
  // across frames but may jump across booked gaps.
  struct PendingFrame {
    uint64_t seq;
    uint32_t offset;
    uint32_t left;
  };

  // rx_[0, parse_) holds parsed frames (pending ones and dead ones behind
  // them), rx_[parse_, end_) unparsed TCP bytes; UDP keeps parse_ == end_.
  std::vector<uint8_t> rx_;
  size_t parse_ = 0;
  size_t end_ = 0;
  // Pending frames are frames_[head_, tail_), in arrival order. Sized so it
  // cannot fill: every pending frame owns at least one record of rx_, and
  // all but the head also a header.
  std::vector<PendingFrame> frames_;
  size_t head_ = 0;
  size_t tail_ = 0;

  int attempts_ = 0;          // consecutive failures in the current outage
  int64_t next_attempt_ms_ = 0;
  int64_t hello_sent_ms_ = 0;
  int64_t last_rx_ms_ = 0;

  Pcg64 jitter_;
  SourceIngestStats stats_;
  Status last_status_ = Status::OK();
};

}  // namespace streamop

#endif  // STREAMOP_STREAM_SOCKET_SOURCE_H_
