// TraceSender: the producer half of the ingest wire protocol (net/wire.h).
// Streams a Trace's PacketRecords to a consumer over UDP datagrams or a
// length-framed TCP connection, honoring the HELLO/ACK resume handshake so
// a consumer that restarts mid-stream can continue from its checkpointed
// record offset.
//
// One implementation serves three masters: the examples/streamop_send
// replay tool, the net_source tests (run in a background thread against a
// SocketSource in the same process), and the ingest benches. The fault
// knobs below exist for the latter two — a real replay tool leaves them 0.
// The sender streams from its caller's records; it keeps no copy.
//
// UDP session: the sender heartbeats toward the consumer's port until a
// HELLO{S} datagram comes back, answers ACK{T} (T = S clamped to the
// replay window), then streams DATA frames from record T, re-handshaking
// whenever another HELLO arrives (a restarted consumer). TCP session: the
// sender listens; each accepted connection must open with HELLO, gets its
// ACK, then receives DATA until the trace ends (FIN) or a fault kills the
// connection — the consumer reconnects and HELLOs again at its offset.

#ifndef STREAMOP_NET_TRACE_SENDER_H_
#define STREAMOP_NET_TRACE_SENDER_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "net/packet.h"
#include "net/wire.h"

namespace streamop {

/// A read-only view of records the caller owns and keeps alive, unchanged,
/// while the sender runs, so a replay tool or bench does not hold its trace
/// twice. It binds to a vector lvalue only: a temporary vector would die at
/// the end of the statement and leave the view dangling, so binding one
/// does not compile (a plain std::span would accept it silently).
class RecordsView : public std::span<const PacketRecord> {
 public:
  RecordsView() = default;
  RecordsView(const std::vector<PacketRecord>& records)  // NOLINT: implicit
      : std::span<const PacketRecord>(records) {}
  RecordsView(std::vector<PacketRecord>&&) = delete;
  RecordsView(const std::vector<PacketRecord>&&) = delete;
};

static_assert(std::is_assignable_v<RecordsView&, std::vector<PacketRecord>&>);
static_assert(
    std::is_assignable_v<RecordsView&, const std::vector<PacketRecord>&>);
static_assert(!std::is_assignable_v<RecordsView&, std::vector<PacketRecord>>,
              "a temporary vector would leave the view dangling");
static_assert(
    !std::is_assignable_v<RecordsView&, const std::vector<PacketRecord>&&>,
    "a temporary vector would leave the view dangling");

struct TraceSenderConfig {
  /// Records to stream, in order; sequence number == index. A view: the
  /// caller owns the vector and keeps it alive while the sender runs.
  RecordsView records;
  /// Records per DATA frame. UDP senders should stay <= kUdpRecordsPerFrame
  /// (one frame per datagram, under the MTU); TCP may batch larger.
  size_t records_per_frame = kUdpRecordsPerFrame;
  /// Throttle, 0 = unthrottled. Crash tests throttle so the producer is
  /// still mid-trace when the consumer is killed and restarted.
  double records_per_sec = 0.0;
  /// Heartbeat cadence while waiting for a HELLO (UDP only).
  int heartbeat_interval_ms = 50;
  /// How long to wait for the first handshake before giving up.
  int handshake_timeout_ms = 10000;
  /// After the trace is fully sent (FIN), keep serving resume handshakes
  /// for this long — a consumer that restarts right at the end can still
  /// re-fetch its tail. 0 = exit immediately after FIN.
  int linger_ms = 0;
  /// How many records back from the furthest-sent position a resume may
  /// reach. 0 = unlimited (the whole trace is replayable). A small window
  /// forces ACK-beyond-HELLO responses, exercising the consumer's
  /// at-most-once gap accounting.
  uint64_t replay_window = 0;

  // ---- fault knobs (tests and benches only) ----
  /// Skip sending every Nth DATA frame while still advancing the sequence:
  /// the consumer sees a clean sequence gap. 0 = off.
  uint64_t drop_every_nth_frame = 0;
  /// Flip a payload byte in every Nth DATA frame: the consumer's CRC check
  /// quarantines it (and the skipped records surface as a gap). 0 = off.
  uint64_t corrupt_every_nth_frame = 0;
  /// TCP: close the connection after this many DATA frames on it, forcing
  /// the consumer through reconnect + resume. 0 = off.
  uint64_t kill_connection_after_frames = 0;
  /// TCP, with kill_connection_after_frames: send only the first half of
  /// the final frame before closing — a torn frame the consumer must
  /// discard, not parse.
  bool kill_mid_frame = false;
  /// Send the FIN frame when the trace completes (off = just stop, as a
  /// crashing producer would).
  bool send_fin = true;
};

/// Counters, readable while the sender runs on another thread.
struct TraceSenderStats {
  std::atomic<uint64_t> frames_sent{0};
  std::atomic<uint64_t> records_sent{0};
  std::atomic<uint64_t> handshakes{0};
  std::atomic<uint64_t> connections{0};  // TCP accepts
  std::atomic<uint64_t> kills{0};        // fault-injected closes
};

class TraceSender {
 public:
  explicit TraceSender(TraceSenderConfig config);
  ~TraceSender();

  TraceSender(const TraceSender&) = delete;
  TraceSender& operator=(const TraceSender&) = delete;

  /// Streams over UDP to host:port (numeric IPv4 or "localhost").
  /// Blocks until the trace is delivered (plus linger) or RequestStop().
  Status RunUdp(const std::string& host, uint16_t port);

  /// Binds + listens on `port` (0 = ephemeral; see tcp_port()). Split from
  /// ServeTcp() so tests can learn the port before starting the consumer.
  Status BindTcp(uint16_t port);
  uint16_t tcp_port() const { return tcp_port_; }

  /// Accept/handshake/stream loop. Blocks until the trace is delivered
  /// (plus linger) or RequestStop(). Requires BindTcp() first.
  Status ServeTcp();

  /// Convenience: BindTcp + ServeTcp.
  Status RunTcp(uint16_t port);

  /// Ask a running RunUdp/ServeTcp to return promptly (thread-safe).
  void RequestStop() { stop_.store(true, std::memory_order_relaxed); }

  const TraceSenderStats& stats() const { return stats_; }

 private:
  uint64_t ClampResume(uint64_t requested) const;
  bool ShouldDrop(uint64_t frame_index) const;
  size_t BuildDataFrame(uint64_t pos, uint64_t frame_index, uint8_t* out,
                        size_t* n_records) const;
  void RateLimitPause(size_t records_in_frame);
  void ServeConnection(int fd, bool* delivered);

  TraceSenderConfig config_;
  TraceSenderStats stats_;
  std::atomic<bool> stop_{false};
  int listen_fd_ = -1;
  uint16_t tcp_port_ = 0;
  // Furthest record position ever streamed; the replay-window floor is
  // measured back from here.
  uint64_t high_water_ = 0;
  // Lifetime DATA-frame count, across connections: the drop/corrupt fault
  // moduli tick over it.
  uint64_t frame_counter_ = 0;
};

}  // namespace streamop

#endif  // STREAMOP_NET_TRACE_SENDER_H_
