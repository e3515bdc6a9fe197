// PacedSender: an open-loop SOP1 producer (net/wire.h) that keeps a fixed
// schedule, for the benchmark's tcp_paced workload.
//
// Record i of the stream is due at start + i / rate, whatever the consumer
// does. The sender accepts one consumer, answers its HELLO with an ACK,
// then sends each DATA frame as soon as its last record is due. While
// behind schedule it sends back to back without sleeping, and it records
// how late every frame went out. TraceSender's records_per_sec throttle
// cannot stand in for this: it sleeps a whole frame interval after each
// send, so it runs late, and it slows down whenever the consumer does.
//
// The input is one lap of records sent over and over: lap k goes out with
// every timestamp shifted by k * lap_ns, so the stream's windows keep
// advancing for as long as the schedule runs.

#ifndef STREAMOP_BENCH_E2E_PACED_SENDER_H_
#define STREAMOP_BENCH_E2E_PACED_SENDER_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "net/packet.h"

namespace streamop {
namespace e2e {

struct PacedSenderConfig {
  /// One lap of records in timestamp order. Must outlive the sender.
  const std::vector<PacketRecord>* lap = nullptr;
  /// Timestamp shift between consecutive laps.
  uint64_t lap_ns = 0;
  /// Records in the whole stream (sequence numbers 0 .. total - 1).
  uint64_t total_records = 0;
  double records_per_sec = 0.0;
  size_t records_per_frame = 512;
  int handshake_timeout_ms = 10000;
};

class PacedSender {
 public:
  explicit PacedSender(PacedSenderConfig config);
  ~PacedSender();

  PacedSender(const PacedSender&) = delete;
  PacedSender& operator=(const PacedSender&) = delete;

  /// Listens on 127.0.0.1 at an ephemeral port (see port()).
  Status Bind();
  uint16_t port() const { return port_; }

  /// Accepts one consumer and streams the whole schedule, then FIN.
  /// Blocks until done, until RequestStop(), or until the handshake times
  /// out.
  Status Serve();

  /// Makes a running Serve() return promptly (thread-safe).
  void RequestStop() { stop_.store(true, std::memory_order_relaxed); }

  /// Record `i` of the looped stream.
  PacketRecord RecordAt(uint64_t i) const;

  /// Steady-clock time (obs::NowNanos) at which record `i` is due. Valid
  /// once Serve() has returned after streaming began.
  uint64_t DueNs(uint64_t i) const;

  /// How late each DATA frame started to go out, in ns. Valid once Serve()
  /// has returned.
  const std::vector<uint64_t>& frame_lateness_ns() const { return lateness_; }

 private:
  PacedSenderConfig config_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  uint64_t start_ns_ = 0;
  std::vector<uint64_t> lateness_;
  std::atomic<bool> stop_{false};
};

}  // namespace e2e
}  // namespace streamop

#endif  // STREAMOP_BENCH_E2E_PACED_SENDER_H_
