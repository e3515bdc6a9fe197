// Deterministic fault injection for chaos-testing the pipeline: given a
// clean trace and a seed, produce a faulty trace (duplicates, reordering,
// timestamp regressions, truncated/corrupted packets, compressed bursts)
// that is bit-identical across runs — so every chaos test failure is
// replayable from its seed.
//
// Consumer-side faults (a high-level node that stalls or hangs) are
// modelled by a cooperative stall hook installed into RuntimeOptions; the
// hook sleeps in small increments while watching the runtime's abort flag,
// so the watchdog can always unstick the run.

#ifndef STREAMOP_STREAM_FAULT_INJECTION_H_
#define STREAMOP_STREAM_FAULT_INJECTION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "common/random.h"
#include "net/trace_generator.h"
#include "stream/resumable_source.h"

namespace streamop {

struct FaultInjectionConfig {
  uint64_t seed = 1;

  /// Per-packet probability of emitting a duplicate right after the packet.
  double p_duplicate = 0.0;

  /// Per-packet probability of swapping the packet forward by up to
  /// `reorder_window` positions (creates out-of-order timestamps).
  double p_reorder = 0.0;
  size_t reorder_window = 8;

  /// Per-packet probability of truncating `len` below the 20-byte minimum
  /// IP header (a malformed packet the consumer must reject, not crash on).
  double p_truncate = 0.0;

  /// Per-packet probability of corrupting header fields with random bytes.
  double p_corrupt = 0.0;

  /// Per-packet probability of a timestamp regression: ts_ns jumps
  /// backwards by up to `ts_backwards_max_sec` (late tuples downstream).
  double p_ts_backwards = 0.0;
  double ts_backwards_max_sec = 2.0;

  /// Per-packet probability of *starting* a burst: the next
  /// `burst_packets` packets have their inter-arrival gaps compressed by
  /// `burst_compression` (timestamps squeezed together → overload).
  double p_burst_start = 0.0;
  size_t burst_packets = 2048;
  double burst_compression = 50.0;
};

/// Applies the configured faults to a copy of `trace`. Deterministic: the
/// same (trace, config) pair always yields the same faulty trace.
Trace InjectFaults(const Trace& trace, const FaultInjectionConfig& config);

/// Consumer-stall fault: what a hook built by MakeConsumerStallHook does.
struct ConsumerStallSpec {
  /// Batch index at which the stall begins.
  uint64_t stall_at_batch = 0;
  /// How long the consumer stalls, in milliseconds. A value of UINT64_MAX
  /// means "hang forever" — the hook then sleeps until the runtime's abort
  /// flag is raised (only the watchdog can end the run).
  uint64_t stall_ms = 0;
  /// If > 0, also stall this many milliseconds on *every* batch from
  /// `stall_at_batch` on (a persistently slow consumer rather than a
  /// one-shot hiccup).
  uint64_t per_batch_ms = 0;
};

/// Builds a cooperative stall hook for RuntimeOptions::consumer_stall_hook.
/// The hook sleeps in 1 ms slices and re-checks `abort` between slices, so
/// a watchdog-initiated abort always terminates it promptly.
std::function<void(uint64_t, const std::atomic<bool>&)> MakeConsumerStallHook(
    const ConsumerStallSpec& spec);

/// Ingest-side faults for a ResumableSource. The wrapper injects what the
/// *consumer host* can plausibly suffer: surprise disconnects (driving the
/// reconnect/backoff + HELLO-resume machinery) and local stalls (driving
/// producer-side timeouts and the offset-lag gauge). Producer-side faults —
/// dropped frames, corrupt payloads, seq gaps, torn final frames — are
/// injected at the other end of the wire by TraceSenderConfig's fault
/// knobs (net/trace_sender.h), where they occur in reality.
struct ResumableFaultConfig {
  /// Drop the connection after every N delivered records (0 = off).
  uint64_t disconnect_every_records = 0;
  /// Stall for stall_ms before every Nth Read() call (0 = off).
  uint64_t stall_every_reads = 0;
  uint64_t stall_ms = 0;
};

/// ResumableSource wrapper applying ResumableFaultConfig. Offsets, stats
/// and status pass straight through to the inner source — the wrapper adds
/// adversity, not semantics, so recovery proofs hold with it in place.
class FaultyResumableSource : public ResumableSource {
 public:
  FaultyResumableSource(ResumableSource* inner,
                        const ResumableFaultConfig& config)
      : inner_(inner), config_(config) {}

  const char* kind() const override { return inner_->kind(); }
  uint64_t stream_id() const override { return inner_->stream_id(); }
  std::string describe() const override { return inner_->describe(); }
  Status Open() override { return inner_->Open(); }
  uint64_t durable_offset() const override { return inner_->durable_offset(); }
  Status SeekTo(uint64_t offset) override { return inner_->SeekTo(offset); }
  uint64_t offset_lag() const override { return inner_->offset_lag(); }
  const SourceIngestStats& stats() const override { return inner_->stats(); }
  Status last_status() const override { return inner_->last_status(); }
  void InjectDisconnect() override { inner_->InjectDisconnect(); }

  ReadResult Read(PacketRecord* buf, size_t max, size_t* n_out) override {
    if (config_.stall_every_reads > 0 &&
        ++reads_ % config_.stall_every_reads == 0 && config_.stall_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(config_.stall_ms));
    }
    const ReadResult r = inner_->Read(buf, max, n_out);
    if (config_.disconnect_every_records > 0) {
      records_since_disconnect_ += *n_out;
      if (records_since_disconnect_ >= config_.disconnect_every_records) {
        records_since_disconnect_ = 0;
        inner_->InjectDisconnect();
      }
    }
    return r;
  }

 private:
  ResumableSource* inner_;
  ResumableFaultConfig config_;
  uint64_t reads_ = 0;
  uint64_t records_since_disconnect_ = 0;
};

/// Checkpoint-file faults (engine/checkpoint.h): deterministic in-place
/// corruption of an on-disk snapshot, for testing that recovery detects
/// torn, bit-flipped and stale snapshots instead of restoring garbage.
enum class CheckpointFault {
  /// Cut the file at a seeded byte offset — a torn write. An offset inside
  /// the 32-byte header must read as "truncated header"; one inside the
  /// payload as "truncated payload".
  kTruncate,
  /// Flip one seeded bit anywhere in the file — silent media corruption.
  /// Must surface as a header or payload CRC mismatch.
  kBitFlip,
  /// Bump the header's version field and refresh the header CRC so the
  /// snapshot reads as well-formed but written by an unknown format
  /// revision. Must be skipped as "version mismatch", not torn — both
  /// CRCs stay valid.
  kStaleVersion,
};

/// Applies `fault` to the file at `path` in place; deterministic for a
/// given (file contents, seed). Returns false when the file cannot be
/// read/written or is too small to carry the fault (kStaleVersion needs
/// the full 32-byte header).
bool InjectCheckpointFault(const std::string& path, CheckpointFault fault,
                           uint64_t seed);

}  // namespace streamop

#endif  // STREAMOP_STREAM_FAULT_INJECTION_H_
