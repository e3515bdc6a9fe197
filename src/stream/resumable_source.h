// ResumableSource: the one input interface of the engine — an in-memory
// trace, a capture file or a socket — whose read position can be persisted
// and restored (DESIGN.md §11).
//
// This is the contract between the ingest layer and crash recovery. Each
// implementation exposes a *durable offset* — a monotonically advancing
// position in the input that, together with the source's identity (kind +
// stream_id), names exactly which records have been delivered:
//
//   trace_source:   the record index, so a restore resumes at that record;
//   pcap_reader:    the file byte position at a record boundary, so a
//                   restore seeks and re-reads byte-identically;
//   socket_source:  the producer's record sequence number, re-announced to
//                   the producer in a HELLO/ACK handshake, so a restore
//                   resumes at-most-once (an ACK beyond the requested
//                   offset is booked as a gap, never silently replayed).
//
// CheckpointManager persists (kind, stream_id, durable_offset) next to the
// operator snapshot; TwoLevelRuntime's drive loop only snapshots at batch
// boundaries, where every record read up to durable_offset() has been
// fully processed, so the pair is always consistent.
//
// The interface is single-threaded and poll-driven: Read() blocks at most
// the configured timeout and returns kIdle on quiet periods (the runtime
// turns those into heartbeat-empty batches so windows still close on
// time). Implementations own their fds and recover from transient failures
// internally (reconnect with backoff); only unrecoverable states surface
// as kEnd + last_status().

#ifndef STREAMOP_STREAM_RESUMABLE_SOURCE_H_
#define STREAMOP_STREAM_RESUMABLE_SOURCE_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "net/packet.h"

namespace streamop {

/// Counters a source keeps about its own ingest, snapshotted into
/// RunReport and mirrored to obs::IngestSourceMetrics by the runtime.
struct SourceIngestStats {
  uint64_t frames = 0;             // well-formed frames / pcap records
  uint64_t records = 0;            // PacketRecords delivered to the engine
  uint64_t malformed_frames = 0;   // quarantined (bad magic/CRC/framing)
  uint64_t reconnects = 0;         // socket reconnects / handshake retries
  uint64_t gaps = 0;               // sequence gaps detected
  uint64_t gap_records = 0;        // records lost to gaps
  uint64_t duplicate_records = 0;  // duplicates/reorders dropped
  uint64_t heartbeats = 0;         // idle reads (timeout or HEARTBEAT)
  uint64_t resume_offset = 0;      // durable offset at the last (re)start
};

/// FNV-1a hash of a source's identity string (file path, endpoint) — the
/// stream_id() implementations all derive from this so checkpointed
/// offsets can be matched against the configured source on restore.
inline uint64_t SourceStreamId(const std::string& identity) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : identity) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

class ResumableSource {
 public:
  enum class ReadResult {
    kRecords,  // one or more records were appended to the buffer
    kIdle,     // nothing arrived within the timeout; stream still live
    kEnd,      // stream is over (EOF / FIN / unrecoverable failure)
  };

  virtual ~ResumableSource() = default;

  /// Stable source family tag persisted in checkpoints ("trace", "pcap",
  /// "udp", "tcp"). A restored checkpoint whose kind doesn't match the
  /// configured source is discarded: the run starts fresh.
  virtual const char* kind() const = 0;

  /// Identity within the kind (FNV-1a hash of describe(): the file path
  /// or the endpoint; for a trace, of its size and end records). Guards
  /// against resuming an offset into a different file or stream than the
  /// one that was checkpointed.
  virtual uint64_t stream_id() const = 0;

  /// Human-readable description for logs and RunReport ("trace:N records",
  /// "pcap:trace.pcap", "udp:9901", "tcp:127.0.0.1:9902").
  virtual std::string describe() const = 0;

  /// Acquires the underlying resource (opens the file, binds/connects the
  /// socket, runs the initial handshake). Must be called before Read().
  virtual Status Open() = 0;

  /// Reads up to `max` records into `buf`. Returns kRecords with the count
  /// in *n_out, kIdle after the read timeout with no data (*n_out = 0), or
  /// kEnd when the stream is finished (*n_out may still carry a final
  /// partial batch; check last_status() for the reason).
  virtual ReadResult Read(PacketRecord* buf, size_t max, size_t* n_out) = 0;

  /// The durable input offset covering every record returned so far.
  /// Monotonically non-decreasing; only meaningful at batch boundaries.
  virtual uint64_t durable_offset() const = 0;

  /// Repositions the source so the next Read() continues from `offset`
  /// (pcap: seek to the byte position; socket: request the offset in the
  /// next HELLO). Called before Open() when restoring from a checkpoint.
  virtual Status SeekTo(uint64_t offset) = 0;

  /// How far the producer is ahead of what we've consumed: pcap = bytes
  /// to EOF, socket = producer head seq (from HEARTBEAT/DATA) minus
  /// durable_offset(). 0 when unknown or fully caught up.
  virtual uint64_t offset_lag() const = 0;

  virtual const SourceIngestStats& stats() const = 0;

  /// Terminal status once Read() returns kEnd: OK for a clean EOF/FIN,
  /// an error for unrecoverable failures (reconnect budget exhausted,
  /// unreadable file).
  virtual Status last_status() const = 0;

  /// Test hook: drop the current connection as if the peer vanished. The
  /// next Read() goes through the reconnect path. No-op for file sources.
  virtual void InjectDisconnect() {}
};

}  // namespace streamop

#endif  // STREAMOP_STREAM_RESUMABLE_SOURCE_H_
