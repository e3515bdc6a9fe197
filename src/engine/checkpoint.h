// Durable engine snapshots (DESIGN.md §10): a versioned, CRC-guarded binary
// image of everything that must survive a kill — sampler and SFUN state
// (RNG stream positions included), per-group aggregates, supergroup
// partials and creation order, window boundaries, load-shed controller
// position, telemetry exemplar reservoirs.
//
// One CheckpointManager owns the snapshot files of one query node. Writes
// are atomic (temp file + fsync + rename + directory fsync) so a crash
// mid-write can only ever leave the previous snapshot in place, never a
// half-written current one. A bounded set of the most recent snapshots is
// retained; LoadLatest() walks them newest-first and returns the first one
// whose header, version and CRC all verify — torn, truncated, bit-flipped
// or stale-version files are counted, logged and skipped, never restored.
//
// Failure is a first-class state, not an abort: if the directory is
// unwritable or fsync fails, Write() retries a bounded number of times with
// backoff, then marks the manager degraded and returns — ingest continues
// without durability rather than crashing. A later successful write clears
// the degraded flag.

#ifndef STREAMOP_ENGINE_CHECKPOINT_H_
#define STREAMOP_ENGINE_CHECKPOINT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/serde.h"
#include "obs/metrics.h"

namespace streamop {

struct CheckpointConfig {
  /// Snapshot directory. Empty disables checkpointing entirely.
  std::string dir;

  /// Write a snapshot every N window flushes (0 behaves like 1).
  uint64_t every_n_windows = 1;

  /// How many snapshots to retain per node. Older ones are deleted after a
  /// successful write; keeping >1 gives LoadLatest() a fallback when the
  /// newest file is corrupt.
  size_t retain = 3;

  /// File-name prefix (the owning query node's name): `<node>.ckpt.<N>`.
  std::string node = "node";

  /// Bounded retry on write failure: total attempts = 1 + max_retries,
  /// sleeping retry_backoff_ms * attempt between them.
  int max_retries = 3;
  uint64_t retry_backoff_ms = 10;

  /// Registry for the checkpoint gauges/counters; nullptr = process default.
  obs::MetricRegistry* registry = nullptr;
};

/// The outcome of LoadLatest().
struct LoadedCheckpoint {
  std::string payload;        // verified snapshot body
  uint64_t windows_flushed;   // flush count the snapshot was taken at
  std::string path;           // which file it came from
};

class CheckpointManager {
 public:
  explicit CheckpointManager(CheckpointConfig config);

  bool enabled() const { return !config_.dir.empty(); }

  /// Cadence + age bookkeeping, called on every window flush. Returns true
  /// when a snapshot should be written for this flush count (and updates
  /// the age gauge either way).
  bool ShouldWrite(uint64_t windows_flushed);

  /// Writes `payload` as the snapshot for `windows_flushed`, atomically,
  /// with bounded retry. Never throws and never aborts ingest: persistent
  /// failure increments failures(), sets degraded(), and returns false.
  bool Write(uint64_t windows_flushed, std::string_view payload);

  /// Newest snapshot that verifies (magic, header CRC, version, payload
  /// length and CRC), walking retained files newest-first. Invalid files
  /// are counted in corrupt_skipped() and skipped; nullopt when none is
  /// loadable.
  std::optional<LoadedCheckpoint> LoadLatest();

  /// Deletes every snapshot file of this node. A run that starts fresh
  /// calls it: the stale files' higher flush counts would otherwise
  /// outrank the fresh run's snapshots, and retention would delete those.
  void DiscardAll();

  // Plain counters, authoritative for RunReport (survive NO_STATS builds).
  uint64_t writes() const { return writes_; }
  uint64_t failures() const { return failures_; }
  uint64_t corrupt_skipped() const { return corrupt_skipped_; }
  uint64_t last_bytes() const { return last_bytes_; }
  uint64_t last_write_ns() const { return last_write_ns_; }
  bool degraded() const { return degraded_; }

  /// Snapshot wire format version accepted by this build. Version 2 added
  /// the operator's plan fingerprint to the payload.
  static constexpr uint32_t kVersion = 2;
  /// Fixed header size in bytes (see checkpoint.cc for the layout).
  static constexpr size_t kHeaderSize = 32;

  /// Frames `payload` with the magic/version/CRC header — exposed so tests
  /// (and the fault injector) can build valid and near-valid files.
  static std::string FrameSnapshot(uint64_t windows_flushed,
                                   std::string_view payload,
                                   uint32_t version = kVersion);

  /// Verifies a framed snapshot; on success fills `out` and returns true.
  /// `why` (optional) receives a short reason on failure.
  static bool VerifySnapshot(std::string_view file_bytes,
                             LoadedCheckpoint* out,
                             std::string* why = nullptr);

 private:
  // All retained snapshot files of this node, newest (highest flush count)
  // first.
  std::vector<std::pair<uint64_t, std::string>> ListSnapshots() const;
  std::string SnapshotName(uint64_t windows_flushed) const;
  void DeleteOldSnapshots();

  CheckpointConfig config_;
  uint64_t last_written_windows_ = 0;
  uint64_t writes_ = 0;
  uint64_t failures_ = 0;
  uint64_t corrupt_skipped_ = 0;
  uint64_t last_bytes_ = 0;
  uint64_t last_write_ns_ = 0;
  bool degraded_ = false;

  obs::Gauge* bytes_gauge_ = nullptr;
  obs::Gauge* write_ns_gauge_ = nullptr;
  obs::Gauge* age_gauge_ = nullptr;
  obs::Gauge* degraded_gauge_ = nullptr;
  obs::Counter* writes_counter_ = nullptr;
  obs::Counter* failures_counter_ = nullptr;
  obs::Counter* corrupt_counter_ = nullptr;
};

}  // namespace streamop

#endif  // STREAMOP_ENGINE_CHECKPOINT_H_
