#include "engine/checkpoint.h"

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/file_util.h"
#include "obs/metrics.h"

namespace streamop {

namespace {

// Header layout (kHeaderSize = 32 bytes, little-endian):
//   u32 magic "STCK"
//   u32 version
//   u64 windows_flushed
//   u64 payload_len
//   u32 payload_crc   (CRC-32C of the payload bytes)
//   u32 header_crc    (CRC-32C of the 28 bytes above)
// The header CRC distinguishes a torn/bit-flipped header from a merely
// stale version, and the payload CRC catches truncation past the header
// (payload_len is also checked against the file size) and body bit flips.
constexpr uint32_t kMagic = 0x4B435453;  // "STCK"

bool ReadFileBytes(const std::string& path, std::string* out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  out->clear();
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    out->append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return true;
}

}  // namespace

CheckpointManager::CheckpointManager(CheckpointConfig config)
    : config_(std::move(config)) {
  if (config_.every_n_windows == 0) config_.every_n_windows = 1;
  if (config_.retain == 0) config_.retain = 1;
  obs::MetricRegistry& reg = config_.registry != nullptr
                                 ? *config_.registry
                                 : obs::MetricRegistry::Default();
  bytes_gauge_ = reg.GetGauge("streamop_checkpoint_bytes");
  write_ns_gauge_ = reg.GetGauge("streamop_checkpoint_write_ns");
  age_gauge_ = reg.GetGauge("streamop_checkpoint_age_windows");
  degraded_gauge_ = reg.GetGauge("streamop_checkpoint_degraded");
  writes_counter_ = reg.GetCounter("streamop_checkpoint_writes_total");
  failures_counter_ = reg.GetCounter("streamop_checkpoint_failures_total");
  corrupt_counter_ =
      reg.GetCounter("streamop_checkpoint_corrupt_skipped_total");
}

std::string CheckpointManager::FrameSnapshot(uint64_t windows_flushed,
                                             std::string_view payload,
                                             uint32_t version) {
  ByteWriter w;
  w.U32(kMagic);
  w.U32(version);
  w.U64(windows_flushed);
  w.U64(payload.size());
  w.U32(Crc32c(payload));
  w.U32(Crc32c(w.data()));  // header_crc over the 28 bytes above
  w.Raw(payload.data(), payload.size());
  return w.Release();
}

bool CheckpointManager::VerifySnapshot(std::string_view file_bytes,
                                       LoadedCheckpoint* out,
                                       std::string* why) {
  const auto fail = [&](const char* reason) {
    if (why != nullptr) *why = reason;
    return false;
  };
  if (file_bytes.size() < kHeaderSize) return fail("truncated header");
  ByteReader r(file_bytes.data(), kHeaderSize);
  const uint32_t magic = r.U32();
  const uint32_t version = r.U32();
  const uint64_t windows = r.U64();
  const uint64_t payload_len = r.U64();
  const uint32_t payload_crc = r.U32();
  const uint32_t header_crc = r.U32();
  if (magic != kMagic) return fail("bad magic");
  if (header_crc != Crc32c(file_bytes.data(), kHeaderSize - 4)) {
    return fail("header CRC mismatch");
  }
  if (version != kVersion) return fail("version mismatch");
  if (payload_len != file_bytes.size() - kHeaderSize) {
    return fail("truncated payload");
  }
  const std::string_view payload = file_bytes.substr(kHeaderSize);
  if (payload_crc != Crc32c(payload)) return fail("payload CRC mismatch");
  out->payload.assign(payload);
  out->windows_flushed = windows;
  return true;
}

bool CheckpointManager::ShouldWrite(uint64_t windows_flushed) {
  if (!enabled()) return false;
  const uint64_t age =
      windows_flushed >= last_written_windows_
          ? windows_flushed - last_written_windows_
          : windows_flushed;
  age_gauge_->Set(static_cast<double>(age));
  return windows_flushed % config_.every_n_windows == 0;
}

std::string CheckpointManager::SnapshotName(uint64_t windows_flushed) const {
  char seq[32];
  std::snprintf(seq, sizeof(seq), "%012llu",
                static_cast<unsigned long long>(windows_flushed));
  return config_.node + ".ckpt." + seq;
}

bool CheckpointManager::Write(uint64_t windows_flushed,
                              std::string_view payload) {
  if (!enabled()) return false;
  const auto t0 = std::chrono::steady_clock::now();
  const std::string framed = FrameSnapshot(windows_flushed, payload);
  const std::string name = SnapshotName(windows_flushed);

  Status st;
  for (int attempt = 0; attempt <= config_.max_retries; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          config_.retry_backoff_ms * static_cast<uint64_t>(attempt)));
    }
    st = WriteFileAtomic(config_.dir, name, framed);
    if (st.ok()) break;
  }
  const auto t1 = std::chrono::steady_clock::now();
  last_write_ns_ = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  write_ns_gauge_->Set(static_cast<double>(last_write_ns_));

  if (!st.ok()) {
    ++failures_;
    failures_counter_->Add();
    degraded_ = true;
    degraded_gauge_->Set(1.0);
    std::fprintf(stderr,
                 "[checkpoint] %s: write failed after %d attempts "
                 "(%s) — continuing without durability\n",
                 config_.node.c_str(), config_.max_retries + 1,
                 st.message().c_str());
    return false;
  }
  ++writes_;
  writes_counter_->Add();
  last_bytes_ = framed.size();
  last_written_windows_ = windows_flushed;
  bytes_gauge_->Set(static_cast<double>(last_bytes_));
  age_gauge_->Set(0.0);
  if (degraded_) {
    degraded_ = false;  // durability restored
    degraded_gauge_->Set(0.0);
  }
  DeleteOldSnapshots();
  return true;
}

std::vector<std::pair<uint64_t, std::string>>
CheckpointManager::ListSnapshots() const {
  std::vector<std::pair<uint64_t, std::string>> out;
  DIR* dir = ::opendir(config_.dir.c_str());
  if (dir == nullptr) return out;
  const std::string prefix = config_.node + ".ckpt.";
  for (struct dirent* e = ::readdir(dir); e != nullptr; e = ::readdir(dir)) {
    const std::string name = e->d_name;
    if (name.size() <= prefix.size() || name.compare(0, prefix.size(), prefix))
      continue;
    // Digits only: skips the writer's "<name>.tmp" files.
    const std::string seq = name.substr(prefix.size());
    if (seq.find_first_not_of("0123456789") != std::string::npos) continue;
    out.emplace_back(std::strtoull(seq.c_str(), nullptr, 10),
                     config_.dir + "/" + name);
  }
  ::closedir(dir);
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return out;
}

void CheckpointManager::DiscardAll() {
  for (const auto& snap : ListSnapshots()) ::unlink(snap.second.c_str());
  last_written_windows_ = 0;
}

void CheckpointManager::DeleteOldSnapshots() {
  const auto snaps = ListSnapshots();
  for (size_t i = config_.retain; i < snaps.size(); ++i) {
    ::unlink(snaps[i].second.c_str());
  }
}

std::optional<LoadedCheckpoint> CheckpointManager::LoadLatest() {
  if (!enabled()) return std::nullopt;
  for (const auto& [windows, path] : ListSnapshots()) {
    std::string bytes;
    if (!ReadFileBytes(path, &bytes)) {
      ++corrupt_skipped_;
      corrupt_counter_->Add();
      std::fprintf(stderr, "[checkpoint] %s: unreadable, skipped\n",
                   path.c_str());
      continue;
    }
    LoadedCheckpoint loaded;
    std::string why;
    if (!VerifySnapshot(bytes, &loaded, &why)) {
      ++corrupt_skipped_;
      corrupt_counter_->Add();
      std::fprintf(stderr, "[checkpoint] %s: %s, skipped\n", path.c_str(),
                   why.c_str());
      continue;
    }
    loaded.path = path;
    return loaded;
  }
  return std::nullopt;
}

}  // namespace streamop
