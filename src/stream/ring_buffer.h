// A fixed-capacity single-producer / single-consumer ring buffer, the data
// path between a packet source and the low-level query node — mirroring
// Gigascope, where "data from a source stream is fed to the low level
// queries from a ring buffer without copying".
//
// Lock-free: one producer thread calls TryPush, one consumer thread calls
// TryPop. Also usable single-threaded (the benchmarks replay traces
// synchronously). RunThreaded's ring carries slices of the trace, so one
// push or pop moves a whole batch of records.

#ifndef STREAMOP_STREAM_RING_BUFFER_H_
#define STREAMOP_STREAM_RING_BUFFER_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>
#include <vector>

#include "obs/metrics.h"

namespace streamop {

template <typename T>
class RingBuffer {
 public:
  /// Holds exactly `capacity` items (at least one). The slot array is
  /// `capacity` rounded up to a power of two; head and tail run freely and
  /// are masked only to index it, so full (tail - head == capacity) and
  /// empty (tail == head) need no spare slot.
  explicit RingBuffer(size_t capacity)
      : buf_(std::bit_ceil(std::max<size_t>(capacity, 1))),
        mask_(buf_.size() - 1),
        capacity_(std::max<size_t>(capacity, 1)) {}

  RingBuffer(const RingBuffer&) = delete;
  RingBuffer& operator=(const RingBuffer&) = delete;

  size_t capacity() const { return capacity_; }

  /// Producer-side end-of-stream: after Close() every TryPush fails (not
  /// counted as an overload failure) while the consumer keeps draining what
  /// is already buffered. `closed() && empty()` is the consumer's EOS test.
  void Close() { closed_.store(true, std::memory_order_release); }
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Hard abort from either side: poisons the channel so both TryPush and
  /// TryPop fail immediately, unsticking whichever thread is still looping.
  /// Buffered items are abandoned. Poison implies Close.
  void Poison() {
    poisoned_.store(true, std::memory_order_release);
    closed_.store(true, std::memory_order_release);
  }
  bool poisoned() const { return poisoned_.load(std::memory_order_acquire); }

  /// Attaches data-path metrics (push/pop totals, push failures, occupancy
  /// high-water mark). The bundle must outlive the buffer; pass nullptr to
  /// detach. The hwm gauge is written by the producer thread only.
  void AttachMetrics(const obs::RingBufferMetrics* metrics) {
    metrics_ = metrics;
  }

  bool empty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

  size_t size() const {
    size_t h = head_.load(std::memory_order_acquire);
    size_t t = tail_.load(std::memory_order_acquire);
    return t - h;
  }

  /// Producer side. Returns false if the buffer is full (the caller decides
  /// whether to drop or retry; Gigascope drops under overload).
  bool TryPush(const T& item) {
    if (closed()) return false;  // EOS / poisoned: reject without counting
    size_t t = tail_.load(std::memory_order_relaxed);
    size_t h = head_.load(std::memory_order_acquire);
    if (t - h == capacity_) {
      if (obs::kStatsEnabled && metrics_ != nullptr) {
        metrics_->push_failures->Add();
      }
      return false;
    }
    buf_[t & mask_] = item;
    tail_.store(t + 1, std::memory_order_release);
    if (obs::kStatsEnabled && metrics_ != nullptr) {
      metrics_->pushes->Add();
      metrics_->occupancy_hwm->SetMax(static_cast<double>(t + 1 - h));
    }
    return true;
  }

  /// Consumer side. Returns false if the buffer is empty.
  bool TryPop(T* out) {
    if (poisoned()) return false;  // hard abort: abandon buffered items
    size_t h = head_.load(std::memory_order_relaxed);
    if (h == tail_.load(std::memory_order_acquire)) return false;
    *out = buf_[h & mask_];
    head_.store(h + 1, std::memory_order_release);
    if (obs::kStatsEnabled && metrics_ != nullptr) metrics_->pops->Add();
    return true;
  }

 private:
  std::vector<T> buf_;
  const obs::RingBufferMetrics* metrics_ = nullptr;
  size_t mask_ = 0;
  size_t capacity_ = 0;
  std::atomic<size_t> head_{0};  // items ever popped
  std::atomic<size_t> tail_{0};  // items ever pushed
  std::atomic<bool> closed_{false};
  std::atomic<bool> poisoned_{false};
};

}  // namespace streamop

#endif  // STREAMOP_STREAM_RING_BUFFER_H_
