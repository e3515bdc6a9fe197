// Binary serialization primitives for durable engine state (DESIGN.md §10).
//
// Every sampler, SFUN state blob and aggregate accumulator externalizes its
// state through ByteWriter/ByteReader so the checkpoint subsystem (and,
// later, shard-merge) sees one uniform surface. The format is deliberately
// boring: little-endian fixed-width integers, IEEE doubles by bit pattern,
// length-prefixed byte strings. No varints, no alignment, no framing — the
// enclosing snapshot supplies versioning and CRC (engine/checkpoint.h).
//
// Readers use sticky-failure semantics: a read past the end (or a failed
// expectation) poisons the reader, every subsequent read returns zero
// values, and the caller checks ok() once at the end of a restore instead
// of threading a status through every field. Restores must therefore be
// written so that garbage zero values cannot crash mid-restore (sizes are
// bounds-checked before container reserves).

#ifndef STREAMOP_COMMON_SERDE_H_
#define STREAMOP_COMMON_SERDE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace streamop {

/// Append-only little-endian binary encoder backed by a std::string.
class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }

  void U32(uint32_t v) {
    char b[4];
    for (int i = 0; i < 4; ++i) b[i] = static_cast<char>(v >> (8 * i));
    buf_.append(b, 4);
  }

  void U64(uint64_t v) {
    char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<char>(v >> (8 * i));
    buf_.append(b, 8);
  }

  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) { U64(std::bit_cast<uint64_t>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }

  /// Length-prefixed (u64) byte string.
  void Str(std::string_view s) {
    U64(s.size());
    buf_.append(s.data(), s.size());
  }

  /// Raw bytes, no length prefix (caller owns the framing).
  void Raw(const void* data, size_t n) {
    buf_.append(static_cast<const char*>(data), n);
  }

  const std::string& data() const { return buf_; }
  size_t size() const { return buf_.size(); }
  void Reserve(size_t n) { buf_.reserve(n); }
  void Clear() { buf_.clear(); }
  std::string Release() { return std::move(buf_); }

  /// Overwrites 4 bytes at `pos` with `v` (for patching a length/CRC slot
  /// reserved earlier). `pos + 4` must not exceed size().
  void PatchU32(size_t pos, uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_[pos + static_cast<size_t>(i)] = static_cast<char>(v >> (8 * i));
    }
  }
  /// PatchU32() for an 8-byte slot.
  void PatchU64(size_t pos, uint64_t v) {
    PatchU32(pos, static_cast<uint32_t>(v));
    PatchU32(pos + 4, static_cast<uint32_t>(v >> 32));
  }

 private:
  std::string buf_;
};

/// Bounds-checked little-endian decoder over a borrowed buffer with sticky
/// failure: any out-of-bounds read sets failed() and yields zeros from then
/// on. The buffer must outlive the reader.
class ByteReader {
 public:
  ByteReader(const void* data, size_t size)
      : p_(static_cast<const uint8_t*>(data)), size_(size) {}
  explicit ByteReader(std::string_view s) : ByteReader(s.data(), s.size()) {}

  uint8_t U8() {
    if (!Need(1)) return 0;
    return p_[pos_++];
  }

  uint32_t U32() {
    if (!Need(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= uint32_t{p_[pos_ + i]} << (8 * i);
    pos_ += 4;
    return v;
  }

  uint64_t U64() {
    if (!Need(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= uint64_t{p_[pos_ + i]} << (8 * i);
    pos_ += 8;
    return v;
  }

  int64_t I64() { return static_cast<int64_t>(U64()); }
  double F64() { return std::bit_cast<double>(U64()); }
  bool Bool() { return U8() != 0; }

  /// Reads a length-prefixed byte string. An inconsistent length (longer
  /// than the remaining buffer) fails the reader and returns "".
  std::string Str() {
    uint64_t n = U64();
    if (!Need(n)) return std::string();
    std::string out(reinterpret_cast<const char*>(p_ + pos_),
                    static_cast<size_t>(n));
    pos_ += static_cast<size_t>(n);
    return out;
  }

  /// Copies `n` raw bytes out; zero-fills on underflow.
  void Raw(void* out, size_t n) {
    if (!Need(n)) {
      std::memset(out, 0, n);
      return;
    }
    std::memcpy(out, p_ + pos_, n);
    pos_ += n;
  }

  /// Fails the reader unless at least `n` elements could plausibly follow
  /// (each at least `elem_bytes` wide). Call before reserve()/resize() with
  /// an untrusted count so a corrupt length cannot balloon memory.
  bool CheckCount(uint64_t n, size_t elem_bytes) {
    if (elem_bytes == 0) elem_bytes = 1;
    if (failed_ || n > (size_ - pos_) / elem_bytes) {
      failed_ = true;
      return false;
    }
    return true;
  }

  /// Advances past `n` bytes without reading them (e.g. an opaque blob
  /// whose consumer is absent in this build). Fails on underflow.
  void Skip(size_t n) {
    if (!Need(n)) return;
    pos_ += n;
  }

  bool ok() const { return !failed_; }
  bool failed() const { return failed_; }
  void MarkFailed() { failed_ = true; }
  size_t remaining() const { return failed_ ? 0 : size_ - pos_; }
  size_t position() const { return pos_; }

 private:
  bool Need(uint64_t n) {
    if (failed_ || n > size_ - pos_) {
      failed_ = true;
      return false;
    }
    return true;
  }

  const uint8_t* p_;
  size_t size_;
  size_t pos_ = 0;
  bool failed_ = false;
};

// --- Item hooks for templated samplers -------------------------------------
//
// Templated samplers (ReservoirSampler<T>, LossyCounting<K>, ...) serialize
// their stored items through unqualified SerdeWrite/SerdeRead calls, so ADL
// picks up overloads for user item types; the scalar and composite overloads
// below cover everything the engine itself instantiates.

inline void SerdeWrite(ByteWriter& w, uint64_t v) { w.U64(v); }
inline void SerdeWrite(ByteWriter& w, int64_t v) { w.I64(v); }
inline void SerdeWrite(ByteWriter& w, uint32_t v) { w.U32(v); }
inline void SerdeWrite(ByteWriter& w, double v) { w.F64(v); }
inline void SerdeWrite(ByteWriter& w, const std::string& v) { w.Str(v); }

inline void SerdeRead(ByteReader& r, uint64_t* v) { *v = r.U64(); }
inline void SerdeRead(ByteReader& r, int64_t* v) { *v = r.I64(); }
inline void SerdeRead(ByteReader& r, uint32_t* v) { *v = r.U32(); }
inline void SerdeRead(ByteReader& r, double* v) { *v = r.F64(); }
inline void SerdeRead(ByteReader& r, std::string* v) { *v = r.Str(); }

template <typename A, typename B>
void SerdeWrite(ByteWriter& w, const std::pair<A, B>& p) {
  SerdeWrite(w, p.first);
  SerdeWrite(w, p.second);
}
template <typename A, typename B>
void SerdeRead(ByteReader& r, std::pair<A, B>* p) {
  SerdeRead(r, &p->first);
  SerdeRead(r, &p->second);
}

template <typename T>
void SerdeWriteVector(ByteWriter& w, const std::vector<T>& v) {
  w.U64(v.size());
  for (const T& item : v) SerdeWrite(w, item);
}
template <typename T>
void SerdeReadVector(ByteReader& r, std::vector<T>* v) {
  uint64_t n = r.U64();
  v->clear();
  if (!r.CheckCount(n, 1)) return;
  v->reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    T item{};
    SerdeRead(r, &item);
    v->push_back(std::move(item));
  }
}

/// CRC-32C (Castagnoli), the checksum guarding checkpoint snapshots, SOP1
/// wire frames and flight-recorder segments. `seed` chains incremental
/// computation: Crc32c(b, Crc32c(a)) == Crc32c(a+b).
uint32_t Crc32c(const void* data, size_t n, uint32_t seed = 0);
inline uint32_t Crc32c(std::string_view s, uint32_t seed = 0) {
  return Crc32c(s.data(), s.size(), seed);
}

}  // namespace streamop

#endif  // STREAMOP_COMMON_SERDE_H_
