// TupleBatch: the columnar unit of the batched hot path (DESIGN.md §9).
//
// A fixed-capacity batch of rows stored column-major: per column one packed
// array of 64-bit payloads plus one array of per-lane type tags, exactly
// mirroring Value's tagged-union representation (bool/uint/int/double share
// the raw word; strings store a pointer to a batch-owned copy). A selection
// mask — one byte per row, the classic selection-vector layout — lets
// upstream stages (load shedding, selection nodes) disable lanes without
// compacting; downstream consumers iterate selected lanes only.
//
// The batch is a reusable arena: Clear() resets the row count but keeps
// every column's capacity, so the engine's ring-drain loop fills the same
// batch tens of thousands of times without touching the heap (packet
// streams carry no strings; string values are the only allocating case).
//
// A batch owns the strings its lanes point at, in storage that never moves,
// so a moved batch keeps every string lane valid. It cannot be copied (its
// string storage is a unique_ptr): a copy's lanes would point into the
// original's strings.

#ifndef STREAMOP_TUPLE_TUPLE_BATCH_H_
#define STREAMOP_TUPLE_TUPLE_BATCH_H_

#include <bit>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "net/packet.h"
#include "tuple/tuple.h"
#include "tuple/value.h"

namespace streamop {

/// Reconstructs a Value from a (type tag, raw payload) lane. Strings are
/// copied out of the batch (the pointer stays owned by the batch / scratch).
inline Value MaterializeRawValue(uint8_t type, uint64_t raw) {
  switch (static_cast<FieldType>(type)) {
    case FieldType::kNull:
      return Value::Null();
    case FieldType::kBool:
      return Value::Bool(raw != 0);
    case FieldType::kUInt:
      return Value::UInt(raw);
    case FieldType::kInt:
      return Value::Int(static_cast<int64_t>(raw));
    case FieldType::kDouble:
      return Value::Double(std::bit_cast<double>(raw));
    case FieldType::kString:
      return Value::String(*reinterpret_cast<const std::string*>(raw));
  }
  return Value::Null();
}

/// `v` as a lane payload for its type tag, without a copy: a string lane
/// points at v's own string, so it is valid while v lives unchanged.
inline uint64_t RawValueView(const Value& v) {
  switch (v.type()) {
    case FieldType::kNull:
      return 0;
    case FieldType::kBool:
      return v.bool_value() ? 1 : 0;
    case FieldType::kUInt:
      return v.uint_value();
    case FieldType::kInt:
      return static_cast<uint64_t>(v.int_value());
    case FieldType::kDouble:
      return std::bit_cast<uint64_t>(v.double_value());
    case FieldType::kString:
      return reinterpret_cast<uint64_t>(&v.string_value());
  }
  return 0;
}

/// Encodes a Value as a lane payload for its type tag
/// (static_cast<uint8_t>(v.type())), the inverse of MaterializeRawValue. A
/// string is copied into `strings` (stable addresses), which must outlive
/// every read of the lane.
inline uint64_t EncodeRawValue(const Value& v,
                               std::deque<std::string>* strings) {
  if (v.type() != FieldType::kString) return RawValueView(v);
  strings->push_back(v.string_value());
  return reinterpret_cast<uint64_t>(&strings->back());
}

/// Value::Hash() replicated over a (type, raw) lane — must stay bit-equal
/// to it (the batched group probe hashes lanes without materializing).
inline uint64_t RawValueHash(uint8_t type, uint64_t raw) {
  const uint64_t tag = type;
  switch (static_cast<FieldType>(type)) {
    case FieldType::kNull:
      return Mix64(tag);
    case FieldType::kBool:
      return HashCombine(tag, raw != 0 ? 1 : 0);
    case FieldType::kString:
      return HashCombine(
          tag, HashString(*reinterpret_cast<const std::string*>(raw)));
    default:
      // kUInt / kInt / kDouble all hash their 64 payload bits directly.
      return HashCombine(tag, raw);
  }
}

/// Value::operator== replicated against a (type, raw) lane: same type and
/// payload; doubles compare by value (-0 == +0, NaN != NaN).
inline bool RawValueEquals(const Value& v, uint8_t type, uint64_t raw) {
  if (v.type() != static_cast<FieldType>(type)) return false;
  switch (v.type()) {
    case FieldType::kNull:
      return true;
    case FieldType::kString:
      return v.string_value() ==
             *reinterpret_cast<const std::string*>(raw);
    case FieldType::kDouble:
      return v.double_value() == std::bit_cast<double>(raw);
    case FieldType::kBool:
      return v.bool_value() == (raw != 0);
    case FieldType::kUInt:
      return v.uint_value() == raw;
    case FieldType::kInt:
      return v.int_value() == static_cast<int64_t>(raw);
  }
  return false;
}

/// Value::AsBool() replicated over a (type, raw) lane.
inline bool RawValueAsBool(uint8_t type, uint64_t raw) {
  switch (static_cast<FieldType>(type)) {
    case FieldType::kNull:
      return false;
    case FieldType::kDouble:
      return std::bit_cast<double>(raw) != 0.0;
    case FieldType::kString:
      return !reinterpret_cast<const std::string*>(raw)->empty();
    default:  // kBool / kUInt / kInt
      return raw != 0;
  }
}

/// Value::AsDouble() replicated over a (type, raw) lane.
inline double RawValueAsDouble(uint8_t type, uint64_t raw) {
  switch (static_cast<FieldType>(type)) {
    case FieldType::kBool:
      return raw != 0 ? 1.0 : 0.0;
    case FieldType::kUInt:
      return static_cast<double>(raw);
    case FieldType::kInt:
      return static_cast<double>(static_cast<int64_t>(raw));
    case FieldType::kDouble:
      return std::bit_cast<double>(raw);
    default:  // kNull / kString
      return 0.0;
  }
}

/// One materialized column: packed 64-bit payloads plus per-lane type tags,
/// the common currency of TupleBatch storage and compiled-expression results
/// (expr/program.h) — sharing the layout lets the operator alias an input
/// column as an expression result without copying. String lanes point into
/// storage owned by whoever produced the column.
struct VecCol {
  std::vector<uint64_t> raw;
  std::vector<uint8_t> type;
};

/// The PKT row's eight lanes, in MakePacketSchema() order: (time, ts_ns,
/// srcIP, destIP, srcPort, destPort, proto, len).
inline void PacketLanes(const PacketRecord& p, uint64_t (&lanes)[8]) {
  lanes[0] = p.ts_sec();
  lanes[1] = p.ts_ns;
  lanes[2] = p.src_ip;
  lanes[3] = p.dst_ip;
  lanes[4] = p.src_port;
  lanes[5] = p.dst_port;
  lanes[6] = p.proto;
  lanes[7] = p.len;
}

class TupleBatch {
 public:
  TupleBatch() = default;
  TupleBatch(size_t num_cols, size_t capacity) { Configure(num_cols, capacity); }

  /// (Re)shapes the batch and reserves every column for `capacity` rows.
  void Configure(size_t num_cols, size_t capacity) {
    capacity_ = capacity;
    cols_.resize(num_cols);
    for (Column& c : cols_) {
      c.raw.reserve(capacity);
      c.type.reserve(capacity);
    }
    sel_.reserve(capacity);
    Clear();
  }

  size_t num_cols() const { return cols_.size(); }
  size_t num_rows() const { return num_rows_; }
  size_t capacity() const { return capacity_; }
  bool full() const { return num_rows_ >= capacity_; }
  bool empty() const { return num_rows_ == 0; }

  /// Resets to zero rows, retaining column capacity (and releasing owned
  /// string copies from the previous fill).
  void Clear() {
    for (Column& c : cols_) {
      c.raw.clear();
      c.type.clear();
    }
    sel_.clear();
    num_rows_ = 0;
    if (owned_ != nullptr) owned_->clear();
  }

  /// Fast path: appends `n` packets as 8-column PKT rows (all kUInt),
  /// bypassing per-tuple Value construction entirely. Each column grows
  /// once and is written by index; the type columns and the selection
  /// vector are filled in bulk. PacketToTuple below is the same mapping as
  /// a row.
  void AppendPackets(const PacketRecord* p, size_t n) {
    const size_t end = num_rows_ + n;
    uint64_t* raw[8];
    for (size_t c = 0; c < 8; ++c) {
      cols_[c].raw.resize(end);
      cols_[c].type.resize(end, static_cast<uint8_t>(FieldType::kUInt));
      raw[c] = cols_[c].raw.data() + num_rows_;
    }
    for (size_t i = 0; i < n; ++i) {
      uint64_t lanes[8];
      PacketLanes(p[i], lanes);
      raw[0][i] = lanes[0];
      raw[1][i] = lanes[1];
      raw[2][i] = lanes[2];
      raw[3][i] = lanes[3];
      raw[4][i] = lanes[4];
      raw[5][i] = lanes[5];
      raw[6][i] = lanes[6];
      raw[7][i] = lanes[7];
    }
    sel_.resize(end, 1);
    num_rows_ = end;
  }

  /// AppendPackets() for one packet. Growing seventeen arrays by one lane
  /// each costs about 3x more per record than pushing one lane onto each
  /// (measured on a 4-vCPU Xeon), so a single row is pushed.
  void AppendPacket(const PacketRecord& p) {
    uint64_t lanes[8];
    PacketLanes(p, lanes);
    for (size_t c = 0; c < 8; ++c) {
      cols_[c].raw.push_back(lanes[c]);
      cols_[c].type.push_back(static_cast<uint8_t>(FieldType::kUInt));
    }
    sel_.push_back(1);
    ++num_rows_;
  }

  /// Appends one row from a Tuple (generic path; string payloads are copied
  /// into the batch so the source tuple may die immediately).
  void AppendTuple(const Tuple& t) {
    for (size_t c = 0; c < cols_.size(); ++c) {
      AppendRawInto(&cols_[c], t.at(c));
    }
    sel_.push_back(1);
    ++num_rows_;
  }

  /// Makes `t` the batch's only row, reshaping the batch to t's width
  /// first if it differs: how a one-tuple call enters a batch operator.
  void SetSingleRow(const Tuple& t) {
    if (cols_.size() != t.size()) {
      Configure(t.size(), 1);
    } else {
      Clear();
    }
    AppendTuple(t);
  }

  /// Appends row `row` of `src` (all columns), copying strings.
  void AppendRowFrom(const TupleBatch& src, size_t row) {
    for (size_t c = 0; c < cols_.size(); ++c) {
      AppendRaw(c, src.cols_[c].type[row], src.cols_[c].raw[row]);
    }
    sel_.push_back(1);
    ++num_rows_;
  }

  /// Appends one (type, raw) lane to column `c` WITHOUT advancing the row
  /// count — callers building a row column-by-column must call FinishRow()
  /// once per row. Strings are copied into batch-owned storage.
  void AppendRaw(size_t c, uint8_t type, uint64_t raw) {
    if (static_cast<FieldType>(type) == FieldType::kString) {
      std::deque<std::string>* owned = OwnedStrings();
      owned->push_back(*reinterpret_cast<const std::string*>(raw));
      raw = reinterpret_cast<uint64_t>(&owned->back());
    }
    cols_[c].raw.push_back(raw);
    cols_[c].type.push_back(type);
  }
  void FinishRow() {
    sel_.push_back(1);
    ++num_rows_;
  }

  /// AppendRaw() for `n` lanes at once: one bulk insert per array, again
  /// WITHOUT advancing the row count (FinishRows() does). No lane may be a
  /// string — those need AppendRaw()'s batch-owned copy.
  void AppendColumn(size_t c, const uint64_t* raw, const uint8_t* type,
                    size_t n) {
    cols_[c].raw.insert(cols_[c].raw.end(), raw, raw + n);
    cols_[c].type.insert(cols_[c].type.end(), type, type + n);
  }
  /// FinishRow() for `n` rows at once.
  void FinishRows(size_t n) {
    sel_.insert(sel_.end(), n, 1);
    num_rows_ += n;
  }

  // Selection mask (one byte per row; rows append selected).
  bool selected(size_t row) const { return sel_[row] != 0; }
  void set_selected(size_t row, bool on) { sel_[row] = on ? 1 : 0; }
  const uint8_t* selection() const { return sel_.data(); }
  size_t num_selected() const {
    size_t n = 0;
    for (size_t i = 0; i < num_rows_; ++i) n += sel_[i];
    return n;
  }

  // Column access.
  const uint64_t* raw(size_t c) const { return cols_[c].raw.data(); }
  const uint8_t* type(size_t c) const { return cols_[c].type.data(); }
  uint8_t type_at(size_t c, size_t row) const { return cols_[c].type[row]; }
  uint64_t raw_at(size_t c, size_t row) const { return cols_[c].raw[row]; }

  Value ValueAt(size_t row, size_t c) const {
    return MaterializeRawValue(cols_[c].type[row], cols_[c].raw[row]);
  }

  /// Whole-column view, aliasable as a compiled-expression result (an
  /// identity program's output IS its input column).
  const VecCol& col(size_t c) const { return cols_[c]; }

  /// Fills a reused Tuple with row `row` (vector capacity is kept, so the
  /// steady-state fallback path does not allocate for numeric rows).
  void MaterializeRow(size_t row, Tuple* out) const {
    std::vector<Value>& vals = out->mutable_values();
    vals.resize(cols_.size());
    for (size_t c = 0; c < cols_.size(); ++c) {
      vals[c] = ValueAt(row, c);
    }
  }

 private:
  using Column = VecCol;

  void AppendRawInto(Column* col, const Value& v) {
    col->raw.push_back(v.type() == FieldType::kString
                           ? EncodeRawValue(v, OwnedStrings())
                           : RawValueView(v));
    col->type.push_back(static_cast<uint8_t>(v.type()));
  }

  std::deque<std::string>* OwnedStrings() {
    if (owned_ == nullptr) owned_ = std::make_unique<std::deque<std::string>>();
    return owned_.get();
  }

  std::vector<Column> cols_;
  std::vector<uint8_t> sel_;
  size_t num_rows_ = 0;
  size_t capacity_ = 0;
  // Owned string payloads (deque: stable addresses under growth), created
  // by the first string lane. Null for packet workloads, so a numeric batch
  // allocates only its columns, and a move never relocates a string.
  std::unique_ptr<std::deque<std::string>> owned_;
};

/// Converts a PacketRecord into a tuple matching MakePacketSchema():
/// (time, ts_ns, srcIP, destIP, srcPort, destPort, proto, len) — the row
/// form of TupleBatch::AppendPacket.
inline Tuple PacketToTuple(const PacketRecord& p) {
  return Tuple({Value::UInt(p.ts_sec()), Value::UInt(p.ts_ns),
                Value::UInt(p.src_ip), Value::UInt(p.dst_ip),
                Value::UInt(p.src_port), Value::UInt(p.dst_port),
                Value::UInt(p.proto), Value::UInt(p.len)});
}

}  // namespace streamop

#endif  // STREAMOP_TUPLE_TUPLE_BATCH_H_
