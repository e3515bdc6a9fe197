// Value: the dynamically-typed scalar that flows through expressions,
// group-by keys and output tuples. A tagged union over the five field
// types the query engine supports.

#ifndef STREAMOP_TUPLE_VALUE_H_
#define STREAMOP_TUPLE_VALUE_H_

#include <bit>
#include <cassert>
#include <cstdint>
#include <string>
#include <utility>

#include "common/hash.h"
#include "common/serde.h"
#include "common/status.h"

namespace streamop {

/// The scalar types a stream field or expression may have.
enum class FieldType {
  kNull = 0,
  kBool,
  kUInt,    // 64-bit unsigned (timestamps, addresses, lengths)
  kInt,     // 64-bit signed
  kDouble,  // IEEE double
  kString,
};

/// Short name for a field type ("UINT", "STRING", ...).
const char* FieldTypeToString(FieldType t);

/// True for kUInt / kInt / kDouble.
inline bool IsNumeric(FieldType t) {
  return t == FieldType::kUInt || t == FieldType::kInt ||
         t == FieldType::kDouble;
}

/// A dynamically typed scalar. Cheap to copy for all types except kString.
///
/// Implemented as a hand-rolled tagged union rather than std::variant: the
/// type tag plus one 64-bit word, 16 bytes in all. Every non-string
/// alternative lives in the word, so copy / move / assign of numeric values
/// — the per-tuple hot path is made of little else — is a branch plus a word
/// copy, fully inlined, instead of out-of-line variant visitation. A string
/// keeps its payload out of line: the word owns a heap std::string, or is
/// null for the empty string (a moved-from string Value stays kString and
/// reads as ""). Rows and group keys are built from Values, so the small
/// word keeps them small; the cost is one allocation per string copy.
class Value {
 public:
  Value() noexcept : type_(FieldType::kNull), raw_(0) {}
  ~Value() { DestroyString(); }

  Value(const Value& o) : type_(o.type_) {
    if (type_ == FieldType::kString) {
      str_ = CopyString(o.str_);
    } else {
      raw_ = o.raw_;
    }
  }
  Value(Value&& o) noexcept : type_(o.type_) {
    if (type_ == FieldType::kString) {
      str_ = std::exchange(o.str_, nullptr);
    } else {
      raw_ = o.raw_;
    }
  }
  Value& operator=(const Value& o) {
    if (this == &o) return *this;
    if (type_ == FieldType::kString && o.type_ == FieldType::kString &&
        str_ != nullptr) {
      *str_ = o.string_value();  // reuse the string's capacity
      return *this;
    }
    DestroyString();
    type_ = o.type_;
    if (type_ == FieldType::kString) {
      str_ = CopyString(o.str_);
    } else {
      raw_ = o.raw_;
    }
    return *this;
  }
  Value& operator=(Value&& o) noexcept {
    if (this == &o) return *this;
    DestroyString();
    type_ = o.type_;
    if (type_ == FieldType::kString) {
      str_ = std::exchange(o.str_, nullptr);
    } else {
      raw_ = o.raw_;
    }
    return *this;
  }

  static Value Null() { return Value(); }
  static Value Bool(bool b) { return Value(FieldType::kBool, b ? 1 : 0); }
  static Value UInt(uint64_t v) { return Value(FieldType::kUInt, v); }
  static Value Int(int64_t v) {
    return Value(FieldType::kInt, static_cast<uint64_t>(v));
  }
  static Value Double(double v) {
    return Value(FieldType::kDouble, std::bit_cast<uint64_t>(v));
  }
  static Value String(std::string s) { return Value(std::move(s)); }

  FieldType type() const { return type_; }

  bool is_null() const { return type_ == FieldType::kNull; }

  // Exact-type accessors; calling with the wrong type is a programming
  // error (asserted in debug builds).
  bool bool_value() const {
    assert(type_ == FieldType::kBool);
    return raw_ != 0;
  }
  uint64_t uint_value() const {
    assert(type_ == FieldType::kUInt);
    return raw_;
  }
  int64_t int_value() const {
    assert(type_ == FieldType::kInt);
    return static_cast<int64_t>(raw_);
  }
  double double_value() const {
    assert(type_ == FieldType::kDouble);
    return std::bit_cast<double>(raw_);
  }
  const std::string& string_value() const {
    assert(type_ == FieldType::kString);
    return str_ != nullptr ? *str_ : EmptyString();
  }

  /// Numeric coercion to double; Null/Bool/String coerce to 0.0, false/true
  /// to 0.0/1.0. Used by aggregates that operate in double space.
  double AsDouble() const;

  /// Numeric coercion to uint64; doubles truncate, negatives clamp to 0.
  uint64_t AsUInt() const;

  /// Numeric coercion to int64.
  int64_t AsInt() const;

  /// Truthiness: false for Null, false Bool, zero numeric, empty string.
  bool AsBool() const;

  /// 64-bit hash suitable for group-table keys.
  uint64_t Hash() const;

  /// Structural equality: same type and same payload. (Cross-numeric-type
  /// comparison is the expression evaluator's job, not Value's.) Doubles
  /// compare by value (NaN != NaN, -0 == +0), matching the old variant.
  bool operator==(const Value& other) const {
    if (type_ != other.type_) return false;
    switch (type_) {
      case FieldType::kString:
        return string_value() == other.string_value();
      case FieldType::kDouble:
        return double_value() == other.double_value();
      default:
        return raw_ == other.raw_;
    }
  }
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Human-readable rendering for examples and debugging.
  std::string ToString() const;

  /// Checkpoint encoding: type tag byte, then the payload (raw 64-bit word
  /// for scalars, length-prefixed bytes for strings, nothing for null).
  void SerializeTo(ByteWriter& w) const;

  /// Inverse of SerializeTo. An unknown type tag fails the reader and
  /// yields Null.
  static Value Deserialize(ByteReader& r);

 private:
  Value(FieldType t, uint64_t raw) noexcept : type_(t), raw_(raw) {}
  explicit Value(std::string s)
      : type_(FieldType::kString),
        str_(s.empty() ? nullptr : new std::string(std::move(s))) {}

  static std::string* CopyString(const std::string* s) {
    return s != nullptr ? new std::string(*s) : nullptr;
  }
  static const std::string& EmptyString();

  void DestroyString() {
    if (type_ == FieldType::kString) delete str_;
  }

  FieldType type_;
  union {
    uint64_t raw_;      // bool / uint / int / double payload (bit_cast)
    std::string* str_;  // owned string payload; null reads as ""
  };
};

static_assert(sizeof(Value) == 16, "Value is a tag plus one 64-bit word");

}  // namespace streamop

#endif  // STREAMOP_TUPLE_VALUE_H_
