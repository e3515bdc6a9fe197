#include "tuple/value.h"

#include <cstdio>

namespace streamop {

const char* FieldTypeToString(FieldType t) {
  switch (t) {
    case FieldType::kNull:
      return "NULL";
    case FieldType::kBool:
      return "BOOL";
    case FieldType::kUInt:
      return "UINT";
    case FieldType::kInt:
      return "INT";
    case FieldType::kDouble:
      return "DOUBLE";
    case FieldType::kString:
      return "STRING";
  }
  return "UNKNOWN";
}

const std::string& Value::EmptyString() {
  static const std::string empty;
  return empty;
}

double Value::AsDouble() const {
  switch (type()) {
    case FieldType::kBool:
      return bool_value() ? 1.0 : 0.0;
    case FieldType::kUInt:
      return static_cast<double>(uint_value());
    case FieldType::kInt:
      return static_cast<double>(int_value());
    case FieldType::kDouble:
      return double_value();
    default:
      return 0.0;
  }
}

uint64_t Value::AsUInt() const {
  switch (type()) {
    case FieldType::kBool:
      return bool_value() ? 1 : 0;
    case FieldType::kUInt:
      return uint_value();
    case FieldType::kInt:
      return int_value() < 0 ? 0 : static_cast<uint64_t>(int_value());
    case FieldType::kDouble: {
      // Out-of-range casts are UB; clamp (huge thresholds must saturate,
      // not wrap to 0 — UMAX(x, 1e154) silently becoming x bit us once).
      double d = double_value();
      if (!(d > 0.0)) return 0;  // negatives and NaN
      if (d >= 18446744073709551615.0) return UINT64_MAX;
      return static_cast<uint64_t>(d);
    }
    default:
      return 0;
  }
}

int64_t Value::AsInt() const {
  switch (type()) {
    case FieldType::kBool:
      return bool_value() ? 1 : 0;
    case FieldType::kUInt:
      return static_cast<int64_t>(uint_value());
    case FieldType::kInt:
      return int_value();
    case FieldType::kDouble: {
      double d = double_value();
      if (d != d) return 0;  // NaN
      if (d >= 9223372036854775807.0) return INT64_MAX;
      if (d <= -9223372036854775808.0) return INT64_MIN;
      return static_cast<int64_t>(d);
    }
    default:
      return 0;
  }
}

bool Value::AsBool() const {
  switch (type()) {
    case FieldType::kNull:
      return false;
    case FieldType::kBool:
      return bool_value();
    case FieldType::kUInt:
      return uint_value() != 0;
    case FieldType::kInt:
      return int_value() != 0;
    case FieldType::kDouble:
      return double_value() != 0.0;
    case FieldType::kString:
      return !string_value().empty();
  }
  return false;
}

uint64_t Value::Hash() const {
  // Tag the type into the hash so that UInt(1) and Int(1) hash apart,
  // matching operator== semantics.
  uint64_t tag = static_cast<uint64_t>(type());
  switch (type()) {
    case FieldType::kNull:
      return Mix64(tag);
    case FieldType::kBool:
      return HashCombine(tag, bool_value() ? 1 : 0);
    case FieldType::kUInt:
      return HashCombine(tag, uint_value());
    case FieldType::kInt:
      return HashCombine(tag, static_cast<uint64_t>(int_value()));
    case FieldType::kDouble: {
      double d = double_value();
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      __builtin_memcpy(&bits, &d, sizeof(bits));
      return HashCombine(tag, bits);
    }
    case FieldType::kString:
      return HashCombine(tag, HashString(string_value()));
  }
  return 0;
}

void Value::SerializeTo(ByteWriter& w) const {
  w.U8(static_cast<uint8_t>(type_));
  switch (type_) {
    case FieldType::kNull:
      break;
    case FieldType::kString:
      w.Str(string_value());
      break;
    default:
      w.U64(raw_);
      break;
  }
}

Value Value::Deserialize(ByteReader& r) {
  uint8_t tag = r.U8();
  switch (static_cast<FieldType>(tag)) {
    case FieldType::kNull:
      return Value();
    case FieldType::kBool:
      return Value(FieldType::kBool, r.U64());
    case FieldType::kUInt:
      return Value(FieldType::kUInt, r.U64());
    case FieldType::kInt:
      return Value(FieldType::kInt, r.U64());
    case FieldType::kDouble:
      return Value(FieldType::kDouble, r.U64());
    case FieldType::kString:
      return Value(r.Str());
  }
  r.MarkFailed();
  return Value();
}

std::string Value::ToString() const {
  switch (type()) {
    case FieldType::kNull:
      return "NULL";
    case FieldType::kBool:
      return bool_value() ? "TRUE" : "FALSE";
    case FieldType::kUInt:
      return std::to_string(uint_value());
    case FieldType::kInt:
      return std::to_string(int_value());
    case FieldType::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g", double_value());
      return buf;
    }
    case FieldType::kString:
      return string_value();
  }
  return "?";
}

}  // namespace streamop
