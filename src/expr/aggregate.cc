#include "expr/aggregate.h"

#include <new>
#include <utility>

#include "common/string_util.h"
#include "tuple/tuple_batch.h"

namespace streamop {

bool LookupAggregateKind(const std::string& name, AggregateKind* kind) {
  struct Entry {
    const char* name;
    AggregateKind kind;
  };
  static constexpr Entry kEntries[] = {
      {"sum", AggregateKind::kSum},   {"count", AggregateKind::kCount},
      {"min", AggregateKind::kMin},   {"max", AggregateKind::kMax},
      {"avg", AggregateKind::kAvg},   {"first", AggregateKind::kFirst},
      {"last", AggregateKind::kLast}, {"quantile", AggregateKind::kQuantile},
      {"median", AggregateKind::kQuantile},
  };
  for (const Entry& e : kEntries) {
    if (EqualsIgnoreCase(e.name, name)) {
      *kind = e.kind;
      return true;
    }
  }
  return false;
}

bool ValueLess(const Value& v1, const Value& v2) {
  if (v1.type() == FieldType::kString && v2.type() == FieldType::kString) {
    return v1.string_value() < v2.string_value();
  }
  if (v1.type() == FieldType::kUInt && v2.type() == FieldType::kUInt) {
    return v1.uint_value() < v2.uint_value();
  }
  if (v1.type() == FieldType::kInt && v2.type() == FieldType::kInt) {
    return v1.int_value() < v2.int_value();
  }
  return v1.AsDouble() < v2.AsDouble();
}

namespace {

bool IsSumKind(AggregateKind k) {
  return k == AggregateKind::kSum || k == AggregateKind::kAvg;
}
bool IsExtremumKind(AggregateKind k) {
  return k == AggregateKind::kMin || k == AggregateKind::kMax ||
         k == AggregateKind::kFirst || k == AggregateKind::kLast;
}

// ValueLess(MaterializeRawValue(type, raw), v) when kLaneFirst, else
// ValueLess(v, MaterializeRawValue(type, raw)), without the Value.
template <bool kLaneFirst>
bool LaneLess(uint8_t type, uint64_t raw, const Value& v) {
  const FieldType t = static_cast<FieldType>(type);
  if (t == v.type()) {
    switch (t) {
      case FieldType::kString: {
        const std::string& s = *reinterpret_cast<const std::string*>(raw);
        return kLaneFirst ? s < v.string_value() : v.string_value() < s;
      }
      case FieldType::kUInt:
        return kLaneFirst ? raw < v.uint_value() : v.uint_value() < raw;
      case FieldType::kInt: {
        const int64_t i = static_cast<int64_t>(raw);
        return kLaneFirst ? i < v.int_value() : v.int_value() < i;
      }
      default:
        break;
    }
  }
  const double d = RawValueAsDouble(type, raw);
  return kLaneFirst ? d < v.AsDouble() : v.AsDouble() < d;
}

// The per-kind updates behind Accumulator::Update; the constructor picks
// one. Every kind counts the tuple and its weight first.
void CountIn(void* state, uint8_t* flags, double weight) {
  CountState* s = static_cast<CountState*>(state);
  ++s->count;
  s->weight_sum += weight;
  if (weight != 1.0) *flags |= kAccWeighted;
}

void UpdateCount(void* state, uint8_t* flags, uint8_t, uint64_t,
                 double weight) {
  CountIn(state, flags, weight);
}

void UpdateSum(void* state, uint8_t* flags, uint8_t type, uint64_t raw,
               double weight) {
  CountIn(state, flags, weight);
  SumState* s = static_cast<SumState*>(state);
  if (type == static_cast<uint8_t>(FieldType::kUInt) &&
      (*flags & kAccWeighted) == 0) {
    s->sum_u += raw;
  } else {
    *flags &= static_cast<uint8_t>(~kAccAllUInt);
  }
  s->sum_d += weight * RawValueAsDouble(type, raw);
}

// Extremum kinds: `replace` decides whether the lane displaces the value
// held (it is only asked once one is held).
template <bool (*replace)(uint8_t, uint64_t, const Value&)>
void UpdateExtremum(void* state, uint8_t* flags, uint8_t type, uint64_t raw,
                    double weight) {
  CountIn(state, flags, weight);
  ExtremumState* s = static_cast<ExtremumState*>(state);
  if ((*flags & kAccHasValue) == 0 || replace(type, raw, s->value)) {
    s->value = MaterializeRawValue(type, raw);
  }
  *flags |= kAccHasValue;
}

bool LaneBelow(uint8_t type, uint64_t raw, const Value& v) {
  return LaneLess<true>(type, raw, v);
}
bool LaneAbove(uint8_t type, uint64_t raw, const Value& v) {
  return LaneLess<false>(type, raw, v);
}
bool Never(uint8_t, uint64_t, const Value&) { return false; }
bool Always(uint8_t, uint64_t, const Value&) { return true; }

void UpdateQuantile(void* state, uint8_t* flags, uint8_t type, uint64_t raw,
                    double weight) {
  CountIn(state, flags, weight);
  QuantileState* s = static_cast<QuantileState*>(state);
  if (s->sketch == nullptr) s->sketch = new GkQuantileSketch(0.005);
  s->sketch->Insert(RawValueAsDouble(type, raw));
}

}  // namespace

Accumulator::Accumulator(AggregateKind kind, double param)
    : kind_(kind), param_(param) {
  switch (kind) {
    case AggregateKind::kCount:
      update_ = &UpdateCount;
      break;
    case AggregateKind::kSum:
    case AggregateKind::kAvg:
      update_ = &UpdateSum;
      break;
    case AggregateKind::kMin:
      update_ = &UpdateExtremum<&LaneBelow>;
      break;
    case AggregateKind::kMax:
      update_ = &UpdateExtremum<&LaneAbove>;
      break;
    case AggregateKind::kFirst:
      update_ = &UpdateExtremum<&Never>;
      break;
    case AggregateKind::kLast:
      update_ = &UpdateExtremum<&Always>;
      break;
    case AggregateKind::kQuantile:
      update_ = &UpdateQuantile;
      break;
  }
}

size_t Accumulator::state_size() const {
  if (kind_ == AggregateKind::kCount) return sizeof(CountState);
  if (IsSumKind(kind_)) return sizeof(SumState);
  if (IsExtremumKind(kind_)) return sizeof(ExtremumState);
  return sizeof(QuantileState);
}

void Accumulator::Construct(void* state, uint8_t* flags) const {
  if (kind_ == AggregateKind::kCount) {
    new (state) CountState();
  } else if (IsSumKind(kind_)) {
    new (state) SumState();
  } else if (IsExtremumKind(kind_)) {
    new (state) ExtremumState();
  } else {
    new (state) QuantileState();
  }
  *flags = kAccInitialFlags;
}

void Accumulator::Destroy(void* state) const {
  // Count and sum states are trivially destructible.
  if (IsExtremumKind(kind_)) {
    static_cast<ExtremumState*>(state)->~ExtremumState();
  } else if (kind_ == AggregateKind::kQuantile) {
    delete static_cast<QuantileState*>(state)->sketch;
  }
}

void Accumulator::Update(void* state, uint8_t* flags, const Value& v,
                         double weight) const {
  update_(state, flags, static_cast<uint8_t>(v.type()), RawValueView(v),
          weight);
}

Status Accumulator::Subtract(void* state, uint8_t* flags,
                             const Value& v) const {
  CountState* c = static_cast<CountState*>(state);
  switch (kind_) {
    case AggregateKind::kCount:
      if (c->count > 0) --c->count;
      // Weighted removal: the caller hands the (weighted) shadow total.
      if ((*flags & kAccWeighted) != 0) c->weight_sum -= v.AsDouble();
      return Status::OK();
    case AggregateKind::kSum:
    case AggregateKind::kAvg: {
      SumState* s = static_cast<SumState*>(state);
      if (s->counts.count > 0) --s->counts.count;
      if (v.type() == FieldType::kUInt && (*flags & kAccWeighted) == 0) {
        s->sum_u -= v.uint_value();
      } else {
        *flags &= static_cast<uint8_t>(~kAccAllUInt);
      }
      s->sum_d -= v.AsDouble();
      return Status::OK();
    }
    default:
      return Status::Unimplemented(
          "aggregate is not subtractable (min/max/first/last/quantile)");
  }
}

Value Accumulator::Final(const void* state, uint8_t flags) const {
  const CountState* c = static_cast<const CountState*>(state);
  const bool weighted = (flags & kAccWeighted) != 0;
  switch (kind_) {
    case AggregateKind::kCount:
      // Weighted count is the Horvitz–Thompson estimate sum(1/p_i); it is a
      // real number, so it reports as Double once any weight != 1.0.
      if (weighted) return Value::Double(c->weight_sum);
      return Value::UInt(c->count);
    case AggregateKind::kSum: {
      const SumState* s = static_cast<const SumState*>(state);
      if (s->counts.count == 0) return Value::UInt(0);
      return (flags & kAccAllUInt) != 0 ? Value::UInt(s->sum_u)
                                        : Value::Double(s->sum_d);
    }
    case AggregateKind::kAvg: {
      const SumState* s = static_cast<const SumState*>(state);
      if (s->counts.count == 0) return Value::Double(0.0);
      if (weighted && s->counts.weight_sum > 0.0) {
        return Value::Double(s->sum_d / s->counts.weight_sum);
      }
      return Value::Double(s->sum_d / static_cast<double>(s->counts.count));
    }
    case AggregateKind::kMin:
    case AggregateKind::kMax:
    case AggregateKind::kFirst:
    case AggregateKind::kLast:
      return (flags & kAccHasValue) != 0
                 ? static_cast<const ExtremumState*>(state)->value
                 : Value::Null();
    case AggregateKind::kQuantile: {
      const GkQuantileSketch* sketch =
          static_cast<const QuantileState*>(state)->sketch;
      if (sketch == nullptr) return Value::Null();
      return Value::Double(sketch->Query(param_));
    }
  }
  return Value::Null();
}

void Accumulator::SerializeTo(const void* state, uint8_t flags,
                              ByteWriter& w) const {
  const CountState* c = static_cast<const CountState*>(state);
  const SumState* s =
      IsSumKind(kind_) ? static_cast<const SumState*>(state) : nullptr;
  const GkQuantileSketch* sketch =
      kind_ == AggregateKind::kQuantile
          ? static_cast<const QuantileState*>(state)->sketch
          : nullptr;
  w.U8(static_cast<uint8_t>(kind_));
  w.U64(c->count);
  w.U64(s != nullptr ? s->sum_u : 0);
  w.F64(s != nullptr ? s->sum_d : 0.0);
  w.Bool((flags & kAccAllUInt) != 0);
  w.F64(c->weight_sum);
  w.Bool((flags & kAccWeighted) != 0);
  if (IsExtremumKind(kind_)) {
    static_cast<const ExtremumState*>(state)->value.SerializeTo(w);
  } else {
    Value::Null().SerializeTo(w);
  }
  w.Bool((flags & kAccHasValue) != 0);
  w.F64(param_);
  w.Bool(sketch != nullptr);
  if (sketch != nullptr) sketch->SerializeTo(w);
}

void Accumulator::RestoreFrom(void* state, uint8_t* flags,
                              ByteReader& r) const {
  if (r.U8() != static_cast<uint8_t>(kind_)) {
    r.MarkFailed();
    return;
  }
  CountState* c = static_cast<CountState*>(state);
  c->count = r.U64();
  const uint64_t sum_u = r.U64();
  const double sum_d = r.F64();
  uint8_t f = r.Bool() ? kAccAllUInt : 0;
  c->weight_sum = r.F64();
  if (r.Bool()) f |= kAccWeighted;
  Value value = Value::Deserialize(r);
  if (r.Bool()) f |= kAccHasValue;
  if (r.F64() != param_) r.MarkFailed();
  const bool has_sketch = r.Bool();
  *flags = f;
  if (IsSumKind(kind_)) {
    static_cast<SumState*>(state)->sum_u = sum_u;
    static_cast<SumState*>(state)->sum_d = sum_d;
  } else if (IsExtremumKind(kind_)) {
    static_cast<ExtremumState*>(state)->value = std::move(value);
  }
  if (!has_sketch) return;
  if (kind_ != AggregateKind::kQuantile) {
    r.MarkFailed();
    return;
  }
  QuantileState* q = static_cast<QuantileState*>(state);
  if (q->sketch == nullptr) q->sketch = new GkQuantileSketch();
  q->sketch->RestoreFrom(r);
}

}  // namespace streamop
