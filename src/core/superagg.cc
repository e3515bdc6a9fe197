#include "core/superagg.h"

#include "common/string_util.h"

namespace streamop {

bool LookupSuperAggKind(const std::string& name, SuperAggKind* kind) {
  if (EqualsIgnoreCase(name, "count_distinct")) {
    *kind = SuperAggKind::kCountDistinct;
    return true;
  }
  if (EqualsIgnoreCase(name, "kth_smallest_value") ||
      EqualsIgnoreCase(name, "kth_smallest")) {
    *kind = SuperAggKind::kKthSmallest;
    return true;
  }
  if (EqualsIgnoreCase(name, "kth_largest_value") ||
      EqualsIgnoreCase(name, "kth_largest")) {
    *kind = SuperAggKind::kKthLargest;
    return true;
  }
  if (EqualsIgnoreCase(name, "sum")) {
    *kind = SuperAggKind::kSum;
    return true;
  }
  if (EqualsIgnoreCase(name, "count")) {
    *kind = SuperAggKind::kCount;
    return true;
  }
  if (EqualsIgnoreCase(name, "first")) {
    *kind = SuperAggKind::kFirst;
    return true;
  }
  return false;
}

namespace {

// The plan-independent accumulator behind every sum$.
const Accumulator& SumAccumulator() {
  static const Accumulator acc(AggregateKind::kSum);
  return acc;
}

}  // namespace

void SuperAggState::OnTuple(const Value& v, double weight) {
  if (weight != 1.0) weighted_ = true;
  switch (spec_->kind) {
    case SuperAggKind::kSum:
      SumAccumulator().Update(&sum_, &sum_flags_, v, weight);
      // HT variance estimator term w(w−1)x² = x²(1−p)/p² — zero for
      // unshed tuples, so the unweighted hot path pays one branch.
      if (weight != 1.0) {
        const double x = v.AsDouble();
        ht_var_ += weight * (weight - 1.0) * x * x;
      }
      break;
    case SuperAggKind::kCount:
      ++tuple_count_;
      weighted_count_ += weight;
      if (weight != 1.0) ht_var_ += weight * (weight - 1.0);
      break;
    case SuperAggKind::kFirst:
      if (!has_first_) {
        first_ = v;
        has_first_ = true;
      }
      break;
    default:
      break;
  }
}

void SuperAggState::OnGroupCreated(std::span<const Value> key) {
  switch (spec_->kind) {
    case SuperAggKind::kCountDistinct:
      ++group_count_;
      break;
    case SuperAggKind::kKthSmallest:
    case SuperAggKind::kKthLargest:
      if (spec_->group_by_slot >= 0 &&
          static_cast<size_t>(spec_->group_by_slot) < key.size()) {
        values_.emplace(key[static_cast<size_t>(spec_->group_by_slot)], 0);
      }
      break;
    default:
      break;
  }
}

void SuperAggState::OnGroupRemoved(std::span<const Value> key,
                                   const Value& shadow_value) {
  switch (spec_->kind) {
    case SuperAggKind::kCountDistinct:
      if (group_count_ > 0) --group_count_;
      break;
    case SuperAggKind::kKthSmallest:
    case SuperAggKind::kKthLargest: {
      if (spec_->group_by_slot >= 0 &&
          static_cast<size_t>(spec_->group_by_slot) < key.size()) {
        auto it =
            values_.find(key[static_cast<size_t>(spec_->group_by_slot)]);
        if (it != values_.end()) values_.erase(it);
      }
      break;
    }
    case SuperAggKind::kSum:
      if (!shadow_value.is_null()) {
        // sum is subtractable
        SumAccumulator().Subtract(&sum_, &sum_flags_, shadow_value);
      }
      break;
    case SuperAggKind::kCount:
      if (!shadow_value.is_null()) {
        uint64_t c = shadow_value.AsUInt();
        tuple_count_ = tuple_count_ >= c ? tuple_count_ - c : 0;
        // The shadow count aggregate carries the same weights, so its final
        // value is the weighted contribution of the removed group.
        double wc = shadow_value.AsDouble();
        weighted_count_ = weighted_count_ >= wc ? weighted_count_ - wc : 0.0;
      }
      break;
    case SuperAggKind::kFirst:
      break;  // first$ is insensitive to removal
  }
}

Value SuperAggState::Final() const {
  switch (spec_->kind) {
    case SuperAggKind::kCountDistinct:
      return Value::UInt(group_count_);
    case SuperAggKind::kKthSmallest: {
      if (values_.size() < spec_->k || spec_->k == 0) {
        return Value::UInt(UINT64_MAX);
      }
      auto it = values_.begin();
      std::advance(it, static_cast<long>(spec_->k - 1));
      return it->first;
    }
    case SuperAggKind::kKthLargest: {
      if (values_.size() < spec_->k || spec_->k == 0) {
        return Value::UInt(0);
      }
      auto it = values_.rbegin();
      std::advance(it, static_cast<long>(spec_->k - 1));
      return it->first;
    }
    case SuperAggKind::kSum:
      return SumAccumulator().Final(&sum_, sum_flags_);
    case SuperAggKind::kCount:
      if (weighted_) return Value::Double(weighted_count_);
      return Value::UInt(tuple_count_);
    case SuperAggKind::kFirst:
      return has_first_ ? first_ : Value::Null();
  }
  return Value::Null();
}

void SuperAggState::SerializeTo(ByteWriter& w) const {
  w.U64(group_count_);
  SumAccumulator().SerializeTo(&sum_, sum_flags_, w);
  w.U64(tuple_count_);
  w.F64(weighted_count_);
  w.F64(ht_var_);
  w.Bool(weighted_);
  first_.SerializeTo(w);
  w.Bool(has_first_);
  // kKthSmallest multiset: the keys in order (the mapped char is unused).
  w.U64(values_.size());
  for (const auto& [v, unused] : values_) v.SerializeTo(w);
}

void SuperAggState::RestoreFrom(ByteReader& r) {
  group_count_ = r.U64();
  SumAccumulator().RestoreFrom(&sum_, &sum_flags_, r);
  tuple_count_ = r.U64();
  weighted_count_ = r.F64();
  ht_var_ = r.F64();
  weighted_ = r.Bool();
  first_ = Value::Deserialize(r);
  has_first_ = r.Bool();
  values_.clear();
  uint64_t n = r.U64();
  if (!r.CheckCount(n, 1)) return;
  for (uint64_t i = 0; i < n; ++i) values_.emplace(Value::Deserialize(r), 0);
}

}  // namespace streamop
