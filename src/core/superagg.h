// Superaggregates (§6.3): aggregates of the supergroup rather than the
// group, maintained incrementally as groups are created, updated and —
// crucially — *removed* by cleaning phases.
//
// Built-ins:
//   count_distinct$(*)            — number of live groups in the supergroup;
//   kth_smallest$(gbvar, k)       — kth smallest value of a group-by
//                                   variable over live groups (min-hash);
//   sum$(expr) / count$(expr)     — subtractable totals over qualifying
//                                   tuples, corrected on group removal via a
//                                   shadow group aggregate;
//   first$(expr)                  — first qualifying tuple's value in the
//                                   window.

#ifndef STREAMOP_CORE_SUPERAGG_H_
#define STREAMOP_CORE_SUPERAGG_H_

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "expr/aggregate.h"
#include "expr/expr.h"
#include "tuple/tuple.h"

namespace streamop {

enum class SuperAggKind {
  kCountDistinct,  // count_distinct$(*)
  kKthSmallest,    // kth_smallest$(group_by_var, k)
  kKthLargest,     // kth_largest$(group_by_var, k) — priority sampling's tau
  kSum,            // sum$(expr over input)
  kCount,          // count$(*)
  kFirst,          // first$(expr over input)
};

/// Resolves a superaggregate name ("count_distinct", "kth_smallest_value",
/// "sum", ...). The '$' suffix is stripped by the parser.
bool LookupSuperAggKind(const std::string& name, SuperAggKind* kind);

/// Analyzer output describing one superaggregate instance.
struct SuperAggSpec {
  SuperAggKind kind = SuperAggKind::kCountDistinct;
  ExprPtr arg;              // input expr (kSum/kCount/kFirst); null for (*)
  int group_by_slot = -1;   // kKthSmallest: which group-by variable
  uint64_t k = 0;           // kKthSmallest: rank
  int shadow_agg_slot = -1; // kSum/kCount: hidden group aggregate to
                            // subtract on group removal
  std::string display;
};

/// Runtime state of one superaggregate within one supergroup.
class SuperAggState {
 public:
  explicit SuperAggState(const SuperAggSpec* spec) : spec_(spec) {}

  /// A qualifying tuple contributed `v` (kSum/kCount/kFirst only).
  void OnTuple(const Value& v) { OnTuple(v, 1.0); }

  /// Weighted variant: under load shedding every admitted tuple carries its
  /// Horvitz–Thompson weight 1/p so sum$/count$ remain unbiased totals.
  void OnTuple(const Value& v, double weight);

  /// A new group was created; `key` holds its group-by values.
  void OnGroupCreated(std::span<const Value> key);

  /// A group was removed (by a cleaning phase, or by HAVING at window
  /// end). `key` holds its group-by values and `shadow_value` is the final
  /// value of the shadow aggregate (Null if none).
  void OnGroupRemoved(std::span<const Value> key, const Value& shadow_value);

  /// Current superaggregate value. kth_smallest$ (kth_largest$) with fewer
  /// than k live groups returns UInt max (0) so that the comparison admits
  /// everything while the sample is still filling.
  Value Final() const;

  /// Horvitz–Thompson variance estimate of Final() for sum$/count$ under
  /// Bernoulli admission (load shedding): each tuple admitted with weight
  /// w = 1/p contributes w(w−1)x², the classic unbiased estimator — zero
  /// when no tuple was shed. Conservative across group removals (removed
  /// groups' contributions are kept; variance never shrinks).
  double ht_variance() const { return ht_var_; }

  /// Live sample size behind kth_smallest$/kth_largest$ (KMV quality).
  uint64_t tracked_values() const { return values_.size(); }
  bool weighted() const { return weighted_; }

  const SuperAggSpec* spec() const { return spec_; }

  /// Checkpoint: the full partial state. The spec pointer is not part of
  /// the snapshot — RestoreFrom is called on a state constructed with the
  /// plan's spec, mirroring how SFUN restores ride on init().
  void SerializeTo(ByteWriter& w) const;
  void RestoreFrom(ByteReader& r);

 private:
  const SuperAggSpec* spec_;
  uint64_t group_count_ = 0;
  // sum$: a sum accumulator's state, as group records hold it.
  SumState sum_;
  uint8_t sum_flags_ = kAccInitialFlags;
  uint64_t tuple_count_ = 0;
  // count$ Horvitz–Thompson state: weighted_count_ tracks sum(1/p_i) and
  // becomes authoritative once any tuple arrived with weight != 1.0.
  double weighted_count_ = 0.0;
  double ht_var_ = 0.0;
  bool weighted_ = false;
  Value first_;
  bool has_first_ = false;
  // kKthSmallest: multiset of the tracked group-by values over live groups.
  std::multimap<Value, char, bool (*)(const Value&, const Value&)> values_{
      &ValueLess};
};

}  // namespace streamop

#endif  // STREAMOP_CORE_SUPERAGG_H_
