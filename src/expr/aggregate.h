// Group aggregates: the ordinary per-group aggregation functions (sum,
// count, min, max, avg, first, last). Sum and count are *subtractable*,
// which the supergroup machinery relies on: when a cleaning phase deletes a
// group, its contribution is subtracted from the supergroup aggregate.

#ifndef STREAMOP_EXPR_AGGREGATE_H_
#define STREAMOP_EXPR_AGGREGATE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "expr/expr.h"
#include "sampling/gk_quantile.h"
#include "tuple/value.h"

namespace streamop {

enum class AggregateKind {
  kSum,
  kCount,  // count(*) or count(expr)
  kMin,
  kMax,
  kAvg,
  kFirst,     // first value seen in the group (the paper's first())
  kLast,
  kQuantile,  // quantile(x, phi) / median(x): Greenwald-Khanna sketch
};

/// Resolves an aggregate function name ("sum", "count", ...); returns
/// nullptr-like false if the name is not an aggregate.
bool LookupAggregateKind(const std::string& name, AggregateKind* kind);

/// One aggregate computed per group: kind + (analyzed) argument expression.
struct AggregateSpec {
  AggregateKind kind = AggregateKind::kCount;
  ExprPtr arg;          // null for count(*)
  bool star = false;    // count(*)
  double param = 0.0;   // kQuantile: the phi of quantile(x, phi)
  std::string display;  // original text, for output naming / errors
};

/// Value-semantic accumulator for one aggregate instance.
class AggregateAccumulator {
 public:
  explicit AggregateAccumulator(AggregateKind kind = AggregateKind::kCount,
                                double param = 0.0)
      : kind_(kind), param_(param) {}

  AggregateAccumulator(AggregateAccumulator&&) = default;
  AggregateAccumulator& operator=(AggregateAccumulator&&) = default;

  /// Folds in one input value (ignored payload for count(*)).
  void Update(const Value& v) { Update(v, 1.0); }

  /// Folds in one value with a Horvitz–Thompson weight: a tuple admitted
  /// with probability p contributes with weight 1/p, so sum/count/avg stay
  /// unbiased under load shedding. Weight 1.0 is the exact unweighted path
  /// (integer sums remain integers); any other weight moves sum/count/avg
  /// into double-space estimates. min/max/first/last/quantile ignore the
  /// weight (they are order statistics of the observed subsample).
  void Update(const Value& v, double weight);

  /// Removes one previously-added value. Only sum/count/avg support
  /// subtraction; min/max/first/last return Unimplemented.
  Status Subtract(const Value& v);

  /// Merges another accumulator of the same kind (used when a group's
  /// total folds into a supergroup aggregate).
  void Merge(const AggregateAccumulator& other);

  /// Current result value.
  Value Final() const;

  AggregateKind kind() const { return kind_; }
  uint64_t count() const { return count_; }

  /// True once any update carried a weight != 1.0; Final() then reports
  /// double-space Horvitz–Thompson estimates for count/avg.
  bool weighted() const { return weighted_; }

  /// Checkpoint: the complete fold state, including the lazily-built
  /// quantile sketch when present.
  void SerializeTo(ByteWriter& w) const;
  void RestoreFrom(ByteReader& r);

 private:
  // The one-byte fields lead so they share one 8-byte slot; interleaved
  // with the 8-byte fields, each would pad to a slot of its own (96 bytes,
  // not 72), and every group holds one accumulator per aggregate.
  // SerializeTo() writes the fields in its own explicit order.
  AggregateKind kind_;
  // Sum state (below): the result stays UInt while every input was an
  // unsigned integer.
  bool all_uint_ = true;
  // True once any update carried a weight != 1.0 (see weight_sum_).
  bool weighted_ = false;
  bool has_value_ = false;  // extremum_ holds a value
  uint64_t count_ = 0;
  // Sum state: tracked in unsigned and double space simultaneously.
  uint64_t sum_u_ = 0;
  double sum_d_ = 0.0;
  // Horvitz–Thompson state: sum of admission weights. Equals count_ while
  // every update had weight 1.0 (weighted_ == false), in which case the
  // exact integer paths above stay authoritative.
  double weight_sum_ = 0.0;
  Value extremum_;  // min/max/first/last payload
  double param_ = 0.0;
  std::unique_ptr<GkQuantileSketch> sketch_;  // kQuantile, lazily built
};

static_assert(sizeof(AggregateAccumulator) <= 72,
              "one-byte fields must share a word ahead of the 8-byte state");

/// True if `v1 < v2` under the evaluator's comparison semantics (numeric
/// cross-type compare; lexicographic strings). Shared with the evaluator.
bool ValueLess(const Value& v1, const Value& v2);

}  // namespace streamop

#endif  // STREAMOP_EXPR_AGGREGATE_H_
