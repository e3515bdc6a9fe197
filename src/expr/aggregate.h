// Group aggregates: the ordinary per-group aggregation functions (sum,
// count, min, max, avg, first, last). Sum and count are *subtractable*,
// which the supergroup machinery relies on: when a cleaning phase deletes a
// group, its contribution is subtracted from the supergroup aggregate.

#ifndef STREAMOP_EXPR_AGGREGATE_H_
#define STREAMOP_EXPR_AGGREGATE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>

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

// ---- Accumulators ---------------------------------------------------------
// An aggregate's running state is a small per-kind struct. Its kind is not
// stored in it: whoever holds the state (a group record, a superaggregate)
// keeps the plan's Accumulator beside it, which knows the kind, the param
// and the update chosen for that kind. Three flag bits are kept outside the
// state too, in one byte per accumulator, so a group record packs them
// beside its own state byte instead of padding each state.

/// Flag bits of one accumulator.
enum AccumulatorFlag : uint8_t {
  kAccWeighted = 1,  // an update carried a weight != 1.0
  kAccAllUInt = 2,   // sum/avg: every input was UInt, so sum_u is the sum
  kAccHasValue = 4,  // min/max/first/last: `value` holds an input
};
inline constexpr uint8_t kAccInitialFlags = kAccAllUInt;

/// count(*) / count(x): the tuple count and the Horvitz–Thompson weight
/// sum (equal to count while no update was weighted). Every other kind's
/// state leads with one, so code that needs only the counts reads any
/// state as a CountState (the structs are standard-layout, so a state and
/// its first member share an address).
struct CountState {
  uint64_t count = 0;
  double weight_sum = 0.0;
};

/// sum / avg: the sum in unsigned and double space at once.
struct SumState {
  CountState counts;
  uint64_t sum_u = 0;
  double sum_d = 0.0;
};

/// min / max / first / last: the retained input value.
struct ExtremumState {
  CountState counts;
  Value value;
};

/// quantile / median: a Greenwald–Khanna sketch, owned, built on the first
/// update.
struct QuantileState {
  CountState counts;
  GkQuantileSketch* sketch = nullptr;
};

static_assert(sizeof(CountState) == 16 && sizeof(SumState) == 32 &&
                  sizeof(ExtremumState) == 32 && sizeof(QuantileState) == 24,
              "per-kind accumulator states are 16/32/32/24 bytes");
static_assert(std::is_standard_layout_v<SumState> &&
                  std::is_standard_layout_v<ExtremumState> &&
                  std::is_standard_layout_v<QuantileState>,
              "every state is pointer-interconvertible with its counts");

/// One aggregate's accumulator as its plan fixes it: the kind, the param and
/// the update for that kind, chosen once. The state it works on is held by
/// the caller (state_size() bytes, 8-byte aligned) with one flag byte.
class Accumulator {
 public:
  explicit Accumulator(AggregateKind kind, double param = 0.0);

  AggregateKind kind() const { return kind_; }

  /// Bytes of state: 16 (count), 32 (sum/avg, min/max/first/last) or 24
  /// (quantile); always a multiple of 8.
  size_t state_size() const;

  /// Constructs a fresh state at `state` and its flags; Destroy() frees
  /// what it owns (a string value, a sketch).
  void Construct(void* state, uint8_t* flags) const;
  void Destroy(void* state) const;

  /// Folds in one input lane, in VecCol's encoding (type tag and raw word;
  /// a string lane points at its std::string), with a Horvitz–Thompson
  /// weight: a tuple admitted with probability p contributes 1/p, so
  /// sum/count/avg stay unbiased under load shedding. Weight 1.0 keeps
  /// integer sums exact; any other weight moves sum/count/avg into
  /// double-space estimates. min/max/first/last/quantile ignore the weight
  /// (they are order statistics of the observed subsample).
  void Update(void* state, uint8_t* flags, uint8_t type, uint64_t raw,
              double weight) const {
    update_(state, flags, type, raw, weight);
  }
  /// The same for a materialized value (row mode).
  void Update(void* state, uint8_t* flags, const Value& v,
              double weight) const;

  /// Removes one previously added value. Only sum/count/avg support it;
  /// the other kinds return Unimplemented.
  Status Subtract(void* state, uint8_t* flags, const Value& v) const;

  /// Current result value.
  Value Final(const void* state, uint8_t flags) const;

  /// Checkpoint: one fixed encoding for every kind, the fields in the
  /// order of the single accumulator class this replaced. Fields a kind
  /// does not hold are written as that class's defaults (sum_u 0, sum_d
  /// 0.0, a null value, no sketch), so snapshot bytes did not change.
  void SerializeTo(const void* state, uint8_t flags, ByteWriter& w) const;

  /// Inverse of SerializeTo on a constructed state. Fails the reader when
  /// the encoded kind or param is not this accumulator's, or a sketch is
  /// encoded for a kind without one.
  void RestoreFrom(void* state, uint8_t* flags, ByteReader& r) const;

 private:
  using UpdateFn = void (*)(void* state, uint8_t* flags, uint8_t type,
                            uint64_t raw, double weight);

  AggregateKind kind_;
  double param_;
  UpdateFn update_ = nullptr;
};

/// True if `v1 < v2` under the evaluator's comparison semantics (numeric
/// cross-type compare; lexicographic strings). Shared with the evaluator.
bool ValueLess(const Value& v1, const Value& v2);

}  // namespace streamop

#endif  // STREAMOP_EXPR_AGGREGATE_H_
