// The generic sampling operator (§5), the paper's core contribution.
//
// A sampling query
//
//   SELECT <exprs> FROM <stream> WHERE <pred>
//   GROUP BY <vars> [SUPERGROUP <vars>] [HAVING <pred>]
//   CLEANING WHEN <pred> CLEANING BY <pred>
//
// is evaluated per §6.4 with three hash tables: the group table, the
// (old/new) supergroup tables holding stateful-function states and
// superaggregates, and the supergroup->group membership table. Windows are
// delimited by changes of the ordered group-by variables; on a window
// boundary the HAVING clause decides which groups are emitted, and each new
// supergroup's SFUN states are initialized from the equivalent supergroup
// of the previous window (threshold carry-over).

#ifndef STREAMOP_CORE_SAMPLING_OPERATOR_H_
#define STREAMOP_CORE_SAMPLING_OPERATOR_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/flat_hash_table.h"
#include "common/serde.h"
#include "common/status.h"
#include "core/superagg.h"
#include "obs/exemplar.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/quality.h"
#include "obs/span.h"
#include "obs/trace_ring.h"
#include "expr/aggregate.h"
#include "expr/expr.h"
#include "expr/program.h"
#include "expr/stateful.h"
#include "stream/stream_source.h"
#include "tuple/schema.h"
#include "tuple/tuple.h"
#include "tuple/tuple_batch.h"

namespace streamop {

/// The analyzed form of a sampling query, produced by the query analyzer
/// (or hand-assembled by library users who skip SQL).
struct SamplingQueryPlan {
  SchemaPtr input_schema;

  // SELECT: expressions over (group key, aggregates, superaggregates,
  // stateful functions), plus output column names.
  std::vector<ExprPtr> select_exprs;
  std::vector<std::string> output_names;
  SchemaPtr output_schema;

  // WHERE: over (input, group key, superaggregates, stateful functions).
  ExprPtr where;

  // GROUP BY: expressions over the input tuple; `ordered` flags mark the
  // variables derived monotonically from ordered stream attributes (these
  // define the window).
  std::vector<ExprPtr> group_by_exprs;
  std::vector<std::string> group_by_names;
  std::vector<bool> group_by_ordered;

  // SUPERGROUP: subset of group-by variable slots, excluding ordered ones
  // (ordered variables are implicitly part of every supergroup).
  std::vector<int> supergroup_slots;

  ExprPtr having;         // per group at window end
  ExprPtr cleaning_when;  // per tuple, against supergroup state
  ExprPtr cleaning_by;    // per group during a cleaning phase

  std::vector<AggregateSpec> aggregates;  // group aggregates (incl. shadows)
  std::vector<SuperAggSpec> superaggs;

  // Stateful-function state slots referenced anywhere in the query.
  std::vector<const SfunStateDef*> sfun_states;

  uint64_t seed = 1;  // seeds per-supergroup SFUN RNG streams
};

/// Per-window execution statistics (the quantities behind Figs. 3 and 4).
struct WindowStats {
  std::vector<Value> window_id;  // values of the ordered group-by variables
  uint64_t tuples_in = 0;        // tuples arriving within the window
  uint64_t tuples_admitted = 0;  // tuples passing WHERE
  uint64_t groups_created = 0;
  uint64_t groups_removed = 0;   // by cleaning phases
  uint64_t peak_groups = 0;      // high-water mark of the group table
  uint64_t cleaning_phases = 0;  // CLEANING WHEN fired
  uint64_t groups_output = 0;    // groups surviving HAVING
  uint64_t tuples_output = 0;    // output rows emitted (after HAVING);
                                 // distinct from groups_output once a group
                                 // can yield multiple rows
  uint64_t late_tuples = 0;      // arrived after their window closed and
                                 // were clamped into this window
};

/// Executes one sampling query over a tuple stream.
class SamplingOperator {
 public:
  explicit SamplingOperator(std::shared_ptr<const SamplingQueryPlan> plan);
  ~SamplingOperator();

  SamplingOperator(const SamplingOperator&) = delete;
  SamplingOperator& operator=(const SamplingOperator&) = delete;

  /// Processes one input tuple; output rows of any window it closes become
  /// available via DrainOutput().
  Status Process(const Tuple& input) { return Process(input, 1.0); }

  /// Weighted variant for load shedding: the tuple was admitted upstream
  /// with probability 1/weight, so every sum/count/avg (and sum$/count$)
  /// contribution is scaled by `weight` (Horvitz–Thompson). Weight 1.0 is
  /// bit-identical to the unweighted path.
  Status Process(const Tuple& input, double weight);

  /// Batched hot path (DESIGN.md §9): processes every selected lane of
  /// `batch` in row order, equivalent tuple-for-tuple to calling Process()
  /// on each lane — including window boundaries mid-batch, late-tuple
  /// clamping, error positions, and every sampled output bit. Group-by
  /// keys, WHERE, and aggregate arguments run column-at-a-time through
  /// compiled expression programs where possible; clauses that touch
  /// per-supergroup state (ssample et al.) drop to compiled row mode on the
  /// lane, and anything uncompilable falls back to Process() per lane.
  Status ProcessBatch(const TupleBatch& batch) {
    return ProcessBatch(batch, 1.0);
  }
  Status ProcessBatch(const TupleBatch& batch, double weight) {
    return ProcessBatch(batch, weight, nullptr);
  }

  /// Span-context variant: the caller (the runtime's ring-drain loop) fills
  /// the upstream fields of `span_ctx` (shed probability, rows drained) and
  /// receives back the id and sequence number of the last window span this
  /// batch fed, so its own drain span can parent under the window root.
  /// Null span_ctx is the untraced path, bit-identical to the 2-arg form.
  Status ProcessBatch(const TupleBatch& batch, double weight,
                      obs::SpanContext* span_ctx);

  /// Closes the final window at end-of-stream.
  Status FinishStream();

  /// Removes and returns the output rows produced so far.
  std::vector<Tuple> DrainOutput();

  /// Number of output rows produced and not yet drained.
  size_t output_size() const { return output_.size(); }

  /// Statistics of every closed window, oldest first.
  const std::vector<WindowStats>& window_stats() const {
    return window_stats_;
  }

  /// Total tuples that arrived after their window had closed and were
  /// clamped into the then-current window (non-monotonic timestamps).
  uint64_t late_tuples() const { return late_tuples_total_; }

  const SamplingQueryPlan& plan() const { return *plan_; }

  /// Attaches registry-backed metrics (obs::OperatorMetrics::Create). The
  /// bundle is copied; the pointed-to metrics must outlive the operator
  /// (registry-owned metrics do). Default: uninstrumented, zero overhead.
  void set_metrics(const obs::OperatorMetrics& metrics) { metrics_ = metrics; }

  /// Redirects trace events (default: the process-wide obs::TraceRing).
  void set_trace_ring(obs::TraceRing* ring) { trace_ring_ = ring; }

  /// Targets per-window quality reports at `ring`, labeled with
  /// `node_name`. Default: the process-wide obs::QualityRing (reports are
  /// only built while the target ring is enabled; see obs/quality.h).
  void set_quality(obs::QualityRing* ring, std::string node_name) {
    if (ring != nullptr) quality_ring_ = ring;
    quality_node_ = std::move(node_name);
  }

  /// Redirects window-lifecycle spans (default: obs::SpanRing::Default()).
  void set_span_ring(obs::SpanRing* ring) {
    if (ring != nullptr) span_ring_ = ring;
  }

  /// Redirects phase-cycle accounting (default: obs::Profiler::Default()).
  void set_profiler(obs::Profiler* profiler) {
    if (profiler != nullptr) profiler_ = profiler;
  }

  /// Redirects telemetry exemplars (default: obs::ExemplarStore::Default()).
  void set_exemplars(obs::ExemplarStore* store) {
    if (store != nullptr) exemplars_ = store;
  }

  /// 1-based count of windows ever opened (ties spans to lifecycles).
  uint64_t window_seq() const { return window_seq_; }

  // ---- Durability (DESIGN.md §10) -------------------------------------

  /// Installs a hook invoked once per completed window flush, after the
  /// table swap and (on a mid-stream boundary) after the next window's
  /// bookkeeping is in place but before its first tuple is counted. At the
  /// call the operator's durable state is exactly the "between windows"
  /// snapshot point: SerializeDurableState() taken inside the hook and
  /// restored into a fresh operator resumes byte-identically once the
  /// already-consumed prefix of the stream is skipped. The argument is
  /// windows_flushed(). The hook must not call back into Process.
  void set_window_flush_hook(std::function<void(uint64_t)> hook) {
    window_flush_hook_ = std::move(hook);
  }

  /// Windows flushed so far. Unlike window_seq(), counted unconditionally
  /// (window_seq_ is observability-gated), so checkpoint cadence works in
  /// STREAMOP_NO_STATS builds too.
  uint64_t windows_flushed() const { return windows_flushed_; }

  /// Serializes every field that survives a restart: window position and
  /// per-window stats, the group/supergroup/membership tables (SFUN blobs
  /// via their SfunStateDef serialize hooks, length-prefixed so hook-less
  /// states round-trip as opaque skips), supergroup creation order, and
  /// every RNG-bearing counter. Byte-deterministic: hash tables are walked
  /// in creation order (or sorted by encoded key), never table order.
  void SerializeDurableState(ByteWriter& w) const;

  /// Rebuilds the operator from a SerializeDurableState() image. The
  /// operator must have been constructed with an equivalent plan (a
  /// fingerprint of plan shape is checked). On any decode failure the
  /// operator is reset to its freshly-constructed state and false is
  /// returned — a corrupt snapshot never leaves partial state behind.
  /// On success arms the replay skip: the next recovery_skip_remaining()
  /// input tuples are positionally discarded (they were fully processed
  /// before the snapshot), after which processing resumes normally.
  bool RestoreDurableState(ByteReader& r);

  /// Input tuples still to be discarded by the post-restore replay.
  uint64_t recovery_skip_remaining() const { return recovery_skip_remaining_; }
  bool recovering() const { return recovery_skip_remaining_ > 0; }

  /// Cancels the armed positional replay. Called by the runtime when it has
  /// repositioned the input *source* to the snapshot's durable offset — the
  /// prefix the replay would skip will never arrive, so skipping must be
  /// disarmed or the operator would discard live post-resume tuples.
  void ClearRecoveryReplay() { recovery_skip_remaining_ = 0; }

  /// SFUN state slots whose snapshot blob had no restore hook in this
  /// build (restarted fresh instead). Zero on a clean restore.
  uint64_t restore_states_skipped() const { return restore_states_skipped_; }

  /// Number of live groups / supergroups (introspection for tests).
  size_t num_groups() const { return groups_.size(); }
  size_t num_supergroups() const { return new_supergroups_.size(); }

 private:
  struct GroupEntry {
    std::vector<AggregateAccumulator> aggs;
  };

  struct SupergroupEntry {
    // SFUN state blobs, indexed by plan_->sfun_states slot.
    std::vector<std::unique_ptr<std::max_align_t[]>> blobs;
    std::vector<void*> states;
    std::vector<SuperAggState> superaggs;
  };

  // Flat open-addressing tables keyed by the hash-once GroupKey. Probes
  // compare the cached key hash before values; clear() keeps capacity so
  // the per-window table swap never rehashes the next window's burst.
  using GroupTable = FlatHashTable<GroupKey, GroupEntry, GroupKeyHash>;
  using SupergroupTable =
      FlatHashTable<GroupKey, SupergroupEntry, GroupKeyHash>;
  using MembershipTable =
      FlatHashTable<GroupKey, std::vector<GroupKey>, GroupKeyHash>;

  // Creates (or finds) the supergroup for `sk`, initializing SFUN states
  // from the previous window's equivalent supergroup when present.
  SupergroupEntry& GetOrCreateSupergroup(const GroupKey& sk);

  // Materializes the current superaggregate values of a supergroup into
  // `out` (cleared first); capacity is reused across calls.
  void SuperAggFinalsInto(const SupergroupEntry& sg,
                          std::vector<Value>* out) const;

  // Materializes the final values of a group's aggregates into `out`.
  void AggFinalsInto(const GroupEntry& g, std::vector<Value>* out) const;

  // Runs one cleaning phase over the groups of supergroup `sk`.
  Status RunCleaningPhase(const GroupKey& sk, SupergroupEntry& sg);

  // Removes a group: superaggregate corrections + table erasure.
  void RemoveGroup(const GroupKey& gk, SupergroupEntry& sg);

  // Window boundary: HAVING + SELECT per group, stats, table swap.
  Status FlushWindow();

  // The batched hot path behind the public ProcessBatch overloads; the
  // wrapper reports the window span id/seq back through span_ctx after the
  // body returns (covering every exit, fallback included).
  Status ProcessBatchInner(const TupleBatch& batch, double weight,
                           obs::SpanContext* span_ctx);

  // Replays batch lanes [first_lane, num_rows) through the tuple-at-a-time
  // Process(). Used whole-batch when a clause has no compiled program, and
  // as the error path when a column-wise precompute fails (precompute is
  // side-effect-free, so replaying from lane 0 reproduces the exact
  // tuple-at-a-time error position).
  Status ProcessBatchFallback(const TupleBatch& batch, size_t first_lane,
                              double weight);

  // Compiles the plan's clauses into bytecode programs (constructor).
  void CompilePrograms();

  // Builds the WindowQualityReport for the window just closed (stats
  // already pushed, tables not yet swapped — supergroup states and group
  // membership are still live) and pushes it into quality_ring_.
  void RecordWindowQuality();

  void DestroySupergroupStates(SupergroupTable& table);

  // Checkpoint helpers: one supergroup entry (superaggs + SFUN blobs) and
  // allocation of a fresh entry's state blobs for restore.
  void SerializeSupergroupEntry(const SupergroupEntry& sg,
                                ByteWriter& w) const;
  void RestoreSupergroupEntry(SupergroupEntry* sg, ByteReader& r);
  // Resets every durable field to the freshly-constructed state (used when
  // a restore fails partway so no garbage survives).
  void ResetDurableState();

  std::shared_ptr<const SamplingQueryPlan> plan_;

  GroupTable groups_;
  SupergroupTable new_supergroups_;
  SupergroupTable old_supergroups_;
  MembershipTable supergroup_groups_;

  // Supergroup keys in creation order. Output emission and window-final
  // hooks walk this list so results never depend on hash-table iteration
  // order (the flat tables' order shifts with capacity and churn).
  std::vector<GroupKey> supergroup_order_;

  // Scratch state for the allocation-free steady-state Process path: the
  // projected group / supergroup keys and the materialized superaggregate
  // finals are rebuilt in place each tuple, reusing capacity. Persistent
  // copies are made only when a new group or supergroup is created.
  GroupKey scratch_gk_;
  GroupKey scratch_sk_;
  std::vector<Value> scratch_superagg_finals_;
  std::vector<Value> scratch_agg_finals_;
  std::vector<Value> scratch_clamped_;  // late-tuple key rebuild (rare path)

  // ---- Batched execution (DESIGN.md §9) -------------------------------
  // Programs are compiled once at construction (never re-compiled on the
  // hot path; tests/hotpath_alloc_test.cc pins this down) and cached for
  // the operator's lifetime. batched_ok_ gates the columnar path: it
  // requires a compiled program for every clause the batch loop needs;
  // otherwise ProcessBatch degrades to a per-lane Process() replay.
  std::vector<std::optional<ExprProgram>> gb_progs_;  // per group-by expr
  std::optional<ExprProgram> where_prog_;
  std::optional<ExprProgram> cleaning_when_prog_;
  std::vector<std::optional<ExprProgram>> agg_arg_progs_;       // per agg
  std::vector<std::optional<ExprProgram>> superagg_arg_progs_;  // per s-agg
  bool batched_ok_ = false;
  std::vector<size_t> ordered_gb_slots_;  // group-by slots defining windows
  // Identity detection (program == one input-column load): the "result" of
  // such a program is its input column, so ProcessBatch aliases the batch
  // column instead of evaluating — the common case for srcIP/destIP keys
  // and len-style aggregate arguments costs zero copies. -1: not identity.
  std::vector<int> gb_identity_;
  std::vector<int> agg_arg_identity_;
  std::vector<int> superagg_arg_identity_;
  // Indices of superaggs with per-tuple updates (sum$/count$/first$), so
  // the lane loop skips the kind checks for group-level ones.
  std::vector<size_t> tuple_level_superaggs_;

  // Per-batch columnar scratch, capacity-stable across batches: evaluated
  // key columns, replicated per-lane key hashes (bit-equal to
  // GroupKey::Hash() by the RawValueHash fold), the precomputed WHERE
  // column, aggregate argument columns, and the admitted-lane mask.
  std::vector<VecCol> key_cols_;
  std::vector<const VecCol*> key_col_ptrs_;
  std::vector<uint64_t> lane_gk_hash_;
  std::vector<uint64_t> lane_sk_hash_;
  VecCol where_col_;
  std::vector<VecCol> agg_arg_cols_;
  std::vector<const VecCol*> agg_arg_ptrs_;  // evaluated col or batch alias
  std::vector<uint8_t> agg_arg_col_ok_;
  std::vector<VecCol> superagg_arg_cols_;
  std::vector<const VecCol*> superagg_arg_ptrs_;
  std::vector<uint8_t> superagg_arg_col_ok_;
  std::vector<uint8_t> admit_mask_;
  ExprProgram::BatchScratch batch_scratch_;
  std::vector<Value> row_stack_;  // reusable EvalRow stack (kMaxRowStack)
  Tuple batch_row_;  // materialized lane for fallback / late paths

  bool window_open_ = false;
  std::vector<Value> current_window_id_;
  uint64_t late_tuples_total_ = 0;

  WindowStats live_stats_;
  std::vector<WindowStats> window_stats_;
  std::vector<Tuple> output_;
  uint64_t supergroup_seq_ = 0;  // distinct RNG stream per supergroup

  // ---- Durability (DESIGN.md §10) -------------------------------------
  // windows_flushed_ counts completed FlushWindow calls unconditionally
  // (window_seq_ is stats-gated). The hook fires at the between-windows
  // snapshot point; recovery_skip_remaining_ arms the positional replay
  // skip after a restore — Process() discards that many tuples and
  // ProcessBatch degrades to the per-lane fallback until it drains.
  uint64_t windows_flushed_ = 0;
  uint64_t recovery_skip_remaining_ = 0;
  uint64_t restore_states_skipped_ = 0;
  std::function<void(uint64_t)> window_flush_hook_;

  // Flushes the pending_* deltas below into the registry counters.
  void FlushPendingMetrics();

  // Observability (see DESIGN.md §7). The admission histogram is sampled
  // 1-in-256 tuples so the steady-state hot path pays no clock reads, and
  // per-tuple counts accumulate in the plain pending_* fields (one
  // increment each), batched into the registry's atomics on the same
  // 1-in-256 tick and at window boundaries — an atomic RMW per tuple would
  // alone blow the <=2% overhead budget.
  obs::OperatorMetrics metrics_;
  obs::TraceRing* trace_ring_ = &obs::TraceRing::Default();
  // Per-window sample-quality reporting (obs/quality.h). live_max_weight_
  // tracks the largest Horvitz–Thompson weight of the open window — one
  // double compare per tuple; the report itself is window-boundary work
  // gated on quality_ring_->enabled().
  obs::QualityRing* quality_ring_ = &obs::QualityRing::Default();
  // Window-lifecycle spans (obs/span.h): the root span's id is allocated at
  // window open — OpenWindowSpan() — so mid-window phase spans can parent
  // under it; the root itself is emitted last, at flush. Phase-cycle
  // accounting and exemplar offers ride the existing per-batch /
  // window-boundary instrumentation points, never per-tuple ones.
  obs::SpanRing* span_ring_ = &obs::SpanRing::Default();
  obs::Profiler* profiler_ = &obs::Profiler::Default();
  obs::ExemplarStore* exemplars_ = &obs::ExemplarStore::Default();
  void OpenWindowSpan();
  uint64_t window_seq_ = 0;         // windows ever opened (1-based)
  uint64_t window_span_id_ = 0;     // root span id of the open window
  uint64_t window_open_ts_ns_ = 0;  // wall clock at window open (spans on)
  std::string quality_node_ = "operator";
  uint64_t quality_seq_ = 0;
  double live_max_weight_ = 1.0;
  uint32_t admission_sample_tick_ = 0;
  uint64_t pending_tuples_ = 0;
  uint64_t pending_admitted_ = 0;
  uint64_t pending_superagg_updates_ = 0;
  uint64_t pending_sfun_calls_ = 0;
};

/// Convenience driver: runs `op` over every tuple of `source`, finishes the
/// stream, and returns all output rows.
Result<std::vector<Tuple>> RunToCompletion(SamplingOperator& op,
                                           StreamSource& source);

}  // namespace streamop

#endif  // STREAMOP_CORE_SAMPLING_OPERATOR_H_
