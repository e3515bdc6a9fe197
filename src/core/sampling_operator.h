// The generic sampling operator (§5), the paper's core contribution.
//
// A sampling query
//
//   SELECT <exprs> FROM <stream> WHERE <pred>
//   GROUP BY <vars> [SUPERGROUP <vars>] [HAVING <pred>]
//   CLEANING WHEN <pred> CLEANING BY <pred>
//
// is evaluated per §6.4. The open window's groups are fixed-stride records
// in one arena (key values, then accumulators), found through an index
// from key hash to record; the (old/new) supergroup tables hold the
// stateful-function states, the superaggregates and each supergroup's list
// of member records. Windows are delimited by changes of the ordered
// group-by variables; on a window boundary the HAVING clause decides which
// groups are emitted, the arena is reset without freeing its blocks, and
// each new supergroup's SFUN states are initialized from the equivalent
// supergroup of the previous window (threshold carry-over).

#ifndef STREAMOP_CORE_SAMPLING_OPERATOR_H_
#define STREAMOP_CORE_SAMPLING_OPERATOR_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
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
#include "expr/aggregate.h"
#include "expr/expr.h"
#include "expr/program.h"
#include "expr/stateful.h"
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

  /// Processes one input tuple as a one-row batch (ProcessBatch); output
  /// rows of any window it closes become available via DrainOutput().
  Status Process(const Tuple& input) { return Process(input, 1.0); }

  /// Weighted variant for load shedding: the tuple was admitted upstream
  /// with probability 1/weight, so every sum/count/avg (and sum$/count$)
  /// contribution is scaled by `weight` (Horvitz–Thompson). Weight 1.0 is
  /// bit-identical to the unweighted path.
  Status Process(const Tuple& input, double weight);

  /// The operator's one execution path (DESIGN.md §9): processes every
  /// selected lane of `batch` in row order, so a batch gives the same
  /// result as its lanes fed one at a time — across window boundaries
  /// mid-batch, late-tuple clamping, error positions, and every sampled
  /// output bit. Group-by keys, WHERE and aggregate arguments run
  /// column-at-a-time through compiled expression programs; clauses that
  /// touch per-supergroup state (ssample et al.), clauses whose column
  /// evaluation fails, and late lanes run in compiled row mode on the lane.
  /// On an error, the lanes before the failing one have been processed.
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

  /// Redirects phase totals (default: obs::Profiler::Default()). They
  /// accumulate only while metrics are attached (set_metrics).
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
  /// bookkeeping is in place but before its first tuple is counted. The
  /// argument is windows_flushed(). The runtime uses it to request a
  /// snapshot, which it takes at the next input batch boundary, where the
  /// state covers exactly the records its source has delivered. The hook
  /// must not call back into Process.
  void set_window_flush_hook(std::function<void(uint64_t)> hook) {
    window_flush_hook_ = std::move(hook);
  }

  /// Windows flushed so far. Unlike window_seq(), counted unconditionally
  /// (window_seq_ is observability-gated), so checkpoint cadence works in
  /// STREAMOP_NO_STATS builds too.
  uint64_t windows_flushed() const { return windows_flushed_; }

  /// Serializes every field that survives a restart: window position and
  /// per-window stats, the groups, supergroups and membership lists (SFUN
  /// blobs via their SfunStateDef serialize hooks, length-prefixed so
  /// hook-less states round-trip as opaque skips), supergroup creation
  /// order, and every RNG-bearing counter. Byte-deterministic: tables are
  /// walked in creation order (or sorted by encoded key), never table
  /// order, and groups are written by key, never by record.
  void SerializeDurableState(ByteWriter& w) const;

  /// Rebuilds the operator from a SerializeDurableState() image. The
  /// operator must have been constructed with an equivalent plan (a
  /// fingerprint of plan shape is checked). On any decode failure the
  /// operator is reset to its freshly-constructed state and false is
  /// returned — a corrupt snapshot never leaves partial state behind.
  /// On success the operator continues from the snapshot: feed it the
  /// input that follows the snapshot point.
  bool RestoreDurableState(ByteReader& r);

  /// Resets every durable field to the freshly-constructed state: used
  /// when a restore fails partway, and by the runtime to discard a
  /// restored snapshot its input source cannot resume from.
  void ResetDurableState();

  /// SFUN state slots whose snapshot blob had no restore hook in this
  /// build (restarted fresh instead). Zero on a clean restore.
  uint64_t restore_states_skipped() const { return restore_states_skipped_; }

  /// Number of live groups / supergroups (introspection for tests).
  size_t num_groups() const { return group_index_.size(); }
  size_t num_supergroups() const { return new_supergroups_.size(); }

 private:
  struct SupergroupEntry {
    // SFUN state blobs, indexed by plan_->sfun_states slot.
    std::vector<std::unique_ptr<std::max_align_t[]>> blobs;
    std::vector<void*> states;
    std::vector<SuperAggState> superaggs;
    // Membership: the records of the groups created under this supergroup
    // this window, in creation order (the emission order). Cleaning
    // compacts it. A record it names may be dead — removed by HAVING, or
    // by a cleaning phase that failed part-way — and is then skipped.
    std::vector<uint32_t> groups;
    // A group was created under this supergroup this window, so it has a
    // membership entry in snapshots (even once cleaning emptied `groups`).
    bool has_members = false;
  };

  // Supergroup tables keyed by the hash-once GroupKey. Probes compare the
  // cached key hash before values; clear() keeps capacity so the
  // per-window table swap never rehashes the next window's burst.
  using SupergroupTable =
      FlatHashTable<GroupKey, SupergroupEntry, GroupKeyHash>;

  // ---- Group records (DESIGN.md §6) -----------------------------------
  // Every group of the open window is one record of record_stride_ bytes:
  // its group-by values (`Value`s, strings owned out of line), then its
  // accumulators, constructed in place, then a RecordState byte. Records
  // live in blocks of 2^block_shift_ records, allocated on first use and
  // kept for the operator's lifetime, so a record never moves. The window
  // close destroys the records in place and resets the arena; it frees
  // only what the records own out of line (strings, GK sketches).
  enum class RecordState : uint8_t {
    kLive,  // in group_index_
    kDead,  // removed; key still readable, not yet recycled
    kFree,  // destroyed, on free_records_
  };
  // The index maps a group's key hash (the lane hash of its key columns)
  // to its record: 16-byte slots. It never hashes a record (NoHash has no
  // call operator); every probe and insert passes the hash it has.
  struct NoHash {
    size_t operator()(uint32_t) const = delete;
  };
  struct NoValue {};
  using GroupIndex = FlatHashTable<uint32_t, NoValue, NoHash>;

  std::byte* RecordAt(uint32_t r) const {
    return blocks_[r >> block_shift_].get() +
           static_cast<size_t>(r & block_mask_) * record_stride_;
  }
  Value* RecordKey(uint32_t r) const {
    return reinterpret_cast<Value*>(RecordAt(r));
  }
  std::span<const Value> RecordKeyValues(uint32_t r) const {
    return {RecordKey(r), plan_->group_by_exprs.size()};
  }
  AggregateAccumulator* RecordAggs(uint32_t r) const {
    return reinterpret_cast<AggregateAccumulator*>(RecordAt(r) +
                                                   record_aggs_offset_);
  }
  RecordState& StateOf(uint32_t r) const {
    return *reinterpret_cast<RecordState*>(RecordAt(r) +
                                           record_state_offset_);
  }
  // The key hash of record r, recomputed from its values (bit-equal to
  // the lane hash it was indexed under).
  uint64_t RecordHash(uint32_t r) const;

  // A record for a new group, from the free list or the arena's end (a
  // new block when the last one is full). Its contents are unconstructed.
  uint32_t AllocRecord();

  // Constructs record r as a live group with fresh accumulators; its key
  // value j is key_value(j).
  template <typename KeyValue>
  void ConstructRecord(uint32_t r, KeyValue&& key_value);

  // Destroys record r's key values and accumulators.
  void DestroyRecord(uint32_t r);

  // Destroys every record, clears the index (keeping its capacity) and
  // resets the arena; no block is freed.
  void ResetGroups();

  // Creates (or finds) the supergroup for `sk`, initializing SFUN states
  // from the previous window's equivalent supergroup when present.
  SupergroupEntry& GetOrCreateSupergroup(const GroupKey& sk);

  // Materializes the current superaggregate values of a supergroup into
  // `out` (cleared first); capacity is reused across calls.
  void SuperAggFinalsInto(const SupergroupEntry& sg,
                          std::vector<Value>* out) const;

  // Materializes the final values of record r's aggregates into `out`.
  void AggFinalsInto(uint32_t r, std::vector<Value>* out) const;

  // Runs one cleaning phase over the groups of supergroup `sg`.
  Status RunCleaningPhase(SupergroupEntry& sg);

  // Removes live group r: superaggregate corrections, the record marked
  // dead (its key stays readable) and its index slot erased.
  void RemoveGroup(uint32_t r, SupergroupEntry& sg);

  // Window boundary: HAVING + SELECT per group, stats, table swap.
  Status FlushWindow();

  // The batched hot path behind the public ProcessBatch overloads; the
  // wrapper reports the window span id/seq back through span_ctx after the
  // body returns (covering every exit, error included).
  Status ProcessBatchInner(const TupleBatch& batch, double weight,
                           obs::SpanContext* span_ctx);

  // Fills the computed key columns lane by lane in row mode, for a batch
  // whose column evaluation failed. Returns the first lane whose key
  // fails, with its error in *error, or the row count if none does.
  size_t EvalKeysByLane(const TupleBatch& batch, Status* error);

  // A late lane (its window already closed) joins the open window: its
  // ordered key values are rewritten in place to the window's, its key
  // hashes recomputed, and it is counted and offered as an exemplar.
  void ClampLateLane(size_t lane, double weight);

  // Compiles every clause of the plan into bytecode (constructor).
  void CompilePrograms();

  // Builds the WindowQualityReport for the window just closed (stats
  // already pushed, tables not yet swapped — supergroup states and group
  // membership are still live) and pushes it into quality_ring_.
  void RecordWindowQuality();

  // The largest threshold z any SFUN state of `sg` reports through its
  // quality hook (0 when none has one), for the clean and flush spans.
  // Reuses span_quality_, so it allocates only on its first call.
  double SupergroupZ(const SupergroupEntry& sg);

  void DestroySupergroupStates(SupergroupTable& table);

  // Checkpoint helpers: one supergroup entry (superaggs + SFUN blobs) and
  // allocation of a fresh entry's state blobs for restore.
  void SerializeSupergroupEntry(const SupergroupEntry& sg,
                                ByteWriter& w) const;
  void RestoreSupergroupEntry(SupergroupEntry* sg, ByteReader& r);

  std::shared_ptr<const SamplingQueryPlan> plan_;

  // Group records: layout fixed from the plan at construction; blocks,
  // index slots and the free list are allocated on first use.
  size_t record_stride_ = 0;
  size_t record_aggs_offset_ = 0;
  size_t record_state_offset_ = 0;
  uint32_t block_shift_ = 0;
  uint32_t block_mask_ = 0;
  std::vector<std::unique_ptr<std::byte[]>> blocks_;
  uint32_t records_used_ = 0;          // arena high-water mark this window
  std::vector<uint32_t> free_records_;  // recycled by cleaning phases
  GroupIndex group_index_;

  SupergroupTable new_supergroups_;
  SupergroupTable old_supergroups_;

  // Supergroup keys in creation order. Output emission and window-final
  // hooks walk this list so results never depend on hash-table iteration
  // order (the flat tables' order shifts with capacity and churn).
  std::vector<GroupKey> supergroup_order_;

  // Scratch state for the allocation-free steady state: the supergroup key
  // of a new supergroup and the materialized aggregate and superaggregate
  // finals are rebuilt in place, reusing capacity. A group's key is
  // written once, into its record.
  GroupKey scratch_sk_;
  std::vector<Value> scratch_superagg_finals_;
  std::vector<Value> scratch_agg_finals_;

  // ---- Compiled programs (DESIGN.md §9) -------------------------------
  // Every clause is compiled once, at construction (never on the hot
  // path; tests/hotpath_alloc_test.cc pins this down), and its program is
  // the only way it is evaluated. A clause the plan lacks keeps an empty
  // program. An expression that does not compile (only a plan assembled
  // without the analyzer has one) sets compile_status_, which every batch
  // then returns.
  std::vector<ExprProgram> gb_progs_;  // per group-by expr
  ExprProgram where_prog_;
  ExprProgram cleaning_when_prog_;
  ExprProgram cleaning_by_prog_;
  ExprProgram having_prog_;
  std::vector<ExprProgram> select_progs_;
  std::vector<ExprProgram> agg_arg_progs_;       // per agg (empty: no arg)
  std::vector<ExprProgram> superagg_arg_progs_;  // per s-agg (empty: no arg)
  Status compile_status_;
  std::vector<Value> row_stack_;  // row-mode value stack, deepest program
  TupleBatch row_batch_;  // Process()'s one-row batch
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

  bool window_open_ = false;
  std::vector<Value> current_window_id_;
  uint64_t late_tuples_total_ = 0;

  WindowStats live_stats_;
  std::vector<WindowStats> window_stats_;
  std::vector<Tuple> output_;
  uint64_t supergroup_seq_ = 0;  // distinct RNG stream per supergroup

  // ---- Durability (DESIGN.md §10) -------------------------------------
  // windows_flushed_ counts completed FlushWindow calls unconditionally
  // (window_seq_ is stats-gated); the hook fires after each flush.
  uint64_t windows_flushed_ = 0;
  uint64_t restore_states_skipped_ = 0;
  std::function<void(uint64_t)> window_flush_hook_;

  // Flushes the pending_* deltas below into the registry counters.
  void FlushPendingMetrics();

  // Observability (see DESIGN.md §7). The admission histogram records one
  // mean per-lane latency per batch, and per-lane counts accumulate in the
  // plain pending_* fields, batched into the registry's atomics once per
  // batch and at window boundaries — an atomic RMW per tuple would alone
  // blow the <=2% overhead budget.
  obs::OperatorMetrics metrics_;
  // Per-window sample-quality reporting (obs/quality.h). live_max_weight_
  // tracks the largest Horvitz–Thompson weight of the open window — one
  // double compare per tuple; the report itself is window-boundary work
  // gated on quality_ring_->enabled().
  obs::QualityRing* quality_ring_ = &obs::QualityRing::Default();
  // Window-lifecycle spans (obs/span.h): the root span's id is allocated at
  // window open — OpenWindowSpan() — so mid-window phase spans can parent
  // under it; the root itself is emitted last, at flush. Each phase is
  // timed by one NowNanos() pair whose duration feeds its span, its
  // histogram and the profiler's phase totals; those and the exemplar
  // offers ride per-batch / window-boundary points, never per-tuple ones.
  obs::SpanRing* span_ring_ = &obs::SpanRing::Default();
  obs::Profiler* profiler_ = &obs::Profiler::Default();
  obs::ExemplarStore* exemplars_ = &obs::ExemplarStore::Default();
  obs::EstimatorQuality span_quality_;  // SupergroupZ's reused output
  void OpenWindowSpan();
  uint64_t window_seq_ = 0;         // windows ever opened (1-based)
  uint64_t window_span_id_ = 0;     // root span id of the open window
  uint64_t window_open_ts_ns_ = 0;  // wall clock at window open (spans on)
  std::string quality_node_ = "operator";
  uint64_t quality_seq_ = 0;
  double live_max_weight_ = 1.0;
  uint64_t pending_tuples_ = 0;
  uint64_t pending_admitted_ = 0;
  uint64_t pending_superagg_updates_ = 0;
  uint64_t pending_sfun_calls_ = 0;
};

}  // namespace streamop

#endif  // STREAMOP_CORE_SAMPLING_OPERATOR_H_
