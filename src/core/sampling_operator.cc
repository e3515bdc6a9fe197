#include "core/sampling_operator.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <new>

#include "common/hash.h"

namespace streamop {

namespace {

// Largest record block: a power of two of records at most this size, so
// an operator with a handful of groups commits a few KB.
constexpr size_t kRecordBlockBytes = 16 << 10;

}  // namespace

SamplingOperator::SamplingOperator(
    std::shared_ptr<const SamplingQueryPlan> plan)
    : plan_(std::move(plan)) {
  scratch_sk_.Reserve(plan_->supergroup_slots.size());
  scratch_superagg_finals_.reserve(plan_->superaggs.size());
  scratch_agg_finals_.reserve(plan_->aggregates.size());

  // Group record layout: key values, accumulators, state byte, padded to
  // the key's alignment. Blocks are allocated on first use.
  static_assert(alignof(AggregateAccumulator) <= alignof(Value));
  static_assert(sizeof(std::pair<uint32_t, NoValue>) == 8,
                "16-byte index slots: hash plus record index");
  record_aggs_offset_ = plan_->group_by_exprs.size() * sizeof(Value);
  record_state_offset_ = record_aggs_offset_ + plan_->aggregates.size() *
                                                   sizeof(AggregateAccumulator);
  record_stride_ = (record_state_offset_ + sizeof(RecordState) +
                    alignof(Value) - 1) /
                   alignof(Value) * alignof(Value);
  while (block_shift_ < 20 &&
         (record_stride_ << (block_shift_ + 1)) <= kRecordBlockBytes) {
    ++block_shift_;
  }
  block_mask_ = (1u << block_shift_) - 1;
  CompilePrograms();
}

void SamplingOperator::CompilePrograms() {
  ClauseCompiler cc;
  const size_t ngb = plan_->group_by_exprs.size();
  gb_progs_.resize(ngb);
  for (size_t j = 0; j < ngb; ++j) {
    cc.Compile(plan_->group_by_exprs[j].get(), &gb_progs_[j]);
  }
  cc.Compile(plan_->where.get(), &where_prog_);
  cc.Compile(plan_->cleaning_when.get(), &cleaning_when_prog_);
  cc.Compile(plan_->cleaning_by.get(), &cleaning_by_prog_);
  cc.Compile(plan_->having.get(), &having_prog_);
  select_progs_.resize(plan_->select_exprs.size());
  for (size_t c = 0; c < select_progs_.size(); ++c) {
    cc.Compile(plan_->select_exprs[c].get(), &select_progs_[c]);
  }
  agg_arg_progs_.resize(plan_->aggregates.size());
  for (size_t a = 0; a < agg_arg_progs_.size(); ++a) {
    const AggregateSpec& spec = plan_->aggregates[a];
    cc.Compile(spec.star ? nullptr : spec.arg.get(), &agg_arg_progs_[a]);
  }
  superagg_arg_progs_.resize(plan_->superaggs.size());
  for (size_t s = 0; s < superagg_arg_progs_.size(); ++s) {
    cc.Compile(plan_->superaggs[s].arg.get(), &superagg_arg_progs_[s]);
  }
  compile_status_ = cc.status;
  row_stack_.resize(cc.stack_size);
  for (size_t i = 0; i < plan_->group_by_ordered.size(); ++i) {
    if (plan_->group_by_ordered[i]) ordered_gb_slots_.push_back(i);
  }

  // Identity programs (a bare column reference, the common case for keys
  // like srcIP and arguments like len) need no evaluation at all: their
  // result column IS the batch's input column, so ProcessBatch aliases it.
  gb_identity_.assign(ngb, -1);
  for (size_t j = 0; j < ngb; ++j) {
    gb_identity_[j] = gb_progs_[j].identity_input_slot();
  }
  agg_arg_identity_.assign(plan_->aggregates.size(), -1);
  for (size_t a = 0; a < agg_arg_progs_.size(); ++a) {
    agg_arg_identity_[a] = agg_arg_progs_[a].identity_input_slot();
  }
  superagg_arg_identity_.assign(plan_->superaggs.size(), -1);
  for (size_t s = 0; s < superagg_arg_progs_.size(); ++s) {
    superagg_arg_identity_[s] = superagg_arg_progs_[s].identity_input_slot();
  }
  for (size_t s = 0; s < plan_->superaggs.size(); ++s) {
    const SuperAggKind kind = plan_->superaggs[s].kind;
    if (kind == SuperAggKind::kSum || kind == SuperAggKind::kCount ||
        kind == SuperAggKind::kFirst) {
      tuple_level_superaggs_.push_back(s);
    }
  }

  key_cols_.resize(ngb);
  key_col_ptrs_.resize(ngb);
  for (size_t j = 0; j < ngb; ++j) key_col_ptrs_[j] = &key_cols_[j];
  agg_arg_cols_.resize(plan_->aggregates.size());
  agg_arg_ptrs_.assign(plan_->aggregates.size(), nullptr);
  agg_arg_col_ok_.assign(plan_->aggregates.size(), 0);
  superagg_arg_cols_.resize(plan_->superaggs.size());
  superagg_arg_ptrs_.assign(plan_->superaggs.size(), nullptr);
  superagg_arg_col_ok_.assign(plan_->superaggs.size(), 0);
}

SamplingOperator::~SamplingOperator() {
  ResetGroups();
  DestroySupergroupStates(new_supergroups_);
  DestroySupergroupStates(old_supergroups_);
}

uint64_t SamplingOperator::RecordHash(uint32_t r) const {
  uint64_t h = GroupKey::kSeed;
  for (const Value& v : RecordKeyValues(r)) h = HashCombine(h, v.Hash());
  return h;
}

uint32_t SamplingOperator::AllocRecord() {
  if (!free_records_.empty()) {
    const uint32_t r = free_records_.back();
    free_records_.pop_back();
    return r;
  }
  const uint32_t r = records_used_++;
  if ((r >> block_shift_) == blocks_.size()) {
    // Not zero-filled: a block's pages are committed as records reach them.
    blocks_.push_back(std::make_unique_for_overwrite<std::byte[]>(
        record_stride_ << block_shift_));
  }
  return r;
}

template <typename KeyValue>
void SamplingOperator::ConstructRecord(uint32_t r, KeyValue&& key_value) {
  Value* key = RecordKey(r);
  for (size_t j = 0; j < plan_->group_by_exprs.size(); ++j) {
    new (&key[j]) Value(key_value(j));
  }
  AggregateAccumulator* aggs = RecordAggs(r);
  for (size_t a = 0; a < plan_->aggregates.size(); ++a) {
    const AggregateSpec& spec = plan_->aggregates[a];
    new (&aggs[a]) AggregateAccumulator(spec.kind, spec.param);
  }
  StateOf(r) = RecordState::kLive;
}

void SamplingOperator::DestroyRecord(uint32_t r) {
  Value* key = RecordKey(r);
  for (size_t j = 0; j < plan_->group_by_exprs.size(); ++j) key[j].~Value();
  AggregateAccumulator* aggs = RecordAggs(r);
  for (size_t a = 0; a < plan_->aggregates.size(); ++a) {
    aggs[a].~AggregateAccumulator();
  }
  StateOf(r) = RecordState::kFree;
}

void SamplingOperator::ResetGroups() {
  for (uint32_t r = 0; r < records_used_; ++r) {
    if (StateOf(r) != RecordState::kFree) DestroyRecord(r);
  }
  records_used_ = 0;
  free_records_.clear();
  group_index_.clear();
}

void SamplingOperator::DestroySupergroupStates(SupergroupTable& table) {
  for (auto& [key, sg] : table) {
    for (size_t i = 0; i < sg.states.size(); ++i) {
      const SfunStateDef* def = plan_->sfun_states[i];
      if (def->destroy != nullptr && sg.states[i] != nullptr) {
        def->destroy(sg.states[i]);
      }
    }
    sg.states.clear();
    sg.blobs.clear();
  }
  table.clear();
}

SamplingOperator::SupergroupEntry& SamplingOperator::GetOrCreateSupergroup(
    const GroupKey& sk) {
  auto it = new_supergroups_.find(sk);
  if (it != new_supergroups_.end()) return it->second;

  SupergroupEntry entry;
  // Locate the equivalent supergroup of the previous window, if any, so
  // that SFUN states can carry over (dynamic subset-sum threshold) and its
  // membership list, cleared at the table swap, lends its capacity.
  SupergroupEntry* old_entry = nullptr;
  auto old_it = old_supergroups_.find(sk);
  if (old_it != old_supergroups_.end()) {
    old_entry = &old_it->second;
    entry.groups.swap(old_entry->groups);
  }

  const size_t n_states = plan_->sfun_states.size();
  entry.blobs.reserve(n_states);
  entry.states.reserve(n_states);
  uint64_t sg_seed =
      HashCombine(plan_->seed, Mix64(++supergroup_seq_) ^ sk.Hash());
  for (size_t i = 0; i < n_states; ++i) {
    const SfunStateDef* def = plan_->sfun_states[i];
    size_t words =
        (def->size + sizeof(std::max_align_t) - 1) / sizeof(std::max_align_t);
    entry.blobs.push_back(std::make_unique<std::max_align_t[]>(words));
    void* mem = entry.blobs.back().get();
    const void* old_state =
        old_entry != nullptr ? old_entry->states[i] : nullptr;
    def->init(mem, old_state, HashCombine(sg_seed, i));
    entry.states.push_back(mem);
  }
  entry.superaggs.reserve(plan_->superaggs.size());
  for (const SuperAggSpec& spec : plan_->superaggs) {
    entry.superaggs.emplace_back(&spec);
  }
  supergroup_order_.push_back(sk);
  auto [ins_it, inserted] = new_supergroups_.emplace(sk, std::move(entry));
  (void)inserted;
  return ins_it->second;
}

void SamplingOperator::SuperAggFinalsInto(const SupergroupEntry& sg,
                                          std::vector<Value>* out) const {
  out->clear();
  out->reserve(sg.superaggs.size());
  for (const SuperAggState& s : sg.superaggs) out->push_back(s.Final());
}

void SamplingOperator::AggFinalsInto(uint32_t r,
                                     std::vector<Value>* out) const {
  out->clear();
  const AggregateAccumulator* aggs = RecordAggs(r);
  for (size_t a = 0; a < plan_->aggregates.size(); ++a) {
    out->push_back(aggs[a].Final());
  }
}

Status SamplingOperator::Process(const Tuple& input, double weight) {
  // One execution path: a tuple is a one-row batch. The batch keeps its
  // capacity, so a steady stream of numeric tuples allocates nothing here.
  row_batch_.SetSingleRow(input);
  return ProcessBatch(row_batch_, weight);
}

void SamplingOperator::OpenWindowSpan() {
  if constexpr (obs::kStatsEnabled) {
    ++window_seq_;
    if (span_ring_->enabled()) {
      // Reserve the root span's id now so every phase span of this window
      // can name its parent; the root is written at flush, covering
      // open -> flush.
      window_span_id_ = span_ring_->NextId();
      window_open_ts_ns_ = obs::NowNanos();
    } else {
      window_span_id_ = 0;
      window_open_ts_ns_ = 0;
    }
  }
}

size_t SamplingOperator::EvalKeysByLane(const TupleBatch& batch,
                                        Status* error) {
  const size_t n = batch.num_rows();
  const size_t ngb = gb_progs_.size();
  for (size_t j = 0; j < ngb; ++j) {
    if (key_col_ptrs_[j] != &key_cols_[j]) continue;  // aliased input
    // Lanes at and after a failing lane stay null, never garbage.
    key_cols_[j].raw.assign(n, 0);
    key_cols_[j].type.assign(n, static_cast<uint8_t>(FieldType::kNull));
  }
  ExprProgram::RowContext rc;
  rc.batch = &batch;
  rc.scratch_stack = row_stack_.data();
  const uint8_t* sel = batch.selection();
  for (size_t i = 0; i < n; ++i) {
    if (!sel[i]) continue;
    rc.row = i;
    for (size_t j = 0; j < ngb; ++j) {
      VecCol& col = key_cols_[j];
      if (key_col_ptrs_[j] != &col) continue;
      Result<Value> v = gb_progs_[j].EvalRow(rc);
      if (!v.ok()) {
        *error = v.status();
        return i;
      }
      col.raw[i] = EncodeRawValue(*v, &batch_scratch_.owned);
      col.type[i] = static_cast<uint8_t>(v->type());
    }
  }
  return n;
}

void SamplingOperator::ClampLateLane(size_t i, double weight) {
  // Instead of reopening its closed window (which would corrupt the
  // boundary sequence), the lane takes the open window's ordered values.
  // An aliased input column is copied first: the batch is read-only.
  size_t oi = 0;
  for (size_t slot : ordered_gb_slots_) {
    VecCol& col = key_cols_[slot];
    if (key_col_ptrs_[slot] != &col) {
      col = *key_col_ptrs_[slot];
      key_col_ptrs_[slot] = &col;
    }
    const Value& w = current_window_id_[oi++];
    col.raw[i] = EncodeRawValue(w, &batch_scratch_.owned);
    col.type[i] = static_cast<uint8_t>(w.type());
  }
  uint64_t gk_hash = GroupKey::kSeed;
  for (const VecCol* c : key_col_ptrs_) {
    gk_hash = HashCombine(gk_hash, RawValueHash(c->type[i], c->raw[i]));
  }
  lane_gk_hash_[i] = gk_hash;
  if (!plan_->supergroup_slots.empty()) {
    uint64_t sk_hash = GroupKey::kSeed;
    for (int slot : plan_->supergroup_slots) {
      const VecCol& c = *key_col_ptrs_[static_cast<size_t>(slot)];
      sk_hash = HashCombine(sk_hash, RawValueHash(c.type[i], c.raw[i]));
    }
    lane_sk_hash_[i] = sk_hash;
  }

  ++live_stats_.late_tuples;
  ++late_tuples_total_;
  if (metrics_.enabled() && metrics_.late_tuples != nullptr) {
    metrics_.late_tuples->Add();  // rare: direct atomic is fine
  }
  if constexpr (obs::kStatsEnabled) {
    // Exemplar: which tuple was late, not just how many were. Dims carry
    // the first clamped key values (srcIP/destIP-style context).
    if (exemplars_->enabled()) {
      obs::Exemplar ex;
      ex.ts_ns = obs::NowNanos();
      ex.value = weight;
      ex.weight = weight;
      ex.window_seq = window_seq_;
      for (size_t j = 0; j < key_col_ptrs_.size() && ex.ndims < ex.dims.size();
           ++j) {
        const VecCol& c = *key_col_ptrs_[j];
        ex.dims[ex.ndims++] = MaterializeRawValue(c.type[i], c.raw[i]).AsUInt();
      }
      exemplars_->Offer(obs::ExemplarStore::kLateTuple, ex);
    }
  }
}

Status SamplingOperator::ProcessBatch(const TupleBatch& batch, double weight,
                                      obs::SpanContext* span_ctx) {
  const Status st = ProcessBatchInner(batch, weight, span_ctx);
  if constexpr (obs::kStatsEnabled) {
    // Causal back-report: whether the batch succeeded or failed, tell the
    // caller which window lifecycle it last fed so the runtime's drain
    // span can parent under the window root.
    if (span_ctx != nullptr) {
      span_ctx->window_span_id = window_span_id_;
      span_ctx->window_seq = window_seq_;
    }
  }
  return st;
}

Status SamplingOperator::ProcessBatchInner(const TupleBatch& batch,
                                           double weight,
                                           obs::SpanContext* span_ctx) {
  STREAMOP_RETURN_NOT_OK(compile_status_);
  const size_t num_rows = batch.num_rows();
  if (num_rows == 0) return Status::OK();

  // Observability context for this batch. Each phase is timed by one
  // clock read at its start and one at its end, shared by its span, its
  // histogram and the profiler's phase totals; nothing is read when
  // neither metrics nor spans are on. The shed probability comes from the
  // caller's SpanContext when threaded (the runtime knows the post-tick
  // admission probability); a bare weighted call reconstructs it as 1/w.
  const bool obs_on = metrics_.enabled();
  const bool span_on = span_ring_->enabled();
  const bool timed = obs_on || span_on;
  const double batch_shed_p =
      span_ctx != nullptr ? span_ctx->shed_p
                          : (weight > 1.0 ? 1.0 / weight : 1.0);
  const uint64_t sel_t0 = timed ? obs::NowNanos() : 0;

  // ---- Columnar precompute (side-effect-free) -------------------------
  // Everything here is a pure function of the batch. A clause whose column
  // evaluation fails is evaluated lane by lane in row mode in the loop
  // below instead, which reproduces the tuple-at-a-time error position —
  // and succeeds when the error came from a lane the clause never sees
  // (an aggregate argument on a lane its WHERE rejects).
  batch_scratch_.Reset();
  const size_t ngb = plan_->group_by_exprs.size();
  ExprProgram::BatchContext bctx;
  bctx.batch = &batch;  // mask defaults to the batch's selection vector
  bool keys_ok = true;
  for (size_t j = 0; j < ngb; ++j) {
    const int id_slot = gb_identity_[j];
    if (id_slot >= 0 && static_cast<size_t>(id_slot) < batch.num_cols()) {
      // Identity: the key column IS the input column — alias, zero copies.
      key_col_ptrs_[j] = &batch.col(static_cast<size_t>(id_slot));
      continue;
    }
    key_col_ptrs_[j] = &key_cols_[j];
    keys_ok = keys_ok && gb_progs_[j].batchable() &&
              gb_progs_[j].EvalBatch(bctx, &batch_scratch_, &key_cols_[j]).ok();
  }
  // Keys that fail column-wise are computed lane by lane: the lanes before
  // the first failing one are processed, then its error is returned.
  Status key_error;
  const size_t n = keys_ok ? num_rows : EvalKeysByLane(batch, &key_error);
  bctx.key_cols = key_col_ptrs_.data();
  bctx.num_key_cols = ngb;

  // Per-lane key hashes, replicated column-wise: a fold of RawValueHash
  // over the key columns starting from GroupKey::kSeed is bit-equal to the
  // hash of the materialized GroupKey, so table probes below need no key.
  lane_gk_hash_.assign(num_rows, GroupKey::kSeed);
  for (size_t j = 0; j < ngb; ++j) {
    const VecCol& c = *key_col_ptrs_[j];
    for (size_t i = 0; i < n; ++i) {
      lane_gk_hash_[i] = HashCombine(lane_gk_hash_[i],
                                     RawValueHash(c.type[i], c.raw[i]));
    }
  }
  const size_t nsk = plan_->supergroup_slots.size();
  if (nsk > 0) {
    lane_sk_hash_.assign(num_rows, GroupKey::kSeed);
    for (size_t j = 0; j < nsk; ++j) {
      const VecCol& c =
          *key_col_ptrs_[static_cast<size_t>(plan_->supergroup_slots[j])];
      for (size_t i = 0; i < n; ++i) {
        lane_sk_hash_[i] = HashCombine(lane_sk_hash_[i],
                                       RawValueHash(c.type[i], c.raw[i]));
      }
    }
  }

  // WHERE column: only for predicates with no per-supergroup inputs
  // (ssample admission reads SFUN state and runs lane by lane below).
  const uint8_t* sel = batch.selection();
  const bool where_col_ok =
      plan_->where != nullptr && where_prog_.batchable() &&
      where_prog_.EvalBatch(bctx, &batch_scratch_, &where_col_).ok();

  // Aggregate / tuple-level superaggregate argument columns, masked down
  // to admitted lanes when the WHERE column is available — both for work
  // and because a rejected lane's arguments are never evaluated (a
  // division by zero there must not fail the batch).
  if (where_col_ok) {
    admit_mask_.resize(num_rows);
    for (size_t i = 0; i < num_rows; ++i) {
      admit_mask_[i] = sel[i] != 0 &&
                       RawValueAsBool(where_col_.type[i], where_col_.raw[i]);
    }
    bctx.mask = admit_mask_.data();
  }
  auto arg_column = [&](const ExprProgram& prog, int id_slot, VecCol* col,
                        const VecCol** ptr) -> uint8_t {
    if (id_slot >= 0 && static_cast<size_t>(id_slot) < batch.num_cols()) {
      *ptr = &batch.col(static_cast<size_t>(id_slot));
      return 1;
    }
    *ptr = col;
    return prog.batchable() && prog.EvalBatch(bctx, &batch_scratch_, col).ok();
  };
  for (size_t a = 0; a < plan_->aggregates.size(); ++a) {
    const AggregateSpec& spec = plan_->aggregates[a];
    agg_arg_col_ok_[a] =
        !spec.star && spec.arg != nullptr &&
        arg_column(agg_arg_progs_[a], agg_arg_identity_[a], &agg_arg_cols_[a],
                   &agg_arg_ptrs_[a]);
  }
  for (size_t s : tuple_level_superaggs_) {
    superagg_arg_col_ok_[s] =
        plan_->superaggs[s].arg != nullptr &&
        arg_column(superagg_arg_progs_[s], superagg_arg_identity_[s],
                   &superagg_arg_cols_[s], &superagg_arg_ptrs_[s]);
  }

  // Precompute done: one clock read closes the batch-select phase and
  // opens admission (the select span is emitted at batch end once the
  // window it fed is known).
  const uint64_t adm_t0 = timed ? obs::NowNanos() : 0;
  const uint64_t sel_ns = adm_t0 - sel_t0;
  if (obs_on) profiler_->AddPhaseNs(obs::Profiler::kBatchSelect, sel_ns);

  // ---- Per-lane loop ---------------------------------------------------
  // Observability is batched: one clock read pair and one pending-counter
  // flush per batch instead of per tuple.
  uint64_t clean_ns = 0;  // nested cleaning, subtracted from admission
  uint64_t inline_lanes = 0;

  // Consecutive lanes overwhelmingly share a supergroup; cache the last
  // lane's resolution and revalidate with a bitwise column compare (a
  // conservative check: a miss only costs the table probe).
  SupergroupEntry* cached_sg = nullptr;
  uint64_t cached_hash = 0;
  size_t cached_lane = 0;
  // Superaggregate finals currently sitting in scratch_superagg_finals_
  // belong to this supergroup; reset to null whenever any superagg state
  // may have changed (OnTuple, group create/remove, cleaning).
  const SupergroupEntry* finals_sg = nullptr;
  // Lane already placed inside current_window_id_: later lanes revalidate
  // with a bitwise compare of the ordered key columns instead of
  // materializing Values (conservative — a mismatch runs full placement).
  ptrdiff_t win_lane = -1;

  // One row context for every row-mode evaluation below; only the lane,
  // the supergroup's SFUN states, and the finals pointer vary.
  ExprProgram::RowContext rc;
  rc.batch = &batch;
  rc.key_cols = key_col_ptrs_.data();
  rc.num_key_cols = ngb;
  rc.sfun_calls = &pending_sfun_calls_;
  rc.scratch_stack = row_stack_.data();

  // Probe-ahead distance for group-index prefetching: far enough that the
  // slot line arrives before the probe, close enough to stay cached.
  constexpr size_t kProbeAhead = 8;

  // Per-batch admission/update tallies, folded into the pending metric
  // counters once at the end — no per-lane instrumented branches.
  uint64_t batch_admitted = 0;
  uint64_t batch_superagg_updates = 0;

  for (size_t i = 0; i < n; ++i) {
    if (!sel[i]) continue;
    if (i + kProbeAhead < n) {
      group_index_.prefetch_hashed(lane_gk_hash_[i + kProbeAhead]);
    }

    // Window placement straight off the key columns: a lane past the open
    // window closes it; a lane before it is late.
    bool boundary = !window_open_;
    bool late = false;
    bool placed = false;
    if (window_open_ && win_lane >= 0) {
      placed = true;
      const size_t wl = static_cast<size_t>(win_lane);
      for (size_t slot : ordered_gb_slots_) {
        const VecCol& c = *key_col_ptrs_[slot];
        if (c.type[wl] != c.type[i] || c.raw[wl] != c.raw[i]) {
          placed = false;
          break;
        }
      }
    }
    if (window_open_ && !placed) {
      size_t oi = 0;
      for (size_t slot : ordered_gb_slots_) {
        if (oi >= current_window_id_.size()) {
          boundary = true;
          break;
        }
        const VecCol& c = *key_col_ptrs_[slot];
        Value lv = MaterializeRawValue(c.type[i], c.raw[i]);
        if (ValueLess(current_window_id_[oi], lv)) {
          boundary = true;
          break;
        }
        if (ValueLess(lv, current_window_id_[oi])) {
          late = true;
          break;
        }
        ++oi;
      }
      if (!boundary && !late) win_lane = static_cast<ptrdiff_t>(i);
    }
    // A late lane's column results were computed from its unclamped key,
    // so every clause runs in row mode on it.
    if (late) ClampLateLane(i, weight);
    if (boundary) {
      const bool flushed = window_open_;
      if (window_open_) {
        STREAMOP_RETURN_NOT_OK(FlushWindow());
      }
      cached_sg = nullptr;
      finals_sg = nullptr;
      window_open_ = true;
      current_window_id_.clear();
      for (size_t slot : ordered_gb_slots_) {
        const VecCol& c = *key_col_ptrs_[slot];
        current_window_id_.push_back(MaterializeRawValue(c.type[i], c.raw[i]));
      }
      win_lane = static_cast<ptrdiff_t>(i);
      live_stats_ = WindowStats{};
      live_stats_.window_id = current_window_id_;
      live_max_weight_ = 1.0;
      OpenWindowSpan();
      // Window-flush hook, between windows: the flushed window's stats are
      // in window_stats_ and the next window is open with zero tuples
      // counted.
      if (flushed && window_flush_hook_) window_flush_hook_(windows_flushed_);
    }
    ++inline_lanes;
    ++live_stats_.tuples_in;
    if constexpr (obs::kStatsEnabled) {
      if (weight > live_max_weight_) live_max_weight_ = weight;
    }

    // Supergroup lookup / creation (with the previous window's state
    // hand-off): last-lane cache, then a hash-first probe against the lane
    // columns, materializing a key only on creation.
    const uint64_t skh = nsk > 0 ? lane_sk_hash_[i] : GroupKey::kSeed;
    SupergroupEntry* sg = cached_sg;
    bool cache_hit = cached_sg != nullptr && cached_hash == skh;
    if (cache_hit) {
      for (size_t j = 0; j < nsk; ++j) {
        const VecCol& c =
            *key_col_ptrs_[static_cast<size_t>(plan_->supergroup_slots[j])];
        if (c.type[cached_lane] != c.type[i] ||
            c.raw[cached_lane] != c.raw[i]) {
          cache_hit = false;
          break;
        }
      }
    }
    if (!cache_hit) {
      auto sit = new_supergroups_.find_hashed(skh, [&](const GroupKey& k) {
        for (size_t j = 0; j < nsk; ++j) {
          const VecCol& c =
              *key_col_ptrs_[static_cast<size_t>(plan_->supergroup_slots[j])];
          if (!RawValueEquals(k.at(j), c.type[i], c.raw[i])) return false;
        }
        return true;
      });
      if (sit != new_supergroups_.end()) {
        sg = &sit->second;
      } else {
        scratch_sk_.Clear();
        for (size_t j = 0; j < nsk; ++j) {
          const VecCol& c =
              *key_col_ptrs_[static_cast<size_t>(plan_->supergroup_slots[j])];
          scratch_sk_.Append(MaterializeRawValue(c.type[i], c.raw[i]));
        }
        sg = &GetOrCreateSupergroup(scratch_sk_);
        finals_sg = nullptr;  // insertion may rehash and move entries
      }
      cached_sg = sg;
      cached_hash = skh;
      cached_lane = i;
    }
    rc.row = i;
    rc.sfun_states = sg->states.data();
    rc.num_sfun_states = sg->states.size();

    // WHERE, the sampling admission predicate: precomputed column, else
    // row mode with the supergroup's SFUN states (and superaggregate
    // finals only if the predicate reads them — ssample admission does
    // not).
    if (plan_->where != nullptr) {
      bool admitted;
      if (where_col_ok && !late) {
        admitted = admit_mask_[i] != 0;
      } else {
        if (where_prog_.reads_superagg()) {
          if (finals_sg != sg) {
            SuperAggFinalsInto(*sg, &scratch_superagg_finals_);
            finals_sg = sg;
          }
          rc.superaggs = &scratch_superagg_finals_;
        } else {
          rc.superaggs = nullptr;
        }
        STREAMOP_ASSIGN_OR_RETURN(Value wv, where_prog_.EvalRow(rc));
        admitted = wv.AsBool();
      }
      if (!admitted) continue;
    }
    ++live_stats_.tuples_admitted;
    ++batch_admitted;

    // Tuple-level superaggregate updates (sum$/count$/first$).
    if (!tuple_level_superaggs_.empty()) {
      for (size_t s : tuple_level_superaggs_) {
        const SuperAggSpec& spec = plan_->superaggs[s];
        Value v = Value::Null();
        if (spec.arg != nullptr) {
          if (superagg_arg_col_ok_[s] && !late) {
            const VecCol& c = *superagg_arg_ptrs_[s];
            v = MaterializeRawValue(c.type[i], c.raw[i]);
          } else {
            rc.superaggs = nullptr;
            STREAMOP_ASSIGN_OR_RETURN(v, superagg_arg_progs_[s].EvalRow(rc));
          }
        }
        sg->superaggs[s].OnTuple(v, weight);
        ++batch_superagg_updates;
      }
      finals_sg = nullptr;
    }

    // Group lookup / creation + aggregate update: the index probe runs on
    // the lane hash and compares the lane's key columns with the record's
    // key values; a new group's key is written once, into its record.
    const uint64_t gkh = lane_gk_hash_[i];
    auto git = group_index_.find_hashed(gkh, [&](uint32_t r) {
      const Value* key = RecordKey(r);
      for (size_t j = 0; j < ngb; ++j) {
        const VecCol& c = *key_col_ptrs_[j];
        if (!RawValueEquals(key[j], c.type[i], c.raw[i])) return false;
      }
      return true;
    });
    uint32_t rec;
    if (git != group_index_.end()) {
      rec = git->first;
    } else {
      rec = AllocRecord();
      ConstructRecord(rec, [&](size_t j) {
        const VecCol& c = *key_col_ptrs_[j];
        return MaterializeRawValue(c.type[i], c.raw[i]);
      });
      group_index_.insert_hashed(gkh, rec);
      sg->groups.push_back(rec);
      sg->has_members = true;
      for (SuperAggState& s : sg->superaggs) {
        s.OnGroupCreated(RecordKeyValues(rec));
      }
      finals_sg = nullptr;  // OnGroupCreated advances group-level superaggs
      ++live_stats_.groups_created;
      if (group_index_.size() > live_stats_.peak_groups) {
        live_stats_.peak_groups = group_index_.size();
      }
      if (obs_on) {
        metrics_.groups_created->Add();
        metrics_.peak_groups->SetMax(
            static_cast<double>(group_index_.size()));
      }
    }
    AggregateAccumulator* aggs = RecordAggs(rec);
    for (size_t a = 0; a < plan_->aggregates.size(); ++a) {
      const AggregateSpec& spec = plan_->aggregates[a];
      if (spec.star || spec.arg == nullptr) {
        aggs[a].Update(Value::Null(), weight);
      } else if (agg_arg_col_ok_[a] && !late) {
        const VecCol& c = *agg_arg_ptrs_[a];
        aggs[a].Update(MaterializeRawValue(c.type[i], c.raw[i]), weight);
      } else {
        rc.superaggs = nullptr;
        STREAMOP_ASSIGN_OR_RETURN(Value v, agg_arg_progs_[a].EvalRow(rc));
        aggs[a].Update(v, weight);
      }
    }

    // CLEANING WHEN, the cleaning trigger, in row mode against the
    // supergroup state. Finals are recomputed only when this supergroup's
    // superaggregates may have moved since the last time they were
    // materialized (usually once per batch, not per lane).
    if (plan_->cleaning_when != nullptr) {
      if (cleaning_when_prog_.reads_superagg()) {
        if (finals_sg != sg) {
          SuperAggFinalsInto(*sg, &scratch_superagg_finals_);
          finals_sg = sg;
        }
        rc.superaggs = &scratch_superagg_finals_;
      } else {
        rc.superaggs = nullptr;
      }
      STREAMOP_ASSIGN_OR_RETURN(Value cv, cleaning_when_prog_.EvalRow(rc));
      if (cv.AsBool()) {
        ++live_stats_.cleaning_phases;
        // Cleaning phases are rare (a handful per window), so each one is
        // timed and emitted as a child span of the window, carrying the
        // threshold the phase cleaned at.
        const uint64_t t0 = timed ? obs::NowNanos() : 0;
        STREAMOP_RETURN_NOT_OK(RunCleaningPhase(*sg));
        finals_sg = nullptr;  // cleaning removes groups / resets SFUN state
        if (timed) {
          const uint64_t dur = obs::NowNanos() - t0;
          clean_ns += dur;
          if (obs_on) {
            metrics_.cleaning_phases->Add();
            metrics_.cleaning_ns->Record(dur);
            profiler_->AddPhaseNs(obs::Profiler::kClean, dur);
          }
          if (span_on) {
            obs::SpanRecord sr;
            sr.name = "clean";
            sr.parent_id = window_span_id_;
            sr.window_seq = window_seq_;
            sr.ts_ns = t0;
            sr.dur_ns = dur;
            sr.max_weight = live_max_weight_;
            sr.z = SupergroupZ(*sg);
            span_ring_->Emit(sr);
          }
        }
      }
    }
  }

  const uint64_t adm_ns = timed ? obs::NowNanos() - adm_t0 : 0;
  if (obs_on) {
    pending_tuples_ += inline_lanes;
    pending_admitted_ += batch_admitted;
    pending_superagg_updates_ += batch_superagg_updates;
    // Admission covers the lane loop minus the cleaning phases nested in
    // it (those are already accounted to kClean).
    profiler_->AddPhaseNs(obs::Profiler::kAdmission,
                          adm_ns > clean_ns ? adm_ns - clean_ns : 0);
    if (inline_lanes > 0) {
      const uint64_t per_lane_ns = adm_ns / inline_lanes;
      metrics_.admission_ns->Record(per_lane_ns);
      if constexpr (obs::kStatsEnabled) {
        // Latency exemplar: the batch's mean per-lane admission latency,
        // with lane/admitted counts as context — one offer per batch.
        if (exemplars_->enabled()) {
          obs::Exemplar ex;
          ex.ts_ns = adm_t0;
          ex.weight = weight;
          ex.window_seq = window_seq_;
          ex.dims[0] = inline_lanes;
          ex.dims[1] = batch_admitted;
          ex.ndims = 2;
          exemplars_->OfferLatency(per_lane_ns, ex);
        }
      }
    }
    FlushPendingMetrics();
  }
  if (span_on) {
    // Both batch-level spans parent under the last window this batch fed
    // (a batch straddling a boundary attributes to the window it ended in).
    obs::SpanRecord sel;
    sel.name = "batch_select";
    sel.parent_id = window_span_id_;
    sel.window_seq = window_seq_;
    sel.ts_ns = sel_t0;
    sel.dur_ns = sel_ns;
    sel.rows = num_rows;
    sel.shed_p = batch_shed_p;
    span_ring_->Emit(sel);
    obs::SpanRecord adm;
    adm.name = "admission";
    adm.parent_id = window_span_id_;
    adm.window_seq = window_seq_;
    adm.ts_ns = adm_t0;
    adm.dur_ns = adm_ns;
    adm.rows = inline_lanes;
    adm.admitted = batch_admitted;
    adm.shed_p = batch_shed_p;
    adm.max_weight = live_max_weight_;
    span_ring_->Emit(adm);
  }
  return key_error;
}

void SamplingOperator::RemoveGroup(uint32_t r, SupergroupEntry& sg) {
  if (StateOf(r) != RecordState::kLive) return;
  const AggregateAccumulator* aggs = RecordAggs(r);
  for (size_t i = 0; i < sg.superaggs.size(); ++i) {
    const SuperAggSpec& spec = plan_->superaggs[i];
    Value shadow = Value::Null();
    if (spec.shadow_agg_slot >= 0 &&
        static_cast<size_t>(spec.shadow_agg_slot) < plan_->aggregates.size()) {
      shadow = aggs[static_cast<size_t>(spec.shadow_agg_slot)].Final();
    }
    sg.superaggs[i].OnGroupRemoved(RecordKeyValues(r), shadow);
  }
  StateOf(r) = RecordState::kDead;
  group_index_.erase(group_index_.find_hashed(
      RecordHash(r), [r](uint32_t indexed) { return indexed == r; }));
  ++live_stats_.groups_removed;
  if (metrics_.enabled()) metrics_.groups_removed->Add();
}

Status SamplingOperator::RunCleaningPhase(SupergroupEntry& sg) {
  // Superaggregates are materialized once at the start of the pass; the
  // CLEANING BY predicate sees a consistent snapshot while removals update
  // the live superaggregate state underneath.
  SuperAggFinalsInto(sg, &scratch_superagg_finals_);

  ExprProgram::RowContext rc;
  rc.aggregates = &scratch_agg_finals_;
  rc.superaggs = &scratch_superagg_finals_;
  rc.sfun_states = sg.states.data();
  rc.num_sfun_states = sg.states.size();
  rc.sfun_calls = &pending_sfun_calls_;
  rc.scratch_stack = row_stack_.data();
  rc.num_group_values = plan_->group_by_exprs.size();

  // Decide every group first (an absent CLEANING BY keeps them all). An
  // error part-way returns with the list as it was: the groups removed so
  // far stay in it as dead records, skipped everywhere.
  if (plan_->cleaning_by != nullptr) {
    for (uint32_t r : sg.groups) {
      if (StateOf(r) != RecordState::kLive) continue;
      AggFinalsInto(r, &scratch_agg_finals_);
      rc.group_values = RecordKey(r);
      STREAMOP_ASSIGN_OR_RETURN(Value v, cleaning_by_prog_.EvalRow(rc));
      if (!v.AsBool()) RemoveGroup(r, sg);
    }
  }
  // Then compact the list in place, in order, and only now recycle the
  // records it drops: no list names a record on the free list.
  size_t kept = 0;
  for (uint32_t r : sg.groups) {
    if (StateOf(r) == RecordState::kLive) {
      sg.groups[kept++] = r;
    } else {
      DestroyRecord(r);
      free_records_.push_back(r);
    }
  }
  sg.groups.resize(kept);
  return Status::OK();
}

void SamplingOperator::FlushPendingMetrics() {
  if (!metrics_.enabled()) return;
  if (pending_tuples_ > 0) {
    metrics_.tuples->Add(pending_tuples_);
    pending_tuples_ = 0;
  }
  if (pending_admitted_ > 0) {
    metrics_.admitted->Add(pending_admitted_);
    pending_admitted_ = 0;
  }
  if (pending_superagg_updates_ > 0) {
    metrics_.superagg_updates->Add(pending_superagg_updates_);
    pending_superagg_updates_ = 0;
  }
  if (pending_sfun_calls_ > 0) {
    metrics_.sfun_calls->Add(pending_sfun_calls_);
    pending_sfun_calls_ = 0;
  }
}

Status SamplingOperator::FlushWindow() {
  // Window flushes are per-window, not per-tuple: time every one and emit
  // it as a span. Pending per-tuple counts are drained first so the
  // registry is exact at every window boundary.
  FlushPendingMetrics();
  const bool obs_on = metrics_.enabled();
  const bool span_on = span_ring_->enabled();
  const bool timed = obs_on || span_on;
  const uint64_t flush_t0 = timed ? obs::NowNanos() : 0;
  uint64_t quality_ns = 0;  // nested below, subtracted from kFlush
  if (obs_on && group_index_.capacity() > 0) {
    // Load factor of the group index as the window closes, before HAVING
    // prunes groups and the table swap clears it.
    metrics_.group_table_load_factor->Set(
        static_cast<double>(group_index_.size()) /
        static_cast<double>(group_index_.capacity()));
  }

  // Signal end-of-window to every SFUN state that cares. Walked in
  // supergroup creation order (not table order) for deterministic output.
  for (const GroupKey& sk : supergroup_order_) {
    auto sgit = new_supergroups_.find(sk);
    if (sgit == new_supergroups_.end()) continue;
    SupergroupEntry& sg = sgit->second;
    for (size_t i = 0; i < sg.states.size(); ++i) {
      const SfunStateDef* def = plan_->sfun_states[i];
      if (def->window_final != nullptr) def->window_final(sg.states[i]);
    }
  }

  // HAVING + SELECT per group, walking supergroup membership lists so the
  // SFUN states see their own groups in a contiguous pass (the final
  // cleaning of subset-sum / reservoir depends on this). Supergroups are
  // visited in creation order and groups in membership (creation) order, so
  // emitted rows are insertion-ordered — independent of table layout. Each
  // group is read from its record: no probe by key.
  for (const GroupKey& sk : supergroup_order_) {
    auto sgit = new_supergroups_.find(sk);
    if (sgit == new_supergroups_.end()) continue;
    SupergroupEntry& sg = sgit->second;
    if (sg.groups.empty()) continue;
    SuperAggFinalsInto(sg, &scratch_superagg_finals_);
    ExprProgram::RowContext rc;
    rc.aggregates = &scratch_agg_finals_;
    rc.superaggs = &scratch_superagg_finals_;
    rc.sfun_states = sg.states.data();
    rc.num_sfun_states = sg.states.size();
    rc.sfun_calls = &pending_sfun_calls_;
    rc.scratch_stack = row_stack_.data();
    rc.num_group_values = plan_->group_by_exprs.size();

    for (uint32_t r : sg.groups) {
      if (StateOf(r) != RecordState::kLive) continue;
      AggFinalsInto(r, &scratch_agg_finals_);
      rc.group_values = RecordKey(r);
      if (plan_->having != nullptr) {
        STREAMOP_ASSIGN_OR_RETURN(Value sampled, having_prog_.EvalRow(rc));
        if (!sampled.AsBool()) {
          RemoveGroup(r, sg);
          continue;
        }
      }
      // Emit the output row.
      std::vector<Value> row;
      row.reserve(select_progs_.size());
      for (const ExprProgram& prog : select_progs_) {
        STREAMOP_ASSIGN_OR_RETURN(Value v, prog.EvalRow(rc));
        row.push_back(std::move(v));
      }
      output_.emplace_back(std::move(row));
      ++live_stats_.groups_output;
      ++live_stats_.tuples_output;
    }
  }

  window_stats_.push_back(live_stats_);

  // The window's largest threshold, after ssfinal_clean's final adjustment.
  double flush_z = 0.0;
  if (span_on) {
    for (const auto& [sk, sg] : new_supergroups_) {
      flush_z = std::max(flush_z, SupergroupZ(sg));
    }
  }

  if (obs_on) {
    metrics_.windows->Add();
    metrics_.rows_out->Add(live_stats_.tuples_output);
  }

  // Quality report for the window just closed: must run before the table
  // swap below while the supergroup states and membership are still live.
  if constexpr (obs::kStatsEnabled) {
    if (quality_ring_ != nullptr && quality_ring_->enabled()) {
      const uint64_t q_t0 = timed ? obs::NowNanos() : 0;
      RecordWindowQuality();
      if (timed) quality_ns = obs::NowNanos() - q_t0;
      if (obs_on) profiler_->AddPhaseNs(obs::Profiler::kQuality, quality_ns);
      if (span_on) {
        obs::SpanRecord qr;
        qr.name = "quality_report";
        qr.parent_id = window_span_id_;
        qr.window_seq = window_seq_;
        qr.ts_ns = q_t0;
        qr.dur_ns = quality_ns;
        qr.rows = window_stats_.back().groups_output;
        qr.max_weight = live_max_weight_;
        span_ring_->Emit(qr);
      }
    }
  }

  // Table swap per §6.4: destroy the group records in place and reset the
  // arena (its blocks stay), clear the index and the membership lists,
  // drop the old supergroup table, move new -> old. clear() keeps the
  // index's slot array, and the fresh supergroup table is pre-sized from
  // this window's population, so the next window's burst does not rehash.
  const uint64_t expected_groups = window_stats_.back().peak_groups;
  const size_t expected_supergroups = new_supergroups_.size();
  ResetGroups();
  for (auto& [sk, sg] : new_supergroups_) sg.groups.clear();
  supergroup_order_.clear();
  DestroySupergroupStates(old_supergroups_);
  old_supergroups_ = std::move(new_supergroups_);
  new_supergroups_.clear();
  group_index_.reserve(static_cast<size_t>(expected_groups));
  new_supergroups_.reserve(expected_supergroups);

  if (timed) {
    const uint64_t now = obs::NowNanos();
    const uint64_t dur = now - flush_t0;
    if (obs_on) {
      metrics_.flush_ns->Record(dur);
      profiler_->AddPhaseNs(obs::Profiler::kFlush,
                            dur > quality_ns ? dur - quality_ns : 0);
    }
    if (span_on) {
      const WindowStats& ws = window_stats_.back();
      obs::SpanRecord fr;
      fr.name = "flush";
      fr.parent_id = window_span_id_;
      fr.window_seq = window_seq_;
      fr.ts_ns = flush_t0;
      fr.dur_ns = dur;
      fr.rows = ws.tuples_output;
      fr.max_weight = live_max_weight_;
      fr.z = flush_z;
      span_ring_->Emit(fr);
      // The window root goes in last, covering open -> end of flush. Its id
      // was reserved at open, so every phase span above already points at
      // it; if spans were only enabled mid-window the id is 0 and Emit
      // draws a fresh one (the orphaned phases stay queryable by seq).
      obs::SpanRecord wr;
      wr.name = "window";
      wr.span_id = window_span_id_;
      wr.parent_id = 0;
      wr.window_seq = window_seq_;
      wr.ts_ns = window_open_ts_ns_ != 0 ? window_open_ts_ns_ : flush_t0;
      wr.dur_ns = now - wr.ts_ns;
      wr.rows = ws.tuples_in;
      wr.admitted = ws.tuples_admitted;
      wr.max_weight = live_max_weight_;
      wr.shed_p = live_max_weight_ > 1.0 ? 1.0 / live_max_weight_ : 1.0;
      span_ring_->Emit(wr);
    }
  }
  if constexpr (obs::kStatsEnabled) {
    window_span_id_ = 0;  // closed; a FinishStream flush must not re-parent
    window_open_ts_ns_ = 0;
  }
  // Unconditional (window_seq_ is stats-gated): drives checkpoint cadence.
  ++windows_flushed_;
  return Status::OK();
}

void SamplingOperator::RecordWindowQuality() {
  // Reports cover at most this many supergroups; beyond it the report is
  // flagged truncated. High-cardinality supergroup queries (per-flow
  // sampling) would otherwise make every report megabytes.
  constexpr size_t kMaxSupergroupsPerReport = 16;

  const WindowStats& ws = window_stats_.back();
  obs::WindowQualityReport rep;
  rep.node = quality_node_;
  rep.seq = quality_seq_++;
  for (size_t i = 0; i < ws.window_id.size(); ++i) {
    if (i > 0) rep.window_id += ",";
    rep.window_id += ws.window_id[i].ToString();
  }
  rep.tuples_in = ws.tuples_in;
  rep.tuples_admitted = ws.tuples_admitted;
  rep.groups_output = ws.groups_output;
  rep.max_weight = live_max_weight_;
  rep.shed_p_min = live_max_weight_ > 1.0 ? 1.0 / live_max_weight_ : 1.0;

  uint32_t sg_index = 0;
  for (const GroupKey& sk : supergroup_order_) {
    auto sgit = new_supergroups_.find(sk);
    if (sgit == new_supergroups_.end()) continue;
    ++rep.supergroups;
    if (sg_index >= kMaxSupergroupsPerReport) {
      rep.truncated = true;
      ++sg_index;
      continue;
    }
    SupergroupEntry& sg = sgit->second;

    obs::QualityContext qctx;
    qctx.window_tuples = ws.tuples_admitted;
    // Live groups of this supergroup: its list still names the groups
    // HAVING removed, as dead records. Window-boundary work only.
    for (uint32_t r : sg.groups) {
      if (StateOf(r) == RecordState::kLive) ++qctx.live_groups;
    }

    // Sampling-package states first: the subset-sum threshold doubles as
    // the deterministic error bound of this supergroup's sum$ below.
    double det_bound = 0.0;
    for (size_t i = 0; i < sg.states.size(); ++i) {
      const SfunStateDef* def = plan_->sfun_states[i];
      if (def->quality == nullptr) continue;
      obs::EstimatorQuality q;
      if (!def->quality(sg.states[i], qctx, &q)) continue;
      q.supergroup = sg_index;
      if (std::strcmp(q.kind, "subset_sum") == 0) {
        det_bound = std::max(det_bound, q.deterministic_bound);
      }
      rep.estimators.push_back(std::move(q));
    }

    // Superaggregates: HT estimate + variance for sum$/count$ (widened by
    // the supergroup's counter-mode threshold bound, if any), KMV sample
    // size for kth_smallest$/kth_largest$.
    for (size_t i = 0; i < sg.superaggs.size(); ++i) {
      const SuperAggState& st = sg.superaggs[i];
      const SuperAggSpec& spec = plan_->superaggs[i];
      obs::EstimatorQuality q;
      q.supergroup = sg_index;
      q.display = spec.display;
      switch (spec.kind) {
        case SuperAggKind::kSum:
        case SuperAggKind::kCount:
          q.kind = spec.kind == SuperAggKind::kSum ? "sum_ht" : "count_ht";
          q.has_estimate = true;
          q.estimate = st.Final().AsDouble();
          q.variance = st.ht_variance();
          q.deterministic_bound = det_bound;
          q.ci95 = 1.96 * std::sqrt(q.variance) + det_bound;
          break;
        case SuperAggKind::kKthSmallest:
        case SuperAggKind::kKthLargest:
          q.kind = "kmv";
          q.samples = st.tracked_values();
          q.target = spec.k;
          q.rel_error =
              spec.k > 0 ? 1.0 / std::sqrt(static_cast<double>(spec.k)) : 0.0;
          break;
        default:
          continue;  // count_distinct$ / first$ report via the SFUN hooks
      }
      rep.estimators.push_back(std::move(q));
    }
    ++sg_index;
  }

  // Latest-window gauges for /metrics scrapes: worst case across the
  // report's supergroups (the full per-supergroup detail stays in the
  // ring).
  if (metrics_.enabled() && metrics_.quality_sum_ci95 != nullptr) {
    double sum_ci = 0.0, z = 0.0, freq = 0.0, distinct_rel = 0.0;
    double coverage = -1.0;
    for (const obs::EstimatorQuality& q : rep.estimators) {
      if (std::strcmp(q.kind, "sum_ht") == 0 ||
          std::strcmp(q.kind, "count_ht") == 0) {
        sum_ci = std::max(sum_ci, q.ci95);
      } else if (std::strcmp(q.kind, "subset_sum") == 0) {
        z = std::max(z, q.threshold_z);
      } else if (std::strcmp(q.kind, "lossy_counting") == 0) {
        freq = std::max(freq, q.deterministic_bound);
      } else if (std::strcmp(q.kind, "distinct") == 0 ||
                 std::strcmp(q.kind, "kmv") == 0) {
        distinct_rel = std::max(distinct_rel, q.rel_error);
      } else if (std::strcmp(q.kind, "reservoir") == 0 && q.coverage >= 0.0) {
        coverage = coverage < 0.0 ? q.coverage : std::min(coverage, q.coverage);
      }
    }
    metrics_.quality_sum_ci95->Set(sum_ci);
    metrics_.quality_threshold_z->Set(z);
    metrics_.quality_freq_error_bound->Set(freq);
    metrics_.quality_distinct_rel_error->Set(distinct_rel);
    if (coverage >= 0.0) metrics_.quality_coverage->Set(coverage);
    metrics_.quality_shed_p_min->Set(rep.shed_p_min);
  }

  quality_ring_->Push(std::move(rep));
}

double SamplingOperator::SupergroupZ(const SupergroupEntry& sg) {
  double z = 0.0;
  for (size_t i = 0; i < sg.states.size(); ++i) {
    const SfunStateDef* def = plan_->sfun_states[i];
    if (def->quality == nullptr) continue;
    span_quality_.threshold_z = 0.0;
    if (def->quality(sg.states[i], obs::QualityContext(), &span_quality_)) {
      z = std::max(z, span_quality_.threshold_z);
    }
  }
  return z;
}

Status SamplingOperator::FinishStream() {
  if (!window_open_) return Status::OK();
  window_open_ = false;
  STREAMOP_RETURN_NOT_OK(FlushWindow());
  // The flushed window's stats now live in window_stats_; drop the stale
  // live copy so a snapshot taken after the final flush never counts the
  // final window twice.
  live_stats_ = WindowStats{};
  current_window_id_.clear();
  if (window_flush_hook_) window_flush_hook_(windows_flushed_);
  return Status::OK();
}

std::vector<Tuple> SamplingOperator::DrainOutput() {
  std::vector<Tuple> out = std::move(output_);
  output_.clear();
  return out;
}

// ---- Durability (DESIGN.md §10) -------------------------------------------

namespace {

void WriteValueVec(const std::vector<Value>& v, ByteWriter& w) {
  w.U32(static_cast<uint32_t>(v.size()));
  for (const Value& x : v) x.SerializeTo(w);
}

void ReadValueVec(std::vector<Value>* v, ByteReader& r) {
  v->clear();
  const uint32_t n = r.U32();
  if (!r.CheckCount(n, 1)) return;
  v->reserve(n);
  for (uint32_t i = 0; i < n; ++i) v->push_back(Value::Deserialize(r));
}

void WriteWindowStats(const WindowStats& s, ByteWriter& w) {
  WriteValueVec(s.window_id, w);
  w.U64(s.tuples_in);
  w.U64(s.tuples_admitted);
  w.U64(s.groups_created);
  w.U64(s.groups_removed);
  w.U64(s.peak_groups);
  w.U64(s.cleaning_phases);
  w.U64(s.groups_output);
  w.U64(s.tuples_output);
  w.U64(s.late_tuples);
}

WindowStats ReadWindowStats(ByteReader& r) {
  WindowStats s;
  ReadValueVec(&s.window_id, r);
  s.tuples_in = r.U64();
  s.tuples_admitted = r.U64();
  s.groups_created = r.U64();
  s.groups_removed = r.U64();
  s.peak_groups = r.U64();
  s.cleaning_phases = r.U64();
  s.groups_output = r.U64();
  s.tuples_output = r.U64();
  s.late_tuples = r.U64();
  return s;
}

// A group key's checkpoint encoding, byte for byte GroupKey::SerializeTo.
void WriteKeyValues(std::span<const Value> key, ByteWriter& w) {
  w.U64(key.size());
  for (const Value& v : key) v.SerializeTo(w);
}

}  // namespace

void SamplingOperator::SerializeSupergroupEntry(const SupergroupEntry& sg,
                                                ByteWriter& w) const {
  w.U32(static_cast<uint32_t>(sg.superaggs.size()));
  for (const SuperAggState& s : sg.superaggs) s.SerializeTo(w);
  w.U32(static_cast<uint32_t>(sg.states.size()));
  for (size_t i = 0; i < sg.states.size(); ++i) {
    const SfunStateDef* def = plan_->sfun_states[i];
    const bool present = def->serialize != nullptr && sg.states[i] != nullptr;
    w.Bool(present);
    if (!present) continue;
    // Length-prefixed so a reader without the matching restore hook can
    // skip the blob opaquely (and a reader with one can verify it consumed
    // exactly the bytes the writer produced).
    const size_t len_pos = w.size();
    w.U32(0);
    const size_t body_start = w.size();
    def->serialize(sg.states[i], &w);
    w.PatchU32(len_pos, static_cast<uint32_t>(w.size() - body_start));
  }
}

void SamplingOperator::RestoreSupergroupEntry(SupergroupEntry* sg,
                                              ByteReader& r) {
  const uint32_t nsa = r.U32();
  if (nsa != plan_->superaggs.size()) {
    r.MarkFailed();
    return;
  }
  sg->superaggs.reserve(nsa);
  for (const SuperAggSpec& spec : plan_->superaggs) {
    sg->superaggs.emplace_back(&spec);
    sg->superaggs.back().RestoreFrom(r);
  }
  const uint32_t nst = r.U32();
  if (nst != plan_->sfun_states.size()) {
    r.MarkFailed();
    return;
  }
  sg->blobs.reserve(nst);
  sg->states.reserve(nst);
  for (size_t i = 0; i < nst; ++i) {
    const SfunStateDef* def = plan_->sfun_states[i];
    const size_t words =
        (def->size + sizeof(std::max_align_t) - 1) / sizeof(std::max_align_t);
    sg->blobs.push_back(std::make_unique<std::max_align_t[]>(words));
    void* mem = sg->blobs.back().get();
    // Fresh init, then the restore hook overwrites every serialized field
    // (RNG positions included). The seed below only survives for states
    // whose blob this build cannot decode — they restart fresh.
    def->init(mem, nullptr,
              HashCombine(plan_->seed, 0x9e3779b97f4a7c15ULL + i));
    sg->states.push_back(mem);
    if (!r.Bool()) continue;
    const uint32_t len = r.U32();
    if (def->restore != nullptr) {
      const size_t before = r.position();
      def->restore(mem, &r);
      if (r.ok() && r.position() - before != len) r.MarkFailed();
    } else {
      r.Skip(len);
      ++restore_states_skipped_;
    }
  }
}

void SamplingOperator::ResetDurableState() {
  DestroySupergroupStates(new_supergroups_);
  DestroySupergroupStates(old_supergroups_);
  ResetGroups();
  supergroup_order_.clear();
  output_.clear();
  window_open_ = false;
  current_window_id_.clear();
  late_tuples_total_ = 0;
  live_stats_ = WindowStats{};
  window_stats_.clear();
  supergroup_seq_ = 0;
  window_seq_ = 0;
  windows_flushed_ = 0;
  quality_seq_ = 0;
  live_max_weight_ = 1.0;
  restore_states_skipped_ = 0;
}

void SamplingOperator::SerializeDurableState(ByteWriter& w) const {
  // Plan-shape fingerprint: a snapshot only restores into an operator whose
  // plan has the same clause arities and seed (a different query would
  // misinterpret every table entry that follows).
  w.U32(static_cast<uint32_t>(plan_->group_by_exprs.size()));
  w.U32(static_cast<uint32_t>(plan_->supergroup_slots.size()));
  w.U32(static_cast<uint32_t>(plan_->aggregates.size()));
  w.U32(static_cast<uint32_t>(plan_->superaggs.size()));
  w.U32(static_cast<uint32_t>(plan_->sfun_states.size()));
  w.U64(plan_->seed);

  w.Bool(window_open_);
  WriteValueVec(current_window_id_, w);
  w.U64(late_tuples_total_);
  w.U64(supergroup_seq_);
  w.U64(window_seq_);
  w.U64(windows_flushed_);
  w.U64(quality_seq_);
  w.F64(live_max_weight_);
  WriteWindowStats(live_stats_, w);
  w.U64(window_stats_.size());
  for (const WindowStats& s : window_stats_) WriteWindowStats(s, w);

  // Live supergroups in creation order (the order list itself is durable:
  // output emission and window-final hooks walk it).
  w.U32(static_cast<uint32_t>(supergroup_order_.size()));
  for (const GroupKey& sk : supergroup_order_) sk.SerializeTo(w);
  w.U32(static_cast<uint32_t>(new_supergroups_.size()));
  for (const GroupKey& sk : supergroup_order_) {
    auto it = new_supergroups_.find(sk);
    if (it == new_supergroups_.end()) continue;
    sk.SerializeTo(w);
    SerializeSupergroupEntry(it->second, w);
  }

  // Previous-window supergroups (threshold carry-over). No creation-order
  // list survives the table swap, so entries are sorted by encoded key —
  // snapshots stay byte-deterministic regardless of table layout.
  {
    std::vector<std::pair<std::string, const SupergroupEntry*>> sorted;
    sorted.reserve(old_supergroups_.size());
    for (const auto& [key, entry] : old_supergroups_) {
      ByteWriter kw;
      key.SerializeTo(kw);
      sorted.emplace_back(kw.Release(), &entry);
    }
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    w.U32(static_cast<uint32_t>(sorted.size()));
    for (const auto& [kbytes, entry] : sorted) {
      w.Raw(kbytes.data(), kbytes.size());
      SerializeSupergroupEntry(*entry, w);
    }
  }

  // Membership lists (supergroup -> group keys in creation order) of the
  // supergroups a group was created under this window, in supergroup
  // creation order. A list may name dead records; their keys are written
  // too, and the groups below are the source of truth for liveness.
  auto listed = [&](const GroupKey& sk) -> const SupergroupEntry* {
    auto it = new_supergroups_.find(sk);
    return it != new_supergroups_.end() && it->second.has_members
               ? &it->second
               : nullptr;
  };
  uint32_t num_lists = 0;
  for (const GroupKey& sk : supergroup_order_) {
    if (listed(sk) != nullptr) ++num_lists;
  }
  w.U32(num_lists);
  for (const GroupKey& sk : supergroup_order_) {
    const SupergroupEntry* sg = listed(sk);
    if (sg == nullptr) continue;
    sk.SerializeTo(w);
    w.U32(static_cast<uint32_t>(sg->groups.size()));
    for (uint32_t rec : sg->groups) WriteKeyValues(RecordKeyValues(rec), w);
  }

  // Live groups, sorted by encoded key (records have no global creation
  // order; per-window output order is recovered from the membership lists).
  {
    std::vector<std::pair<std::string, uint32_t>> sorted;
    sorted.reserve(group_index_.size());
    for (const auto& [rec, unused] : group_index_) {
      ByteWriter kw;
      WriteKeyValues(RecordKeyValues(rec), kw);
      sorted.emplace_back(kw.Release(), rec);
    }
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    w.U32(static_cast<uint32_t>(sorted.size()));
    for (const auto& [kbytes, rec] : sorted) {
      w.Raw(kbytes.data(), kbytes.size());
      w.U32(static_cast<uint32_t>(plan_->aggregates.size()));
      const AggregateAccumulator* aggs = RecordAggs(rec);
      for (size_t a = 0; a < plan_->aggregates.size(); ++a) {
        aggs[a].SerializeTo(w);
      }
    }
  }
}

bool SamplingOperator::RestoreDurableState(ByteReader& r) {
  // Fingerprint check before touching any state.
  const bool plan_match =
      r.U32() == plan_->group_by_exprs.size() &&
      r.U32() == plan_->supergroup_slots.size() &&
      r.U32() == plan_->aggregates.size() &&
      r.U32() == plan_->superaggs.size() &&
      r.U32() == plan_->sfun_states.size() && r.U64() == plan_->seed;
  if (!plan_match || !r.ok()) {
    r.MarkFailed();
    return false;
  }

  ResetDurableState();
  window_open_ = r.Bool();
  ReadValueVec(&current_window_id_, r);
  late_tuples_total_ = r.U64();
  supergroup_seq_ = r.U64();
  window_seq_ = r.U64();
  windows_flushed_ = r.U64();
  quality_seq_ = r.U64();
  live_max_weight_ = r.F64();
  live_stats_ = ReadWindowStats(r);
  const uint64_t nws = r.U64();
  if (r.CheckCount(nws, 8)) {
    window_stats_.reserve(static_cast<size_t>(nws));
    for (uint64_t i = 0; i < nws && r.ok(); ++i) {
      window_stats_.push_back(ReadWindowStats(r));
    }
  }

  const uint32_t norder = r.U32();
  if (r.CheckCount(norder, 4)) {
    supergroup_order_.reserve(norder);
    for (uint32_t i = 0; i < norder && r.ok(); ++i) {
      supergroup_order_.push_back(GroupKey::Deserialize(r));
    }
  }

  const uint32_t nnew = r.U32();
  for (uint32_t i = 0; i < nnew && r.ok(); ++i) {
    GroupKey sk = GroupKey::Deserialize(r);
    auto [it, inserted] = new_supergroups_.emplace(std::move(sk),
                                                   SupergroupEntry{});
    if (!inserted) {
      r.MarkFailed();
      break;
    }
    RestoreSupergroupEntry(&it->second, r);
  }

  const uint32_t nold = r.U32();
  for (uint32_t i = 0; i < nold && r.ok(); ++i) {
    GroupKey sk = GroupKey::Deserialize(r);
    auto [it, inserted] = old_supergroups_.emplace(std::move(sk),
                                                   SupergroupEntry{});
    if (!inserted) {
      r.MarkFailed();
      break;
    }
    RestoreSupergroupEntry(&it->second, r);
  }

  // Membership lists name groups by key, and the groups follow them: the
  // keys are held until the records exist. A list of a supergroup the
  // snapshot does not have, or a second list of one, is corrupt.
  const size_t ngb = plan_->group_by_exprs.size();
  std::vector<std::pair<SupergroupEntry*, std::vector<GroupKey>>> lists;
  const uint32_t nmem = r.U32();
  for (uint32_t i = 0; i < nmem && r.ok(); ++i) {
    GroupKey sk = GroupKey::Deserialize(r);
    const uint32_t ng = r.U32();
    if (!r.CheckCount(ng, 1)) break;
    auto it = new_supergroups_.find(sk);
    if (it == new_supergroups_.end() || it->second.has_members) {
      r.MarkFailed();
      break;
    }
    it->second.has_members = true;
    lists.emplace_back(&it->second, std::vector<GroupKey>{});
    std::vector<GroupKey>& keys = lists.back().second;
    keys.reserve(ng);
    for (uint32_t j = 0; j < ng && r.ok(); ++j) {
      keys.push_back(GroupKey::Deserialize(r));
      if (keys.back().size() != ngb) r.MarkFailed();
    }
  }

  // The groups become live records, indexed under their key hash.
  auto find_group = [&](const GroupKey& gk) {
    return group_index_.find_hashed(gk.Hash(), [&](uint32_t rec) {
      const Value* key = RecordKey(rec);
      for (size_t j = 0; j < ngb; ++j) {
        if (key[j] != gk.at(j)) return false;
      }
      return true;
    });
  };
  const uint32_t ngr = r.U32();
  for (uint32_t i = 0; i < ngr && r.ok(); ++i) {
    GroupKey gk = GroupKey::Deserialize(r);
    const uint32_t na = r.U32();
    if (!r.ok() || na != plan_->aggregates.size() || gk.size() != ngb ||
        find_group(gk) != group_index_.end()) {
      r.MarkFailed();
      break;
    }
    const uint32_t rec = AllocRecord();
    ConstructRecord(rec, [&](size_t j) { return gk.at(j); });
    group_index_.insert_hashed(gk.Hash(), rec);
    AggregateAccumulator* aggs = RecordAggs(rec);
    for (size_t a = 0; a < na; ++a) aggs[a].RestoreFrom(r);
  }

  // Each list key names its group's record. A key with no group (removed,
  // its list not compacted since) becomes a dead record, so the list
  // re-serializes byte for byte. A group is claimed by the last key that
  // names it: a group re-created after such a removal was appended after
  // its dead entry.
  std::vector<uint8_t> claimed(records_used_, 0);
  for (auto& [sg, keys] : lists) {
    if (!r.ok()) break;
    sg->groups.resize(keys.size());
    for (size_t j = keys.size(); j-- > 0;) {
      auto found = find_group(keys[j]);
      if (found != group_index_.end() && !claimed[found->first]) {
        claimed[found->first] = 1;
        sg->groups[j] = found->first;
        continue;
      }
      const uint32_t rec = AllocRecord();
      ConstructRecord(rec, [&](size_t v) { return keys[j].at(v); });
      StateOf(rec) = RecordState::kDead;
      sg->groups[j] = rec;
    }
  }

  if (!r.ok()) {
    ResetDurableState();
    return false;
  }
  return true;
}

}  // namespace streamop
