#include "core/sfun_subset_sum.h"

#include <cmath>
#include <new>

#include "common/hash.h"
#include "expr/stateful.h"
#include "obs/metrics.h"
#include "tuple/value.h"

namespace streamop {

namespace {

constexpr double kMinZ = 1e-6;

// Counts threshold adjustments in the process-wide registry (SFUN packages
// have no per-operator channel). The new z itself reaches the operator's
// "clean" and "flush" spans through SubsetSumQuality below.
void CountZAdjust() {
  if constexpr (obs::kStatsEnabled) {
    static obs::Counter* adjusts = obs::MetricRegistry::Default().GetCounter(
        "streamop_sfun_z_adjustments_total");
    adjusts->Add();
  }
}

void SubsetSumStateInit(void* state, const void* old_state, uint64_t seed) {
  auto* s = new (state) SubsetSumSfunState();
  s->seed = seed;
  if (old_state != nullptr) {
    const auto* o = static_cast<const SubsetSumSfunState*>(old_state);
    // Carry configuration and the closing threshold into the new window.
    s->target = o->target;
    s->beta = o->beta;
    s->relax_factor = o->relax_factor;
    s->initial_z = o->initial_z;
    s->mode = o->mode;
    double z_next = o->admit.z();
    if (o->relax_factor > 1.0) z_next /= o->relax_factor;  // relaxed scheme
    if (z_next < kMinZ) z_next = kMinZ;
    s->admit = ThresholdSamplerCore(z_next, s->mode,
                                    HashCombine(seed, ++s->rng_seq));
    s->z_prev = z_next;
  }
}

void SubsetSumStateDestroy(void* state) {
  static_cast<SubsetSumSfunState*>(state)->~SubsetSumSfunState();
}

void SubsetSumStateSerialize(const void* state, ByteWriter* w) {
  const auto* s = static_cast<const SubsetSumSfunState*>(state);
  s->admit.SerializeTo(*w);
  s->clean.SerializeTo(*w);
  w->F64(s->z_prev);
  w->F64(s->initial_z);
  w->U64(s->target);
  w->F64(s->beta);
  w->F64(s->relax_factor);
  w->U8(static_cast<uint8_t>(s->mode));
  w->U64(s->seed);
  w->U64(s->rng_seq);
  w->U64(s->large_count);
  w->U64(s->cleanings_this_window);
  w->U64(s->admitted_this_window);
  w->Bool(s->final_adjust_done);
  w->Bool(s->final_pass_through);
}

void SubsetSumStateRestore(void* state, ByteReader* r) {
  auto* s = static_cast<SubsetSumSfunState*>(state);
  s->admit.RestoreFrom(*r);
  s->clean.RestoreFrom(*r);
  s->z_prev = r->F64();
  s->initial_z = r->F64();
  s->target = r->U64();
  s->beta = r->F64();
  s->relax_factor = r->F64();
  s->mode = static_cast<ThresholdMode>(r->U8());
  s->seed = r->U64();
  s->rng_seq = r->U64();
  s->large_count = r->U64();
  s->cleanings_this_window = r->U64();
  s->admitted_this_window = r->U64();
  s->final_adjust_done = r->Bool();
  s->final_pass_through = r->Bool();
}

// ssample(x, N [, beta [, relax_factor [, z0 [, mode]]]]) -> bool: basic
// threshold admission of a tuple with weight x, targeting N samples per
// window. mode 1 switches small-tuple admission from the counter scheme to
// the probabilistic DLT rule.
Value SsSample(void* state, const Value* args, size_t nargs) {
  auto* s = static_cast<SubsetSumSfunState*>(state);
  if (s->target == 0) {
    // First call in this supergroup's lifetime: latch the configuration.
    s->target = nargs > 1 ? args[1].AsUInt() : 1000;
    if (s->target == 0) s->target = 1;
    if (nargs > 2) s->beta = args[2].AsDouble();
    if (s->beta < 1.0) s->beta = 1.0;
    if (nargs > 3) {
      s->relax_factor = args[3].AsDouble();
      if (s->relax_factor < 1.0) s->relax_factor = 1.0;
    }
    if (nargs > 5 && args[5].AsUInt() == 1) {
      s->mode = ThresholdMode::kProbabilistic;
    }
    double z0 = s->admit.z();
    if (nargs > 4 && args[4].AsDouble() > 0.0) {
      z0 = args[4].AsDouble();
      s->initial_z = z0;
      s->z_prev = z0;
    }
    s->admit = ThresholdSamplerCore(z0, s->mode,
                                    HashCombine(s->seed, ++s->rng_seq));
  }
  double x = args[0].AsDouble();
  ThresholdDecision d = s->admit.Offer(x);
  if (d.sampled) {
    ++s->admitted_this_window;
    if (d.was_large) ++s->large_count;
  }
  return Value::Bool(d.sampled);
}

// ssdo_clean(count_distinct$) -> bool: trigger a cleaning phase when the
// live sample exceeds beta*N. On trigger, adjusts z aggressively and arms
// the cleaning core.
Value SsDoClean(void* state, const Value* args, size_t nargs) {
  auto* s = static_cast<SubsetSumSfunState*>(state);
  uint64_t live = nargs > 0 ? args[0].AsUInt() : 0;
  if (s->target == 0) return Value::Bool(false);
  double trigger = s->beta * static_cast<double>(s->target);
  if (static_cast<double>(live) <= trigger) return Value::Bool(false);

  double z_old = s->admit.z();
  double z_new = AggressiveZAdjust(z_old, live, s->target, s->large_count);
  if (z_new <= z_old) z_new = z_old * 2.0;  // force progress
  s->z_prev = z_old;
  s->clean = ThresholdSamplerCore(z_new, s->mode,
                                  HashCombine(s->seed, ++s->rng_seq));
  s->admit.set_z(z_new);
  s->admit.ResetCounter();
  s->large_count = 0;  // re-counted by ssclean_with over survivors
  ++s->cleanings_this_window;
  CountZAdjust();
  return Value::Bool(true);
}

// Shared by ssclean_with and the final cleaning: re-offer a retained
// group's weight at the armed threshold. Weights below the previous
// threshold stand in at z_prev (they represent weight z_prev).
Value CleanKeepDecision(SubsetSumSfunState* s, double weight) {
  double w = weight < s->z_prev ? s->z_prev : weight;
  ThresholdDecision d = s->clean.Offer(w);
  if (d.sampled && d.was_large) ++s->large_count;
  return Value::Bool(d.sampled);
}

// ssclean_with(weight) -> bool keep.
Value SsCleanWith(void* state, const Value* args, size_t nargs) {
  auto* s = static_cast<SubsetSumSfunState*>(state);
  double w = nargs > 0 ? args[0].AsDouble() : 0.0;
  return CleanKeepDecision(s, w);
}

// ssfinal_clean(weight, count_distinct$) -> bool keep: window-final
// cleaning. The first call decides whether a final subsample is needed
// (live > N) and arms the cleaning core once for the whole pass.
Value SsFinalClean(void* state, const Value* args, size_t nargs) {
  auto* s = static_cast<SubsetSumSfunState*>(state);
  if (!s->final_adjust_done) {
    s->final_adjust_done = true;
    uint64_t live = nargs > 1 ? args[1].AsUInt() : 0;
    if (s->target == 0 || live <= s->target) {
      s->final_pass_through = true;
    } else {
      double z_old = s->admit.z();
      double z_new = AggressiveZAdjust(z_old, live, s->target, s->large_count);
      if (z_new <= z_old) z_new = z_old * 1.0000001;
      s->z_prev = z_old;
      s->clean = ThresholdSamplerCore(z_new, s->mode,
                                      HashCombine(s->seed, ++s->rng_seq));
      s->admit.set_z(z_new);  // ssthreshold() must report the final z
      s->large_count = 0;
      ++s->cleanings_this_window;
      s->final_pass_through = false;
      CountZAdjust();
    }
  }
  if (s->final_pass_through) return Value::Bool(true);
  double w = nargs > 0 ? args[0].AsDouble() : 0.0;
  return CleanKeepDecision(s, w);
}

// ssinit(N [, beta [, relax_factor [, z0 [, mode]]]]) -> true: latches the
// sampler configuration WITHOUT making a sampling decision, always
// admitting the tuple. This is the admission function for *flow-integrated*
// subset-sum sampling (§8): every packet must reach its flow's group, and
// the threshold machinery only acts through the cleaning phases, sampling
// and purging small flows when the group table exceeds beta*N.
Value SsInit(void* state, const Value* args, size_t nargs) {
  auto* s = static_cast<SubsetSumSfunState*>(state);
  if (s->target == 0) {
    s->target = nargs > 0 ? args[0].AsUInt() : 1000;
    if (s->target == 0) s->target = 1;
    if (nargs > 1) s->beta = args[1].AsDouble();
    if (s->beta < 1.0) s->beta = 1.0;
    if (nargs > 2) {
      s->relax_factor = args[2].AsDouble();
      if (s->relax_factor < 1.0) s->relax_factor = 1.0;
    }
    if (nargs > 4 && args[4].AsUInt() == 1) {
      s->mode = ThresholdMode::kProbabilistic;
    }
    double z0 = s->admit.z();
    if (nargs > 3 && args[3].AsDouble() > 0.0) {
      z0 = args[3].AsDouble();
      s->initial_z = z0;
      s->z_prev = z0;
    }
    s->admit = ThresholdSamplerCore(z0, s->mode,
                                    HashCombine(s->seed, ++s->rng_seq));
  }
  return Value::Bool(true);
}

// ssthreshold() -> double: the current threshold z; UMAX(sum(len),
// ssthreshold()) in the SELECT clause yields the weight-adjusted estimate.
Value SsThreshold(void* state, const Value* /*args*/, size_t /*nargs*/) {
  auto* s = static_cast<SubsetSumSfunState*>(state);
  return Value::Double(s->admit.z());
}

// sscleanings() -> uint: cleaning phases triggered this window (Fig. 4).
Value SsCleanings(void* state, const Value* /*args*/, size_t /*nargs*/) {
  auto* s = static_cast<SubsetSumSfunState*>(state);
  return Value::UInt(s->cleanings_this_window);
}

// SfunStateDef::quality: accuracy of the threshold sampler at window
// close. Counter mode (§4.4): every group's reported weight deviates from
// its true weight by less than the final threshold z — z is the window's
// deterministic error bound. Probabilistic (DLT) mode: a small item of
// weight x is admitted with p = x/z, so its HT-estimate variance is
// x(z−x) ≤ z²/4; with `samples − large` small items retained, the
// subset-sum variance is bounded by (samples − large)·z²/4.
bool SubsetSumQuality(const void* state, const obs::QualityContext& /*ctx*/,
                      obs::EstimatorQuality* out) {
  const auto* s = static_cast<const SubsetSumSfunState*>(state);
  if (s->target == 0) return false;  // never configured: nothing sampled
  out->kind = "subset_sum";
  out->display = "subsetsum_sampling_state";
  out->threshold_z = s->admit.z();
  out->samples = s->admitted_this_window;
  out->target = s->target;
  if (s->mode == ThresholdMode::kCounter) {
    out->deterministic_bound = out->threshold_z;
  } else {
    uint64_t small = s->admitted_this_window > s->large_count
                         ? s->admitted_this_window - s->large_count
                         : 0;
    out->variance = static_cast<double>(small) * out->threshold_z *
                    out->threshold_z / 4.0;
  }
  out->ci95 = 1.96 * std::sqrt(out->variance) + out->deterministic_bound;
  return true;
}

}  // namespace

Status RegisterSubsetSumSfunPackage() {
  SfunRegistry& reg = SfunRegistry::Global();
  if (reg.FindState("subsetsum_sampling_state") != nullptr) {
    return Status::OK();  // already registered
  }
  SfunStateDef state;
  state.name = "subsetsum_sampling_state";
  state.size = sizeof(SubsetSumSfunState);
  state.init = SubsetSumStateInit;
  state.destroy = SubsetSumStateDestroy;
  state.window_final = nullptr;
  state.quality = SubsetSumQuality;
  state.serialize = SubsetSumStateSerialize;
  state.restore = SubsetSumStateRestore;
  STREAMOP_RETURN_NOT_OK(reg.RegisterState(state));
  const SfunStateDef* sd = reg.FindState(state.name);

  STREAMOP_RETURN_NOT_OK(reg.RegisterFunction({"ssample", sd, 1, 6, SsSample}));
  STREAMOP_RETURN_NOT_OK(
      reg.RegisterFunction({"ssdo_clean", sd, 1, 1, SsDoClean}));
  STREAMOP_RETURN_NOT_OK(
      reg.RegisterFunction({"ssclean_with", sd, 1, 1, SsCleanWith}));
  STREAMOP_RETURN_NOT_OK(
      reg.RegisterFunction({"ssfinal_clean", sd, 1, 2, SsFinalClean}));
  STREAMOP_RETURN_NOT_OK(reg.RegisterFunction({"ssinit", sd, 1, 5, SsInit}));
  STREAMOP_RETURN_NOT_OK(
      reg.RegisterFunction({"ssthreshold", sd, 0, 0, SsThreshold}));
  STREAMOP_RETURN_NOT_OK(
      reg.RegisterFunction({"sscleanings", sd, 0, 0, SsCleanings}));
  return Status::OK();
}

}  // namespace streamop
