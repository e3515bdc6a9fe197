// Per-window sample-quality reports: how good is the sample *right now*?
//
// Every sampling algorithm the operator hosts admits an analytic error
// bound — Duffield-Lund-Thorup threshold sampling deviates from the true
// subset sum by at most one threshold z per window in counter mode (§4.4),
// lossy counting undercounts frequencies by at most ε·N (Manku-Motwani,
// VLDB 2002), KMV distinct estimation has relative error ~1/√k
// (Bar-Yossef et al., RANDOM 2002), a size-k reservoir covers min(1, k/N)
// of the window, and Horvitz–Thompson reweighting under load shedding has
// the classic unbiased variance estimator Σ w(w−1)x² ("A Sampling Algebra
// for Aggregate Estimation", PVLDB 2013, carries exactly these
// variance/CI companions alongside sample-based aggregates).
//
// SamplingOperator::FlushWindow materializes one WindowQualityReport per
// closed window — superaggregate HT estimates with 95% CIs plus one
// EstimatorQuality entry per sampling-package state (via the
// SfunStateDef::quality hook) — and pushes it into a bounded QualityRing,
// overwriting the oldest report. The introspection server's GET /windows
// returns the retained reports as JSON.
//
// Everything here is off the per-tuple hot path: reports are built at
// window boundaries only, and only when the target ring is enabled.
// STREAMOP_NO_STATS compiles report generation out entirely (enabled()
// constant-folds to false).

#ifndef STREAMOP_OBS_QUALITY_H_
#define STREAMOP_OBS_QUALITY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace streamop {
namespace obs {

/// Window-close context handed to SfunStateDef::quality hooks: what the
/// operator knows that the state blob does not.
struct QualityContext {
  uint64_t live_groups = 0;    // live groups of this supergroup at close
  uint64_t window_tuples = 0;  // tuples admitted into the window
};

/// Accuracy of one estimator (a superaggregate or a sampling-package
/// state) at window close. Fields not meaningful for a given kind stay at
/// their defaults; `coverage` uses -1 for "not applicable" so a true 0 is
/// distinguishable.
struct EstimatorQuality {
  const char* kind = "";   // "sum_ht", "count_ht", "kmv", "subset_sum",
                           // "reservoir", "distinct", "lossy_counting"
  std::string display;     // e.g. "sum$(len)" or the sfun state name
  uint32_t supergroup = 0; // index in supergroup creation order

  bool has_estimate = false;
  double estimate = 0.0;   // HT estimate of the window quantity
  double variance = 0.0;   // HT variance estimate (conservative bound for
                           // probabilistic threshold sampling)
  double ci95 = 0.0;       // 95% CI half-width:
                           // 1.96*sqrt(variance) + deterministic_bound
  double deterministic_bound = 0.0;  // counter-mode z / lossy ε·N
  double rel_error = 0.0;  // ~1/sqrt(k) style relative error
  double coverage = -1.0;  // reservoir: min(1, k/N); -1 = n/a
  double threshold_z = 0.0;
  uint64_t samples = 0;    // live sample size backing the estimate
  uint64_t target = 0;     // configured target sample size (0 = none)
};

/// Everything the engine can say about one closed window's sample quality.
struct WindowQualityReport {
  std::string node;        // query-node name ("high0", "high1", ...)
  uint64_t seq = 0;        // 0-based window index within the node
  std::string window_id;   // ordered group-by values, comma-joined
  uint64_t tuples_in = 0;
  uint64_t tuples_admitted = 0;
  uint64_t groups_output = 0;
  uint64_t supergroups = 0;  // supergroups live at window close
  bool truncated = false;    // more supergroups than the per-report cap
  double max_weight = 1.0;   // largest HT weight seen in the window
  double shed_p_min = 1.0;   // 1/max_weight: worst admission probability
  std::vector<EstimatorQuality> estimators;
};

/// Bounded overwrite-oldest store of the most recent quality reports,
/// shared by every query of the process (reports carry their node name).
/// Pushes happen once per window flush — a mutex is fine here; nothing on
/// the per-tuple path ever touches this class.
class QualityRing {
 public:
  /// Process-wide default ring (leaked singleton, like SpanRing).
  static QualityRing& Default();

  explicit QualityRing(size_t capacity = 512);

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const {
    return kStatsEnabled && enabled_.load(std::memory_order_relaxed);
  }

  /// Appends a report, dropping the oldest once `capacity` is exceeded.
  void Push(WindowQualityReport&& report);

  /// Copies out the retained reports, oldest first.
  std::vector<WindowQualityReport> Snapshot() const;

  /// {"reports": [...]} — the GET /windows payload.
  std::string ToJson() const;

  /// Total reports ever pushed (>= capacity means overwrites happened).
  uint64_t reports_recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  size_t capacity() const { return capacity_; }
  size_t size() const;

 private:
  const size_t capacity_;
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> recorded_{0};
  mutable std::mutex mu_;
  std::deque<WindowQualityReport> reports_;
};

/// Serializes one report as a JSON object (shared by QualityRing::ToJson
/// and tests that check the schema).
std::string WindowQualityReportToJson(const WindowQualityReport& report);

}  // namespace obs
}  // namespace streamop

#endif  // STREAMOP_OBS_QUALITY_H_
