// Incremental reconstruction over rolling snapshots.
//
// The batch pipeline freezes a snapshot, then runs EM to convergence from a
// uniform start — every reconstruction pays the full cold cost even when
// the snapshot advanced by a handful of reports. IncrementalReconstructor
// makes reconstruction continuous: every update restarts EM from the
// previous fixed point (EmCheckpoint) over a count window w, advanced by
//
//   w <- lambda * w + (totals - prev_totals),  lambda = 2^(-Δn / half_life)
//
// where Δn is the number of reports since the last update.
//
//  * With no half-life (the default) lambda = 1: the window is the exact
//    cumulative histogram, and the warm run reaches the cold fixed point
//    on it (up to the shared tolerance — see stats::EmAgreementRadius) in
//    a small fraction of the cold iterations, because the likelihood
//    surface barely moves when a snapshot grows by Δ reports.
//  * With a positive half-life, reports older than a few half-lives stop
//    influencing the estimate, so the reconstruction tracks distribution
//    drift instead of averaging over it.
//
// The reconstructor consumes cumulative per-bucket totals (what a live
// collector or a scenario checkpoint actually exposes) and diffs them
// internally, so callers never materialize per-tick deltas. Everything is
// deterministic — no RNG, single-threaded — and the inputs (exact integer
// counts) are thread-count-invariant, so incremental estimates inherit
// the system's bit-identical-for-any-thread-count contract.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "core/sw_estimator.h"

namespace numdist {

/// Controls for IncrementalReconstructor.
struct IncrementalOptions {
  /// Forgetting half-life in reports: after half_life further reports, a
  /// report's weight has halved. 0 forgets nothing, so every update
  /// reconstructs the exact cumulative totals. Must be finite and >= 0.
  double half_life = 0.0;
  /// Per-update EM iteration budget; 0 keeps the estimator's own cap. A
  /// small budget (e.g. 50) amortizes convergence across ticks: each
  /// update refines the running fixed point instead of blocking the
  /// ingest loop until full convergence.
  size_t max_iterations_per_update = 0;
};

/// The window's forgetting factor after `delta_n` further reports:
/// 2^(-delta_n / half_life), or 1 when half_life is 0 (no forgetting).
/// The scenario engine decays its ground truth by the same rule.
double ForgettingFactor(uint64_t delta_n, double half_life);

/// \brief Rolling-snapshot EM driver: feed cumulative totals, get
/// continuously refined estimates.
class IncrementalReconstructor {
 public:
  /// Validates options against the estimator (shared, immutable): a
  /// negative or non-finite half-life is InvalidArgument.
  static Result<IncrementalReconstructor> Make(
      std::shared_ptr<const SwEstimator> estimator,
      const IncrementalOptions& options);

  /// Advances the rolling window to the cumulative per-bucket `totals`
  /// (size = output buckets, monotone non-decreasing across calls, summing
  /// to `n`) and re-reconstructs. Shrinking or mismatched totals are
  /// refused before the window moves. An all-zero window (nothing
  /// ingested yet) is an EM error that leaves the checkpoint unchanged.
  Result<EmResult> UpdateFromTotals(const std::vector<uint64_t>& totals,
                                    uint64_t n);

  /// Resumable EM state: latest fixed point + cumulative iteration budget
  /// spent across all updates.
  const EmCheckpoint& checkpoint() const { return checkpoint_; }

  /// Cumulative reports at the latest update.
  uint64_t reports_seen() const { return reports_seen_; }

  /// Updates performed so far.
  uint64_t updates() const { return updates_; }

  const SwEstimator& estimator() const { return *estimator_; }
  const IncrementalOptions& options() const { return options_; }

 private:
  IncrementalReconstructor(std::shared_ptr<const SwEstimator> estimator,
                           const IncrementalOptions& options);

  std::shared_ptr<const SwEstimator> estimator_;
  IncrementalOptions options_;
  EmOptions em_options_;  // estimator defaults + per-update budget
  EmCheckpoint checkpoint_;
  std::vector<uint64_t> prev_totals_;  // last seen cumulative histogram
  std::vector<double> window_;         // the (decayed) count window
  uint64_t reports_seen_ = 0;
  uint64_t updates_ = 0;
};

}  // namespace numdist
