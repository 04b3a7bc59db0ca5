// Incremental reconstruction over rolling snapshots.
//
// The batch pipeline freezes a snapshot, then runs EM to convergence from a
// uniform start — every reconstruction pays the full cold cost even when
// the snapshot advanced by a handful of reports. IncrementalReconstructor
// makes reconstruction continuous:
//
//  * Warm mode: EM restarts from the previous fixed point (EmCheckpoint).
//    When a snapshot grows by Δ reports the likelihood surface barely
//    moves, so the warm run converges in a small fraction of the cold
//    iterations while reaching the same fixed point (up to the shared
//    tolerance — see stats::EmAgreementRadius).
//  * Mini-batch mode: the same warm-started runs, but over an
//    exponentially forgotten count window. Each update multiplies the
//    running weighted histogram by lambda = 2^(-Δn / half_life) before
//    adding the new reports, so reports older than a few half-lives stop
//    influencing the estimate and the reconstruction tracks distribution
//    drift instead of averaging over it.
//
// Both modes consume cumulative per-bucket totals (what a live collector
// or a scenario checkpoint actually exposes) and diff them internally, so
// callers never materialize per-tick deltas. Everything is deterministic —
// no RNG, single-threaded — and the inputs (exact integer counts) are
// thread-count-invariant, so incremental estimates inherit the system's
// bit-identical-for-any-thread-count contract.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "core/sw_estimator.h"

namespace numdist {

/// Controls for IncrementalReconstructor.
struct IncrementalOptions {
  /// kWarm: full cumulative counts, warm-started EM. kMiniBatch: the
  /// decayed window (requires half_life > 0).
  enum class Mode { kWarm, kMiniBatch } mode = Mode::kWarm;
  /// Forgetting half-life in reports: after half_life further reports, a
  /// report's weight has halved. Only read in kMiniBatch mode.
  double half_life = 0.0;
  /// Per-update EM iteration budget; 0 keeps the estimator's own cap. A
  /// small budget (e.g. 50) amortizes convergence across ticks: each
  /// update refines the running fixed point instead of blocking the
  /// ingest loop until full convergence.
  size_t max_iterations_per_update = 0;
};

/// \brief Rolling-snapshot EM driver: feed cumulative totals, get
/// continuously refined estimates.
class IncrementalReconstructor {
 public:
  /// Validates options against the estimator (shared, immutable).
  static Result<IncrementalReconstructor> Make(
      std::shared_ptr<const SwEstimator> estimator,
      const IncrementalOptions& options);

  /// Advances the rolling window to the cumulative per-bucket `totals`
  /// (size = output buckets, monotone non-decreasing across calls, summing
  /// to `n`) and re-reconstructs. Errors on shrinking or mismatched
  /// totals; n == 0 (nothing ingested yet) is an error.
  Result<EmResult> UpdateFromTotals(const std::vector<uint64_t>& totals,
                                    uint64_t n);

  /// Resumable EM state: latest fixed point + cumulative iteration budget
  /// spent across all updates.
  const EmCheckpoint& checkpoint() const { return checkpoint_; }

  /// Mini-batch mode's decayed weighted histogram (empty in warm mode).
  const std::vector<double>& weighted_counts() const { return weighted_; }

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
  std::vector<double> weighted_;       // decayed window (mini-batch only)
  std::vector<double> scratch_;        // warm mode's exact double totals
  uint64_t reports_seen_ = 0;
  uint64_t updates_ = 0;
};

}  // namespace numdist
