// Expectation-Maximization reconstruction on aggregated reports
// (paper §5.5, Algorithm 1, Appendix A).
//
// Given the observation model M (column-stochastic, d_out x d) and the
// histogram of perturbed reports n_j, EM iterates
//   P_i   = x_i * sum_j n_j M(j,i) / (M x)_j        (E step)
//   x_i   = P_i / sum_k P_k                          (M step)
// which converges to the MLE of the input distribution because the
// log-likelihood L(x) = sum_j n_j log (M x)_j is concave (Theorem 5.6).
#pragma once

#include <cstdint>
#include <vector>

#include "common/matrix.h"
#include "common/result.h"
#include "core/observation_model.h"

namespace numdist {

/// Options controlling the EM / EMS iteration.
struct EmOptions {
  /// Stop when the total log-likelihood L(x) = sum_j n_j log (M x)_j improves
  /// by less than this between iterations. The paper (§6.1) uses
  /// 1e-3 * e^eps for plain EM and 1e-3 for EMS; SwEstimator applies those
  /// defaults.
  double tol = 1e-3;
  /// Hard iteration cap (EM on noisy data can plateau extremely slowly).
  size_t max_iterations = 10000;
  /// Run at least this many iterations before testing convergence.
  size_t min_iterations = 5;
  /// Apply the binomial smoothing step after each M step (EMS, §5.5).
  bool smoothing = false;
};

/// Outcome of an EM / EMS run.
struct EmResult {
  /// Reconstructed input distribution (size d, non-negative, sums to 1).
  std::vector<double> estimate;
  /// Iterations performed.
  size_t iterations = 0;
  /// Final total log-likelihood sum_j n_j log (M x)_j.
  double log_likelihood = 0.0;
  /// False iff the iteration cap was hit before the tolerance.
  bool converged = false;
};

/// Resumable EM state for incremental reconstruction over rolling
/// snapshots: when a snapshot advances by Δ reports, restarting the
/// iteration from the previous fixed point instead of uniform converges in
/// a small fraction of the cold iterations (the likelihood surface barely
/// moved). Pass a checkpoint to EstimateEm / EstimateEmWeighted: an empty
/// checkpoint leaves the first run cold; afterwards `estimate` holds the
/// latest fixed point and the bookkeeping fields accumulate the total
/// iteration budget spent across the whole snapshot sequence.
struct EmCheckpoint {
  /// Latest fixed point (size d). Empty => the next run starts cold
  /// (uniform). Warm starts floor each entry at 1e-12 / d before
  /// renormalizing, so a coordinate driven to an absorbing exact zero by a
  /// previous run can still recover mass.
  std::vector<double> estimate;
  /// E+M map applications accumulated across all runs through this
  /// checkpoint (the incremental path's total iteration budget).
  size_t total_iterations = 0;
  /// Runs accumulated through this checkpoint.
  size_t runs = 0;
  /// Final log-likelihood of the latest run (of its own counts).
  double log_likelihood = 0.0;
  /// True when the next run will start from `estimate` instead of uniform.
  bool warm() const { return !estimate.empty(); }
};

/// Runs EM (or EMS if opts.smoothing) for observation model `m` and observed
/// output-bucket counts `counts` (counts.size() == m.rows()). Errors on
/// dimension mismatch, empty input, or an all-zero count vector. A non-null
/// `checkpoint` warm-starts the iteration from its stored fixed point (when
/// it has one of the right size) and is updated with the run's outcome.
Result<EmResult> EstimateEm(const Matrix& m,
                            const std::vector<uint64_t>& counts,
                            const EmOptions& opts = EmOptions(),
                            EmCheckpoint* checkpoint = nullptr);

/// Operator-based variant: same algorithm, but the observation model is an
/// abstract linear operator (use SlidingWindowObservationModel for SW/DSW
/// models — O(d) per product instead of O(d^2); see observation_model.h).
/// The iteration loop performs no heap allocations: all workspaces are
/// sized once up front.
Result<EmResult> EstimateEm(const ObservationModel& model,
                            const std::vector<uint64_t>& counts,
                            const EmOptions& opts = EmOptions(),
                            EmCheckpoint* checkpoint = nullptr);

/// Weighted-counts variant for the incremental path: `counts` are
/// non-negative reals (exponentially decayed histograms are fractional).
/// Integer histograms fed through this overload reconstruct bit-identically
/// to the uint64 overloads (the conversion is exact). Errors additionally on
/// negative or non-finite counts.
Result<EmResult> EstimateEmWeighted(const ObservationModel& model,
                                    const std::vector<double>& counts,
                                    const EmOptions& opts = EmOptions(),
                                    EmCheckpoint* checkpoint = nullptr);

/// One in-place binomial smoothing pass (the EMS "S step"): interior buckets
/// get weights (1/4, 1/2, 1/4), edges the truncated renormalized kernel
/// (2/3, 1/3); the vector is renormalized to sum 1 afterwards. Exposed for
/// tests and for the smoothing-only ablation.
void BinomialSmooth(std::vector<double>* x);

}  // namespace numdist
